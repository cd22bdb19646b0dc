"""Noise-level bookkeeping for multi-resolution trajectories.

Everything here is arithmetic on the noise fraction ``sigma`` in [0, 1]
of the rectified-flow interpolation ``x_t = (1 - sigma) * x0 + sigma * eps``.
Thresholds are given as ``logsnr = 2 ln((1 - sigma) / sigma)``, the log
signal-to-noise ratio, and mapped to sigma once. The timestep
``t = sigma * T_MAX`` (T_MAX = 1000) is a display unit only: the CLI's
schedule table prints it, rounded, and nothing computes in it.

A :class:`TrajectoryPartition` splits sigma's [0, 1] into K resolution
stages at logSNR thresholds; each stage owns the resolution-induced logSNR
shift onto it (its factor ``rho`` and the maps ``shift`` and ``unshift``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "T_MAX",
    "logsnr_to_sigma",
    "sigma_to_logsnr",
    "apply_flow_shift",
    "ResolutionStage",
    "TrajectoryPartition",
    "build_partition",
    "ScheduleStep",
    "inference_schedule",
]

T_MAX = 1000.0  # timestep of sigma = 1; a display unit only


def logsnr_to_sigma(logsnr: float) -> float:
    """Noise fraction at a given logSNR: 1 / (1 + exp(logsnr / 2)), in [0, 1]
    for every finite logSNR."""
    if not math.isfinite(logsnr):
        raise ValueError(f"logsnr must be finite, got {logsnr}")
    try:
        return 1.0 / (1.0 + math.exp(logsnr / 2.0))
    except OverflowError:  # logsnr > ~1419: sigma is exp(-logsnr / 2) to double precision
        return math.exp(-logsnr / 2.0)


def sigma_to_logsnr(sigma: float) -> float:
    """Inverse of `logsnr_to_sigma`; rejects the singular endpoints 0 and 1."""
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie strictly inside (0, 1), got {sigma}")
    return 2.0 * math.log((1.0 - sigma) / sigma)


def apply_flow_shift(u: float, shift: float) -> float:
    """Monotone reparameterization shift*u / (1 + (shift-1)*u) of a step fraction."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    if not 1.0 <= shift < math.inf:
        raise ValueError(f"flow shift must be finite and >= 1, got {shift}")
    return shift * u / (1.0 + (shift - 1.0) * u)


@dataclass(frozen=True)
class ResolutionStage:
    """One resolution segment of the trajectory and the shift onto it.

    ``rho = resolution / final_resolution``. The shift adds 2 ln(rho) to
    the logSNR: a lower resolution lowers the logSNR (raises sigma), so a
    low-resolution stage sees more noise at the matched corruption state;
    the final stage (rho = 1) maps every sigma to itself. Intervals are
    (low, high) sigma pairs; ``teacher_interval`` lives on the teacher's
    [0, 1] axis and ``shifted_interval`` is its image under the shift.
    """

    index: int  # 1-based
    resolution: int
    rho: float
    teacher_interval: tuple[float, float]

    def shift(self, sigma: float) -> float:
        """Sigma after the shift, in the closed form sigma / (sigma + rho (1 - sigma))
        of sigma -> logSNR + 2 ln(rho) -> sigma, which the endpoints 0 and 1
        pass through unchanged (they are fixed points of the shift)."""
        if not 0.0 <= sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
        return sigma / (sigma + self.rho * (1.0 - sigma))

    def unshift(self, sigma_shifted: float) -> float:
        """Inverse of `shift`: recover the teacher-space sigma."""
        if not 0.0 <= sigma_shifted <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {sigma_shifted}")
        return self.rho * sigma_shifted / (1.0 - sigma_shifted * (1.0 - self.rho))

    @property
    def shifted_interval(self) -> tuple[float, float]:
        lo, hi = self.teacher_interval
        return self.shift(lo), self.shift(hi)


@dataclass(frozen=True)
class TrajectoryPartition:
    stages: tuple[ResolutionStage, ...]
    flow_shift: float

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def final_resolution(self) -> int:
        return self.stages[-1].resolution

    def stage_of(self, sigma: float) -> ResolutionStage:
        """Stage owning teacher sigma.

        A sigma exactly on a boundary belongs to the earlier (higher-noise)
        stage, so Algorithm-style membership tests on the next step fire
        each transition exactly once.
        """
        if not 0.0 <= sigma <= 1.0:
            raise ValueError(f"sigma {sigma} outside [0, 1]")
        index = 1
        for stage in self.stages[:-1]:
            if sigma >= stage.teacher_interval[0]:
                break
            index += 1
        return self.stages[index - 1]


def build_partition(
    thresholds: list[float],
    resolutions: list[int],
    flow_shift: float = 1.0,
) -> TrajectoryPartition:
    """Stage layout from logSNR thresholds and per-stage resolutions.

    ``len(resolutions) == len(thresholds) + 1``; thresholds must increase
    strictly in logSNR and resolutions strictly in size from at least 1,
    and the last resolution is the teacher's. Each threshold maps to a
    boundary sigma via `logsnr_to_sigma`, and each stage's ``rho`` is
    its resolution over the last.
    """
    thresholds = [float(v) for v in thresholds]
    resolutions = [int(r) for r in resolutions]
    if len(resolutions) != len(thresholds) + 1:
        raise ValueError(
            f"need len(resolutions) == len(thresholds) + 1, got {len(resolutions)} and {len(thresholds)}"
        )
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError(f"thresholds must be strictly increasing, got {thresholds}")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError(f"resolutions must be strictly increasing, got {resolutions}")
    if resolutions[0] < 1:
        raise ValueError(f"resolutions must be at least 1, got {resolutions}")
    if not 1.0 <= flow_shift < math.inf:
        raise ValueError(f"flow shift must be finite and >= 1, got {flow_shift}")

    final_res = resolutions[-1]
    # Boundary sigmas, descending from 1 to 0: ascending logSNR thresholds
    # map to descending boundary sigmas, and threshold k sits between
    # stage k and stage k+1.
    bounds = [1.0] + [logsnr_to_sigma(v) for v in thresholds] + [0.0]
    stages = tuple(
        ResolutionStage(index=i, resolution=res, rho=res / final_res, teacher_interval=(bounds[i], bounds[i - 1]))
        for i, res in enumerate(resolutions, start=1)
    )
    return TrajectoryPartition(stages=stages, flow_shift=float(flow_shift))


@dataclass(frozen=True)
class ScheduleStep:
    """One row of an inference schedule.

    ``transition`` marks a row whose successor lies in another stage; the
    last row's successor is the sample, which lies in the final stage.
    """

    step: int
    stage: int
    resolution: int
    teacher_sigma: float
    shifted_sigma: float
    transition: bool


def inference_schedule(n_steps: int, partition: TrajectoryPartition) -> list[ScheduleStep]:
    """The N-step grid: uniform fractions, flow shift, then stage mapping.

    Step j uses fraction u_j = 1 - j/N; the teacher sigma is the
    flow-shifted fraction, and the row carries it and its
    resolution-shifted image on the owning stage.
    """
    k = partition.num_stages
    if n_steps < k:
        raise ValueError(f"need at least one step per stage: N={n_steps} < K={k}")
    sigmas = [apply_flow_shift(1.0 - j / n_steps, partition.flow_shift) for j in range(n_steps)]
    stages = [partition.stage_of(sigma) for sigma in sigmas]
    # terminal landing point: the final stage
    next_stages = [stage.index for stage in stages[1:]] + [k]
    return [
        ScheduleStep(
            step=j,
            stage=stage.index,
            resolution=stage.resolution,
            teacher_sigma=sigma,
            shifted_sigma=stage.shift(sigma),
            transition=next_stage != stage.index,
        )
        for j, (sigma, stage, next_stage) in enumerate(zip(sigmas, stages, next_stages))
    ]
