"""Multi-resolution cascaded few-step inference.

One state machine drives both user-facing sampling and the recorded
trajectories that distillation differentiates through. Within a stage the
sampler takes Euler steps at the stage's shifted noise levels; when the
next noise level belongs to the following stage it takes a transition: it
recovers the clean estimate, upsamples it, and re-injects noise at the
next shifted level.

The re-injected noise is a mix of the model-implied noise (the clean
estimate plus the predicted velocity, which continues the current
trajectory) and a fresh Gaussian draw, weighted alpha / sqrt(1 - alpha^2).
With alpha = 0 the transition is a pure stochastic re-noising; with
alpha = 1 it continues the trajectory exactly.

Every step is a `StepTape` record: `step_forward` runs it and `step_vjp`
differentiates it. Distillation's projection into the teacher space is
one more transition record, taken to the final resolution at the drawn
teacher noise level.

A batch of cascades is one validated trace (`schedule_trace`, the
schedule's rows) and one alpha_inference with one (class id, seed) per
sample: the states (N, C, H, W) run in lock-step through one net call per
step, while each sample draws its noise from its own seeded stream.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import net as nets
from .grid import ImageGrid, SeededRng, bilinear_upsample, bilinear_upsample_t, write_csv
from .schedule import ScheduleStep, TrajectoryPartition, inference_schedule

__all__ = [
    "CascadeParams",
    "CascadeError",
    "InferenceTrace",
    "StepTape",
    "CascadeRun",
    "mix_noise",
    "step_forward",
    "step_vjp",
    "schedule_trace",
    "run_cascade",
    "infer",
]


class CascadeError(RuntimeError):
    """Schedule/partition inconsistency detected while running the cascade."""


def mix_noise(predicted: ImageGrid, gaussian: ImageGrid, alpha: float) -> ImageGrid:
    """alpha * predicted + sqrt(1 - alpha^2) * gaussian.

    The weights satisfy alpha^2 + beta^2 = 1, so two independent
    unit-variance inputs mix to unit variance.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    beta = np.sqrt(1.0 - alpha * alpha)
    return alpha * np.asarray(predicted) + beta * np.asarray(gaussian)


@dataclass(frozen=True)
class CascadeParams:
    partition: TrajectoryPartition
    n_steps: int
    alpha_inference: float = 1.0
    class_id: int | None = None
    seed: int = 0


@dataclass
class InferenceTrace:
    records: list[ScheduleStep]

    def transitions(self) -> int:
        return sum(r.transition for r in self.records)

    def validate(self, partition: TrajectoryPartition) -> None:
        """The trace invariants, each stated once: the steps visit stages
        1..K in order, one stage at a time, each at least once; each step
        runs at its stage's resolution; a step is a transition exactly when
        the next step (after the last, the sample, in stage K) is in another
        stage; and the teacher sigma falls strictly."""
        k = partition.num_stages
        stages = [r.stage for r in self.records]
        steps_ok = all(b in (a, a + 1) for a, b in zip(stages, stages[1:]))
        if stages[:1] != [1] or stages[-1] != k or not steps_ok:
            raise CascadeError(
                f"schedule visits stages {stages}; the cascade must visit each of 1..{k} in order, "
                "one stage at a time, with at least one step each"
            )
        for r, next_stage in zip(self.records, stages[1:] + [k]):
            if r.resolution != partition.stages[r.stage - 1].resolution:
                raise CascadeError(f"step {r.step} runs at {r.resolution} px, not at stage {r.stage}'s "
                                   f"{partition.stages[r.stage - 1].resolution} px")
            if r.transition != (next_stage != r.stage):
                raise CascadeError(f"step {r.step} has transition = {r.transition} but goes from "
                                   f"stage {r.stage} to stage {next_stage}")
        sigmas = [r.teacher_sigma for r in self.records]
        if any(b >= a for a, b in zip(sigmas, sigmas[1:])):
            raise CascadeError(f"teacher sigma must fall strictly along the trace, got {sigmas}")

    def write_csv(self, path) -> None:
        """One row per step, `ScheduleStep`'s fields as the columns."""
        write_csv(path, [f.name for f in fields(ScheduleStep)], (astuple(r) for r in self.records))


@dataclass
class StepTape:
    """One step of a batch: what `step_forward` runs and `step_vjp` reads."""

    x_in: np.ndarray  # states before the step (the recorded cascade states)
    sigma_in: float  # sigma conditioning the prediction
    sigma_next: float  # sigma of the successor state
    alpha: float | None  # noise-mix weight of a transition; None for an Euler step


@dataclass
class CascadeRun:
    """A batch of cascades' final states (the samples, or the states where
    a cut-short run stopped), their shared trace and their tape. `final` is
    None for a plan: the trace of a cascade not run."""

    final: np.ndarray | None
    trace: InferenceTrace
    tape: list[StepTape] = field(default_factory=list)


def step_forward(
    net: nets.DenoiserNet,
    tape: StepTape,
    class_ids: Sequence[int | None],
    res: int,
    rngs: Sequence[SeededRng],
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run one step of a batch of states (N, C, H, W); returns (x_next,
    U(x0_hat)) for a transition and (x_next, None) for an Euler step.

    An Euler step moves x to sigma_next along the predicted velocity v. A
    transition denoises, upsamples to `res` and re-noises at sigma_next:
    x_next = (1 - s) U(x0_hat) + s mix_noise(U(x0_hat + v), eps, alpha)
    with x0_hat = x - sigma * v, s = sigma_next and one fresh Gaussian eps
    per image, drawn from that image's rng.
    """
    x, sigma, sigma_next = tape.x_in, tape.sigma_in, tape.sigma_next
    v = nets.forward(net, x, sigma, class_ids)
    if tape.alpha is None:
        return x - (sigma - sigma_next) * v, None
    x0_hat = x - sigma * v
    clean_up = bilinear_upsample(x0_hat, res, res)
    # the model-implied noise x0_hat + v, written x + (1 - sigma) v
    predicted = bilinear_upsample(x + (1.0 - sigma) * v, res, res)
    eps = np.stack([rng.normal(clean_up.shape[1:]) for rng in rngs])
    x_next = (1.0 - sigma_next) * clean_up + sigma_next * mix_noise(predicted, eps, tape.alpha)
    return x_next, clean_up


def step_vjp(
    net: nets.DenoiserNet, tape: StepTape, class_ids: Sequence[int | None], d_next: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of one recorded step: (param grads summed over the batch,
    grad at tape.x_in) from the gradient at the step's output. The fresh
    noise of a transition is a constant, so it needs no record."""
    if tape.alpha is None:
        d_v = -(tape.sigma_in - tape.sigma_next) * d_next
        grads, gx = nets.backward(net, tape.x_in, tape.sigma_in, class_ids, d_v)
        return grads, d_next + gx
    src_h, src_w = tape.x_in.shape[-2:]
    sn, a = tape.sigma_next, tape.alpha
    # U is linear, so the transition's two upsampled terms share one transpose
    g = bilinear_upsample_t(d_next, src_h, src_w)
    d_x0 = ((1.0 - sn) + sn * a) * g
    d_v = sn * a * g - tape.sigma_in * d_x0
    grads, gx = nets.backward(net, tape.x_in, tape.sigma_in, class_ids, d_v)
    return grads, d_x0 + gx


def schedule_trace(partition: TrajectoryPartition, n_steps: int) -> InferenceTrace:
    """The validated trace of an n_steps cascade: the schedule's rows.

    Every step's stage, noise level, resolution and transition flag are
    fixed before any state exists, so a cascade is checked before its first forward.
    This is the one place a schedule is built; a caller builds it once and
    hands it to every `run_cascade` of the run.
    """
    trace = InferenceTrace(inference_schedule(n_steps, partition))
    trace.validate(partition)
    return trace


def run_cascade(
    net: nets.DenoiserNet,
    trace: InferenceTrace,
    alpha_inference: float,
    class_ids: Sequence[int | None],
    seeds: Sequence[int],
    keep_tape: bool = False,
    stop: int | None = None,
) -> CascadeRun:
    """Execute a batch of cascades in lock-step along `trace`, the
    validated trace from `schedule_trace`, one per (class id, seed);
    optionally keep the per-step tape.

    Sample i's noise stream is SeededRng(seeds[i]), which draws, in order:
    the base noise at the first stage's resolution, then one fresh
    Gaussian per transition. With fixed seeds the run is bitwise
    deterministic. Given `stop`, the run ends before step `stop`: `final`
    holds the states entering it and the tape the steps before it. Nothing
    is evaluated or drawn from that step on, so the states and tape equal
    those of the full run. The run carries `trace`, the full schedule's.
    """
    if len(class_ids) != len(seeds):
        raise ValueError(f"a cascade batch needs one class id per seed, got {len(class_ids)} and {len(seeds)}")
    if len(seeds) == 0:
        raise ValueError("a cascade batch needs at least one seed")
    records = trace.records
    stop = len(records) if stop is None else stop
    if not 0 <= stop <= len(records):
        raise ValueError(f"stop must lie in [0, {len(records)}], got {stop}")
    # the successor of each step; the last lands at sigma = 0
    next_sigma = [r.shifted_sigma for r in records[1:]] + [0.0]
    next_res = [r.resolution for r in records[1:]] + [records[-1].resolution]

    rngs = [SeededRng(seed) for seed in seeds]
    res0 = records[0].resolution
    x = np.stack([rng.normal((net.spec.channels[0], res0, res0)) for rng in rngs])
    tape: list[StepTape] = []
    for j, record in enumerate(records[:stop]):
        step = StepTape(x, record.shifted_sigma, next_sigma[j], alpha_inference if record.transition else None)
        x, _ = step_forward(net, step, class_ids, next_res[j], rngs)
        if keep_tape:
            tape.append(step)
    return CascadeRun(final=x, trace=trace, tape=tape)


def infer(net: nets.DenoiserNet, params: CascadeParams) -> tuple[np.ndarray, InferenceTrace]:
    """Cascaded few-step sampling of one image (C, H, W); returns the clean
    sample and its trace."""
    trace = schedule_trace(params.partition, params.n_steps)
    run = run_cascade(net, trace, params.alpha_inference, [params.class_id], [params.seed])
    return run.final[0], run.trace
