"""Rectified-flow forward process, teacher training, and Euler sampling.

The teacher is the multi-step model that distillation later compresses.
It trains in two phases that mirror a curriculum: first on the
heterogeneous low-resolution tier, then fine-tuned on the curated
high-resolution tier. One fully-convolutional parameter set serves both
resolutions, which is what makes the cross-resolution gap of the sampled
distributions observable at all.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import net as nets
from .data import ShapeDataset
from .grid import ImageGrid, SeededRng


def add_noise(x0: ImageGrid, eps: ImageGrid, sigma: float) -> ImageGrid:
    """Rectified-flow interpolation (1 - sigma) * x0 + sigma * eps."""
    if np.shape(x0) != np.shape(eps):
        raise ValueError(f"shape mismatch {np.shape(x0)} vs {np.shape(eps)}")
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
    return (1.0 - sigma) * np.asarray(x0) + sigma * np.asarray(eps)


def velocity_target(x0: ImageGrid, eps: ImageGrid) -> ImageGrid:
    return np.asarray(eps) - np.asarray(x0)


def teacher_loss(
    net: nets.DenoiserNet, x0: ImageGrid, class_id: int | None, rng: SeededRng
) -> tuple[float, np.ndarray]:
    """Flow-matching MSE at a random noise level; returns (loss, param grad)."""
    sigma = float(rng.uniform())
    eps = rng.normal(np.shape(x0))
    x_t = add_noise(x0, eps, sigma)
    target = velocity_target(x0, eps)
    pred, cache = nets.forward(net, x_t, sigma, class_id, keep_cache=True)
    resid = pred - target
    d = resid.size
    loss = float(np.mean(resid * resid))
    grads, _ = nets.backward(net, x_t, sigma, class_id, 2.0 * resid / d, cache)
    return loss, grads


@dataclass(frozen=True)
class TeacherConfig:
    channels: tuple[int, ...] = (1, 24, 24, 1)
    time_embed_dim: int = 10
    phase1_steps: int = 1200
    phase2_steps: int = 1200
    batch_size: int = 16
    lr: float = 1e-3
    clip_norm: float = 1.0
    log_every: int = 50

    def net_spec(self, n_classes: int) -> nets.NetSpec:
        return nets.NetSpec(self.channels, self.time_embed_dim, n_classes)


@dataclass
class TeacherModel:
    net: nets.DenoiserNet
    trained_resolutions: list[int]
    log: list[dict] = field(default_factory=list)


def tensor_stats(arr: np.ndarray) -> str:
    """NaN-ignoring mean/std/min/max of a tensor, for divergence messages."""
    return (
        f"mean={np.nanmean(arr):.4g} std={np.nanstd(arr):.4g} "
        f"min={np.nanmin(arr):.4g} max={np.nanmax(arr):.4g}"
    )


def _run_phase(
    model: TeacherModel,
    opt: nets.AdamW,
    images: np.ndarray,
    classes: np.ndarray,
    steps: int,
    batch_size: int,
    phase: str,
    log_every: int,
    rng: SeededRng,
) -> None:
    n = len(images)
    for step in range(steps):
        idx = rng.choice(n, size=min(batch_size, n), replace=True)
        grads = np.zeros_like(model.net.params)
        loss_sum = 0.0
        for k, i in enumerate(idx):
            sample_rng = rng.derive(f"{phase}:{step}:{k}")
            loss, g = teacher_loss(model.net, images[i], int(classes[i]), sample_rng)
            grads += g
            loss_sum += loss
        grads /= len(idx)
        loss_mean = loss_sum / len(idx)
        if not np.isfinite(loss_mean):
            raise RuntimeError(
                f"teacher training diverged at {phase} step {step}: "
                f"loss {loss_mean}, images {tensor_stats(images[idx])}"
            )
        model.net.params, _ = opt.step(model.net.params, grads)
        if step % log_every == 0 or step == steps - 1:
            model.log.append({"phase": phase, "step": step, "loss": loss_mean})


def train_teacher(dataset: ShapeDataset, config: TeacherConfig, rng: SeededRng) -> TeacherModel:
    """Curriculum training: low-tier phase, then high-tier fine-tune."""
    spec = config.net_spec(dataset.config.n_classes)
    params = nets.init_params(spec, rng.derive("teacher-init"))
    model = TeacherModel(net=nets.DenoiserNet(spec, params), trained_resolutions=[])
    opt = nets.AdamW(lr=config.lr, clip_norm=config.clip_norm)
    if config.phase1_steps > 0:
        _run_phase(
            model, opt, dataset.low_images, dataset.low_classes,
            config.phase1_steps, config.batch_size, "low", config.log_every,
            rng.derive("teacher-phase1"),
        )
        model.trained_resolutions.append(dataset.config.low_res)
    if config.phase2_steps > 0:
        _run_phase(
            model, opt, dataset.high_images, dataset.high_classes,
            config.phase2_steps, config.batch_size, "high", config.log_every,
            rng.derive("teacher-phase2"),
        )
        model.trained_resolutions.append(dataset.config.high_res)
    return model


def uniform_sigma_schedule(steps: int) -> np.ndarray:
    """Uniform-in-sigma grid from 1 to 0 inclusive (steps + 1 knots)."""
    if steps < 1:
        raise ValueError("need at least one step")
    return np.linspace(1.0, 0.0, steps + 1)


def euler_sample(
    net: nets.DenoiserNet,
    class_id: int | None,
    res: int,
    steps: int,
    rng: SeededRng,
) -> ImageGrid:
    """Plain Euler ODE sampling at a single resolution.

    x <- x - (sigma_j - sigma_{j+1}) * v(x, sigma_j), starting from pure
    noise at sigma = 1 and ending exactly at sigma = 0.
    """
    sched = uniform_sigma_schedule(steps)
    x = rng.normal((net.spec.channels[0], res, res))
    for j in range(len(sched) - 1):
        v = nets.forward(net, x, float(sched[j]), class_id)
        x = x - (sched[j] - sched[j + 1]) * v
    return x
