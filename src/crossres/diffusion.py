"""Rectified-flow forward process, teacher training, and the many-step
reference sampler.

The teacher is the multi-step model that distillation later compresses.
It trains in two phases that mirror a curriculum: first on the
heterogeneous low-resolution tier, then fine-tuned on the curated
high-resolution tier. One fully-convolutional parameter set serves both
resolutions, which is what makes the cross-resolution gap of the sampled
distributions observable at all.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import net as nets
from .cascade import run_cascade, schedule_trace
from .data import ShapeDataset
from .grid import ImageGrid, SeededRng, write_csv
from .schedule import build_partition


def add_noise(x0: ImageGrid, eps: ImageGrid, sigma) -> ImageGrid:
    """Rectified-flow interpolation (1 - sigma) * x0 + sigma * eps; sigma
    may be an array that broadcasts against x0, e.g. one per image."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if not np.all((sigma >= 0.0) & (sigma <= 1.0)):
        raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
    return (1.0 - sigma) * np.asarray(x0) + sigma * np.asarray(eps)


def teacher_loss(
    net: nets.DenoiserNet,
    x0: np.ndarray,
    class_ids: Sequence[int | None],
    rngs: Sequence[SeededRng],
) -> tuple[float, np.ndarray]:
    """Flow-matching MSE of a batch x0 (N, C, H, W), each image at its own
    random noise level; returns the batch means of the loss and of its
    parameter gradient. Image i draws its sigma, then its noise, from rngs[i].
    """
    draws = [(float(rng.uniform()), rng.normal(x0.shape[1:])) for rng in rngs]
    sigma = np.array([s for s, _ in draws])
    eps = np.stack([e for _, e in draws])
    x_t = add_noise(x0, eps, sigma[:, None, None, None])
    target = eps - x0  # the rectified-flow velocity
    scale = 1.0 / target.size  # the mean over images of per-image means

    def loss_of(sl, pred):
        resid = pred - target[sl]
        return float(np.sum(resid * resid)) * scale, 2.0 * scale * resid

    return nets.loss_and_grad(net, x_t, sigma, class_ids, loss_of)


@dataclass(frozen=True)
class TeacherConfig:
    channels: tuple[int, ...] = (1, 24, 24, 1)
    time_embed_dim: int = 10
    phase1_steps: int = 1500
    phase2_steps: int = 1500
    batch_size: int = 16
    lr: float = 1e-3
    clip_norm: float = 1.0

    def validate(self) -> None:
        for key, least in (("phase1_steps", 0), ("phase2_steps", 0), ("batch_size", 1)):
            if getattr(self, key) < least:
                raise ValueError(f"teacher.{key} must be at least {least}, got {getattr(self, key)}")
        for key in ("lr", "clip_norm"):
            if not 0.0 < getattr(self, key) < np.inf:
                raise ValueError(f"teacher.{key} must be positive and finite, got {getattr(self, key)}")
        try:
            self.net_spec(0)
            if self.channels[0] != 1 or self.channels[-1] != 1:
                raise ValueError("the first and last widths must be 1, the dataset's one channel")
        except ValueError as err:
            raise ValueError(f"teacher.channels = {self.channels}, teacher.time_embed_dim = "
                             f"{self.time_embed_dim}: {err}") from None

    def net_spec(self, n_classes: int) -> nets.NetSpec:
        return nets.NetSpec(self.channels, self.time_embed_dim, n_classes)


@dataclass
class TeacherModel:
    net: nets.DenoiserNet
    trained_resolutions: list[int] = field(default_factory=list)  # empty when loaded
    opt: nets.AdamW | None = None  # the optimizer that trained it; None when loaded


@dataclass
class TeacherStepRecord:
    phase: str
    step: int
    loss: float


def tensor_stats(arr: np.ndarray) -> str:
    """Mean/std/min/max over a tensor's finite entries, and its count of
    non-finite entries, for divergence messages. The mean and std are taken
    of the entries over their largest magnitude, so they do not overflow
    near the largest float."""
    finite = arr[np.isfinite(arr)]
    count = f"nonfinite={arr.size - finite.size}/{arr.size}"
    if finite.size == 0:
        return count
    scale = np.abs(finite).max() or 1.0
    unit = finite / scale
    return (
        f"mean={unit.mean() * scale:.4g} std={unit.std() * scale:.4g} "
        f"min={finite.min():.4g} max={finite.max():.4g} {count}"
    )


def abort_if_bad(value, what: str, where: str, ref: np.ndarray) -> None:
    """The divergence check of both trainings: a `value`, a loss or the
    parameters an optimizer update made, with a non-finite entry raises a
    RuntimeError naming `what`, `where` and the statistics of `ref`."""
    if not np.isfinite(value).all():
        shown = f"{value}; " if np.ndim(value) == 0 else ""
        raise RuntimeError(f"non-finite {what} at {where}: {shown}tensor stats {tensor_stats(ref)}")


def training_loop(record_type: type, steps: Iterator, log_path=None) -> list:
    """The loop of both trainings: `steps` runs one update per record it
    yields. Returns the records; with `log_path`, each is a row of that CSV
    (header: `record_type`'s fields), written as its step finishes. numpy's
    overflow warnings are silenced: `abort_if_bad` names a divergence."""
    records = []

    def rows():
        for record in steps:
            records.append(record)
            yield astuple(record)

    with np.errstate(over="ignore", invalid="ignore"):
        if log_path is None:
            return list(steps)
        write_csv(log_path, [f.name for f in fields(record_type)], rows())
    return records


def train_teacher(
    dataset: ShapeDataset,
    config: TeacherConfig,
    rng: SeededRng,
    log_path=None,
) -> tuple[TeacherModel, list[TeacherStepRecord]]:
    """Curriculum training: low-tier phase, then high-tier fine-tune; each
    phase trains at the resolution of its tier's rasters. Every step
    yields a record; with `log_path`, each is a CSV row (`training_loop`)."""
    spec = config.net_spec(dataset.config.n_classes)
    params = nets.init_params(spec, rng.derive("teacher-init"))
    opt = nets.AdamW(lr=config.lr, clip_norm=config.clip_norm)
    model = TeacherModel(net=nets.DenoiserNet(spec, params), opt=opt)
    phases = (
        ("low", dataset.low_images, dataset.low_classes, config.phase1_steps, "teacher-phase1"),
        ("high", dataset.high_images, dataset.high_classes, config.phase2_steps, "teacher-phase2"),
    )

    def steps():
        for phase, images, classes, n_steps, label in phases:
            if n_steps == 0:
                continue
            phase_rng = rng.derive(label)
            for step in range(n_steps):
                idx = phase_rng.choice(len(images), size=min(config.batch_size, len(images)), replace=True)
                sample_rngs = [phase_rng.derive(f"{phase}:{step}:{k}") for k in range(len(idx))]
                loss, grads = teacher_loss(model.net, images[idx], [int(c) for c in classes[idx]], sample_rngs)
                where = f"step {step} phase {phase}"
                abort_if_bad(loss, "teacher loss", where, model.net.params)
                model.net.params, _ = opt.step(model.net.params, grads)
                abort_if_bad(model.net.params, "parameters after the teacher update", where, model.net.params)
                yield TeacherStepRecord(phase, step, loss)
            model.trained_resolutions.append(images.shape[-1])

    return model, training_loop(TeacherStepRecord, steps(), log_path)


def euler_sample(
    net: nets.DenoiserNet,
    class_ids: Sequence[int | None],
    res: int,
    steps: int,
    seeds: Sequence[int],
) -> np.ndarray:
    """Many-step Euler sampling of a batch at a single resolution: the
    one-stage cascade, whose flow shift is 1, so its `steps` Euler steps
    run down a uniform sigma grid from 1 to 0. Image i draws its noise
    from SeededRng(seeds[i]). Returns (N, C, res, res).
    """
    trace = schedule_trace(build_partition([], [res]), steps)
    return run_cascade(net, trace, 1.0, class_ids, seeds).final
