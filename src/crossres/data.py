"""Procedural two-resolution shape dataset.

The high tier holds clean anti-aliased renders of three shape classes
(disc, rectangle, cross) at the target resolution. The low tier renders
the same shape family at half resolution and corrupts it: per-sample
Gaussian pixel noise, optional blur, and a systematic intensity deficit
with per-sample jitter. That deficit plus the corruption is the
controlled low/high distribution gap that the rest of the pipeline
trains against and measures. The family and its corruption are fixed
(the constants below); a `DataConfig` sets only how many samples each
tier draws.

Poses live in unit coordinates so the same pose renders consistently at
any resolution. A dataset file is a `grid.write_framed` file (magic
``XRDS``): its JSON header records the `DataConfig` and the seed; its
payload is the class id byte of every low- then high-tier sample, then
the low- and high-tier rasters as little-endian float64. Every size and
offset follows from the recorded counts and the two tier resolutions.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .grid import ImageGrid, SeededRng, read_framed, write_framed

CLASS_NAMES = ("disc", "rectangle", "cross")
CLASS_DISC, CLASS_RECT, CLASS_CROSS = 0, 1, 2
TIER_LOW, TIER_HIGH = 0, 1  # in the per-sample stream labels
DATASET_MAGIC = b"XRDS"
DATASET_VERSION = 3  # version 1 was a text-header format; 2 recorded the shape family too

# The tiers' resolutions and the low tier's corruption.
LOW_RES, HIGH_RES = 8, 16
NOISE_STD_MAX = 0.15  # per-sample pixel noise std, drawn from [0, NOISE_STD_MAX]
BLUR_PROB = 0.5
INTENSITY_SHIFT = 0.15  # the systematic dimming
INTENSITY_JITTER = 0.2  # per-sample, drawn from [-JITTER, JITTER]

# The pose ranges (unit coordinates), chosen so every pose renders at both
# tiers (`render_shape` checks it): SIZE_RANGE[0] * LOW_RES > 1, and
# CENTER_RANGE[0] - SIZE_RANGE[1] >= 0, CENTER_RANGE[1] + SIZE_RANGE[1] <= 1.
SIZE_RANGE = (0.2, 0.38)
CENTER_RANGE = (0.4, 0.6)
INTENSITY_RANGE = (0.5, 1.0)
SUPERSAMPLE = 4  # anti-aliasing: coverage tests per pixel along each axis

# Fixed aspect constants of the shape family (relative to the pose size).
_RECT_ASPECT = 0.6
_CROSS_BAR = 0.35


@dataclass(frozen=True)
class DataConfig:
    n_per_class_low: int = 96
    n_per_class_high: int = 96
    n_classes: int = 3

    def validate(self) -> None:
        for key in ("n_per_class_low", "n_per_class_high"):
            if getattr(self, key) < 1:
                raise ValueError(f"data.{key} must be at least 1, got {getattr(self, key)}")
        if not 1 <= self.n_classes <= len(CLASS_NAMES):
            raise ValueError(f"data.n_classes must lie in [1, {len(CLASS_NAMES)}]")


@dataclass(frozen=True)
class Pose:
    center: tuple[float, float]  # (y, x) in unit coordinates
    size: float  # half-extent / radius in unit coordinates
    intensity: float


def _coverage(class_id: int, pose: Pose, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    cy, cx = pose.center
    dy = ys - cy
    dx = xs - cx
    if class_id == CLASS_DISC:
        return (dy * dy + dx * dx) <= pose.size * pose.size
    if class_id == CLASS_RECT:
        return (np.abs(dx) <= pose.size) & (np.abs(dy) <= _RECT_ASPECT * pose.size)
    if class_id == CLASS_CROSS:
        bar = _CROSS_BAR * pose.size
        horiz = (np.abs(dx) <= pose.size) & (np.abs(dy) <= bar)
        vert = (np.abs(dy) <= pose.size) & (np.abs(dx) <= bar)
        return horiz | vert
    raise ValueError(f"unknown class_id {class_id}")


def render_shape(class_id: int, pose: Pose, res: int) -> ImageGrid:
    """Deterministic anti-aliased render on a res x res canvas.

    Anti-aliasing is by supersampling: each pixel averages a SUPERSAMPLE^2
    grid of coverage tests, so the value is the shape's coverage fraction
    times the pose intensity.
    """
    if pose.size * res <= 1.0:
        raise ValueError(f"degenerate size: {pose.size} spans <= 1 px at res {res}")
    cy, cx = pose.center
    if min(cy, cx) - pose.size < -1e-9 or max(cy, cx) + pose.size > 1.0 + 1e-9:
        raise ValueError(f"pose {pose} reaches outside the unit canvas")
    ss = SUPERSAMPLE
    sub = (np.arange(res * ss) + 0.5) / (res * ss)
    ys, xs = np.meshgrid(sub, sub, indexing="ij")
    mask = _coverage(class_id, pose, ys, xs).astype(np.float64)
    coverage = mask.reshape(res, ss, res, ss).mean(axis=(1, 3))
    return pose.intensity * coverage[None]


def sample_pose(rng: SeededRng) -> Pose:
    cy = float(rng.uniform(*CENTER_RANGE))
    cx = float(rng.uniform(*CENTER_RANGE))
    size = float(rng.uniform(*SIZE_RANGE))
    intensity = float(rng.uniform(*INTENSITY_RANGE))
    return Pose(center=(cy, cx), size=size, intensity=intensity)


def _blur3(img: ImageGrid) -> ImageGrid:
    """Separable [1, 2, 1]/4 blur with edge replication."""
    pad = np.pad(img, ((0, 0), (1, 1), (1, 1)), mode="edge")
    tmp = 0.25 * pad[:, :-2, :] + 0.5 * pad[:, 1:-1, :] + 0.25 * pad[:, 2:, :]
    return 0.25 * tmp[:, :, :-2] + 0.5 * tmp[:, :, 1:-1] + 0.25 * tmp[:, :, 2:]


def _make_image(class_id: int, tier: int, rng: SeededRng) -> ImageGrid:
    pose = sample_pose(rng)
    if tier == TIER_HIGH:
        return render_shape(class_id, pose, HIGH_RES)
    # Low tier: dim systematically, jitter, optionally blur, add pixel noise.
    jitter = float(rng.uniform(-INTENSITY_JITTER, INTENSITY_JITTER))
    intensity = float(np.clip(pose.intensity - INTENSITY_SHIFT + jitter, 0.05, 1.0))
    pose = Pose(pose.center, pose.size, intensity)
    img = render_shape(class_id, pose, LOW_RES)
    if float(rng.uniform()) < BLUR_PROB:
        img = _blur3(img)
    noise_std = float(rng.uniform(0.0, NOISE_STD_MAX))
    return img + noise_std * rng.normal(img.shape)


@dataclass
class ShapeDataset:
    config: DataConfig
    seed: int
    low_images: np.ndarray  # (N, 1, LOW_RES, LOW_RES)
    low_classes: np.ndarray
    high_images: np.ndarray  # (N, 1, HIGH_RES, HIGH_RES)
    high_classes: np.ndarray


def _tier(cfg: DataConfig, tier: int, count: int, rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """(images, class ids) of one tier, class-major; per-sample streams derive from rng."""
    images = [
        _make_image(class_id, tier, rng.derive(f"sample:{tier}:{class_id}:{i}"))
        for class_id in range(cfg.n_classes)
        for i in range(count)
    ]
    return np.stack(images), np.repeat(np.arange(cfg.n_classes, dtype=np.int64), count)


def generate_samples(cfg: DataConfig, rng: SeededRng) -> ShapeDataset:
    """Materialize both tiers in memory; per-sample streams derive from the root."""
    cfg.validate()
    low_images, low_classes = _tier(cfg, TIER_LOW, cfg.n_per_class_low, rng)
    high_images, high_classes = _tier(cfg, TIER_HIGH, cfg.n_per_class_high, rng)
    return ShapeDataset(cfg, rng.seed, low_images, low_classes, high_images, high_classes)


def gen_dataset(cfg: DataConfig, rng: SeededRng, path) -> None:
    """Generate and write the dataset file; byte-identical given the seed."""
    ds = generate_samples(cfg, rng)
    payload = b"".join((
        np.concatenate([ds.low_classes, ds.high_classes]).astype("u1").tobytes(),
        ds.low_images.astype("<f8").tobytes(),
        ds.high_images.astype("<f8").tobytes(),
    ))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_framed(path, DATASET_MAGIC, DATASET_VERSION, {"data": asdict(cfg), "seed": ds.seed}, payload)


def _recorded(header: dict) -> tuple[DataConfig, int, int, int]:
    """(config, seed, n_low, n_high) of a dataset header; checks the config."""
    cfg = DataConfig(**header["data"])
    cfg.validate()
    return cfg, int(header["seed"]), cfg.n_per_class_low * cfg.n_classes, cfg.n_per_class_high * cfg.n_classes


def _payload_bytes(header: dict) -> int:
    """Both tiers' class bytes, then both tiers' float64 rasters."""
    _, _, n_low, n_high = _recorded(header)
    return n_low + n_high + 8 * (n_low * LOW_RES**2 + n_high * HIGH_RES**2)


def load_dataset(path) -> ShapeDataset:
    """Read a `gen_dataset` file; rejects foreign, truncated or padded files,
    an invalid recorded config and class ids outside it."""
    header, payload = read_framed(path, DATASET_MAGIC, DATASET_VERSION, "crossres dataset", _payload_bytes)
    cfg, seed, n_low, n_high = _recorded(header)
    classes = np.frombuffer(payload, dtype="u1", count=n_low + n_high).astype(np.int64)
    if classes.max() >= cfg.n_classes:
        bad = int(np.argmax(classes >= cfg.n_classes))
        raise ValueError(f"{path}: class id {classes[bad]} of record {bad} is not below "
                         f"data.n_classes = {cfg.n_classes}")
    images = np.frombuffer(payload, dtype="<f8", offset=n_low + n_high).astype(np.float64)
    low_px = n_low * LOW_RES**2
    return ShapeDataset(
        config=cfg,
        seed=seed,
        low_images=images[:low_px].reshape(n_low, 1, LOW_RES, LOW_RES),
        low_classes=classes[:n_low],
        high_images=images[low_px:].reshape(n_high, 1, HIGH_RES, HIGH_RES),
        high_classes=classes[n_low:],
    )
