"""Procedural two-resolution shape dataset.

The high tier holds clean anti-aliased renders of three shape classes
(disc, rectangle, cross) at the target resolution. The low tier renders
the same shape family at half resolution and corrupts it: per-sample
Gaussian pixel noise, optional blur, and a systematic intensity deficit
with per-sample jitter. That deficit plus the corruption is the
controlled low/high distribution gap that the rest of the pipeline
trains against and measures.

Poses live in unit coordinates so the same pose renders consistently at
any resolution. A dataset file is a `grid.write_framed` file (magic
``XRDS``): its JSON header records the full `DataConfig`, the seed and the
two tiers' sample counts; its payload is the class id byte of every low-
then high-tier sample, then the low- and high-tier rasters as little-endian
float64. Every size and offset follows from the counts and the recorded
resolutions.
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
DATASET_VERSION = 2  # version 1 was a text-header format

# Fixed aspect constants of the shape family (relative to the pose size).
_RECT_ASPECT = 0.6
_CROSS_BAR = 0.35


@dataclass(frozen=True)
class DataConfig:
    n_per_class_low: int = 96
    n_per_class_high: int = 96
    n_classes: int = 3
    low_res: int = 8
    high_res: int = 16
    noise_std_max: float = 0.15
    blur_prob: float = 0.5
    intensity_shift: float = 0.15
    intensity_jitter: float = 0.2
    size_lo: float = 0.2
    size_hi: float = 0.38
    center_lo: float = 0.4
    center_hi: float = 0.6
    intensity_lo: float = 0.5
    intensity_hi: float = 1.0
    supersample: int = 4

    def validate(self) -> None:
        for key in ("n_per_class_low", "n_per_class_high", "low_res", "supersample"):
            if getattr(self, key) < 1:
                raise ValueError(f"data.{key} must be at least 1, got {getattr(self, key)}")
        if not 0.0 <= self.noise_std_max <= 1.0:
            raise ValueError(f"data.noise_std_max must lie in [0, 1], got {self.noise_std_max}")
        if not 0.0 <= self.blur_prob <= 1.0:
            raise ValueError(f"data.blur_prob must lie in [0, 1], got {self.blur_prob}")
        if self.intensity_jitter < 0:
            raise ValueError(f"data.intensity_jitter must be >= 0, got {self.intensity_jitter}")
        if self.high_res < 1 or self.high_res % self.low_res:
            raise ValueError(f"data.high_res must be a positive multiple of data.low_res, got {self.high_res}")
        if not 1 <= self.n_classes <= len(CLASS_NAMES):
            raise ValueError(f"data.n_classes must lie in [1, {len(CLASS_NAMES)}]")
        # every pose must render at both resolutions (see `render_shape`)
        if not 0.0 < self.size_lo <= self.size_hi:
            raise ValueError(f"data.size_lo must lie in (0, data.size_hi = {self.size_hi}], got {self.size_lo}")
        if not self.size_lo * self.low_res > 1.0:
            raise ValueError(f"data.size_lo must span more than 1 px at data.low_res = {self.low_res}, "
                             f"got {self.size_lo}")
        if not self.center_lo <= self.center_hi:
            raise ValueError(f"data.center_lo must be <= data.center_hi = {self.center_hi}, got {self.center_lo}")
        if not self.center_lo - self.size_hi >= 0.0 or not self.center_hi + self.size_hi <= 1.0:
            raise ValueError(f"data.center_lo - data.size_hi >= 0 and data.center_hi + data.size_hi <= 1 "
                             f"keep poses on the unit canvas, got {self.center_lo}, {self.center_hi}, {self.size_hi}")
        if not self.intensity_lo <= self.intensity_hi:
            raise ValueError(f"data.intensity_lo must be <= data.intensity_hi, got {self.intensity_lo} > "
                             f"{self.intensity_hi}")


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


def render_shape(class_id: int, pose: Pose, res: int, supersample: int = 4) -> ImageGrid:
    """Deterministic anti-aliased render on a res x res canvas.

    Anti-aliasing is by supersampling: each pixel averages a supersample^2
    grid of coverage tests, so the value is the shape's coverage fraction
    times the pose intensity.
    """
    if pose.size * res <= 1.0:
        raise ValueError(f"degenerate size: {pose.size} spans <= 1 px at res {res}")
    cy, cx = pose.center
    if min(cy, cx) - pose.size < -1e-9 or max(cy, cx) + pose.size > 1.0 + 1e-9:
        raise ValueError(f"pose {pose} reaches outside the unit canvas")
    ss = supersample
    sub = (np.arange(res * ss) + 0.5) / (res * ss)
    ys, xs = np.meshgrid(sub, sub, indexing="ij")
    mask = _coverage(class_id, pose, ys, xs).astype(np.float64)
    coverage = mask.reshape(res, ss, res, ss).mean(axis=(1, 3))
    return pose.intensity * coverage[None]


def sample_pose(cfg: DataConfig, rng: SeededRng) -> Pose:
    cy = float(rng.uniform(cfg.center_lo, cfg.center_hi))
    cx = float(rng.uniform(cfg.center_lo, cfg.center_hi))
    size = float(rng.uniform(cfg.size_lo, cfg.size_hi))
    intensity = float(rng.uniform(cfg.intensity_lo, cfg.intensity_hi))
    return Pose(center=(cy, cx), size=size, intensity=intensity)


def _blur3(img: ImageGrid) -> ImageGrid:
    """Separable [1, 2, 1]/4 blur with edge replication."""
    pad = np.pad(img, ((0, 0), (1, 1), (1, 1)), mode="edge")
    tmp = 0.25 * pad[:, :-2, :] + 0.5 * pad[:, 1:-1, :] + 0.25 * pad[:, 2:, :]
    return 0.25 * tmp[:, :, :-2] + 0.5 * tmp[:, :, 1:-1] + 0.25 * tmp[:, :, 2:]


def _make_image(cfg: DataConfig, class_id: int, tier: int, rng: SeededRng) -> ImageGrid:
    pose = sample_pose(cfg, rng)
    if tier == TIER_HIGH:
        return render_shape(class_id, pose, cfg.high_res, cfg.supersample)
    # Low tier: dim systematically, jitter, optionally blur, add pixel noise.
    jitter = float(rng.uniform(-cfg.intensity_jitter, cfg.intensity_jitter))
    intensity = float(np.clip(pose.intensity - cfg.intensity_shift + jitter, 0.05, 1.0))
    pose = Pose(pose.center, pose.size, intensity)
    img = render_shape(class_id, pose, cfg.low_res, cfg.supersample)
    if float(rng.uniform()) < cfg.blur_prob:
        img = _blur3(img)
    noise_std = float(rng.uniform(0.0, cfg.noise_std_max))
    return img + noise_std * rng.normal(img.shape)


@dataclass
class ShapeDataset:
    config: DataConfig
    seed: int
    low_images: np.ndarray  # (N, 1, low_res, low_res)
    low_classes: np.ndarray
    high_images: np.ndarray  # (N, 1, high_res, high_res)
    high_classes: np.ndarray


def _tier(cfg: DataConfig, tier: int, count: int, rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """(images, class ids) of one tier, class-major; per-sample streams derive from rng."""
    images = [
        _make_image(cfg, class_id, tier, rng.derive(f"sample:{tier}:{class_id}:{i}"))
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
    header = {"data": asdict(cfg), "seed": ds.seed, "n_low": len(ds.low_classes), "n_high": len(ds.high_classes)}
    payload = b"".join((
        np.concatenate([ds.low_classes, ds.high_classes]).astype("u1").tobytes(),
        ds.low_images.astype("<f8").tobytes(),
        ds.high_images.astype("<f8").tobytes(),
    ))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_framed(path, DATASET_MAGIC, DATASET_VERSION, header, payload)


def _recorded(header: dict) -> tuple[DataConfig, int, int, int]:
    """(config, seed, n_low, n_high) of a dataset header; checks the config
    and that the counts are the config's."""
    cfg = DataConfig(**header["data"])
    cfg.validate()
    n_low, n_high = int(header["n_low"]), int(header["n_high"])
    per_config = (cfg.n_per_class_low * cfg.n_classes, cfg.n_per_class_high * cfg.n_classes)
    if (n_low, n_high) != per_config:
        raise ValueError(f"(n_low, n_high) = {(n_low, n_high)} but the recorded config gives {per_config}")
    return cfg, int(header["seed"]), n_low, n_high


def _payload_bytes(header: dict) -> int:
    """Both tiers' class bytes, then both tiers' float64 rasters."""
    cfg, _, n_low, n_high = _recorded(header)
    return n_low + n_high + 8 * (n_low * cfg.low_res**2 + n_high * cfg.high_res**2)


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
    low_px = n_low * cfg.low_res**2
    return ShapeDataset(
        config=cfg,
        seed=seed,
        low_images=images[:low_px].reshape(n_low, 1, cfg.low_res, cfg.low_res),
        low_classes=classes[:n_low],
        high_images=images[low_px:].reshape(n_high, 1, cfg.high_res, cfg.high_res),
        high_classes=classes[n_low:],
    )
