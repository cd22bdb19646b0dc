"""Procedural two-resolution shape dataset.

The high tier holds clean anti-aliased renders of three shape classes
(disc, rectangle, cross) at the target resolution. The low tier renders
the same shape family at half resolution and corrupts it: per-sample
Gaussian pixel noise, optional blur, and a systematic intensity deficit
with per-sample jitter. That deficit plus the corruption is the
controlled low/high distribution gap that the rest of the pipeline
trains against and measures.

Poses live in unit coordinates so the same pose renders consistently at
any resolution. Dataset files are a text ``key = value`` manifest header
followed by fixed-size binary records per tier, laid out by
`record_dtype` (class byte, tier byte, jitter float64, raster float64s).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import ImageGrid, SeededRng

CLASS_NAMES = ("disc", "rectangle", "cross")
CLASS_DISC, CLASS_RECT, CLASS_CROSS = 0, 1, 2
TIER_LOW, TIER_HIGH = 0, 1
_HEADER_END = "---\n"

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
        if self.high_res % self.low_res:
            raise ValueError("data.high_res must be a multiple of data.low_res")
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


@dataclass
class ShapeSample:
    image: ImageGrid
    class_id: int
    quality_jitter: float


def _make_sample(cfg: DataConfig, class_id: int, tier: int, rng: SeededRng) -> ShapeSample:
    pose = sample_pose(cfg, rng)
    if tier == TIER_HIGH:
        img = render_shape(class_id, pose, cfg.high_res, cfg.supersample)
        return ShapeSample(img, class_id, 0.0)
    # Low tier: dim systematically, jitter, optionally blur, add pixel noise.
    jitter = float(rng.uniform(-cfg.intensity_jitter, cfg.intensity_jitter))
    intensity = float(np.clip(pose.intensity - cfg.intensity_shift + jitter, 0.05, 1.0))
    pose = Pose(pose.center, pose.size, intensity)
    img = render_shape(class_id, pose, cfg.low_res, cfg.supersample)
    if float(rng.uniform()) < cfg.blur_prob:
        img = _blur3(img)
    noise_std = float(rng.uniform(0.0, cfg.noise_std_max))
    img = img + noise_std * rng.normal(img.shape)
    return ShapeSample(img, class_id, noise_std)


@dataclass
class ShapeDataset:
    config: DataConfig
    seed: int
    low_images: np.ndarray  # (N, 1, low_res, low_res)
    low_classes: np.ndarray
    low_jitter: np.ndarray
    high_images: np.ndarray  # (N, 1, high_res, high_res)
    high_classes: np.ndarray


@dataclass
class DatasetManifest:
    fields: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"{k} = {v}" for k, v in self.fields.items()]
        return "\n".join(lines) + "\n" + _HEADER_END


def generate_samples(cfg: DataConfig, rng: SeededRng) -> ShapeDataset:
    """Materialize both tiers in memory; per-sample streams derive from the root."""
    cfg.validate()
    low, high = [], []
    for tier, count, bucket in (
        (TIER_LOW, cfg.n_per_class_low, low),
        (TIER_HIGH, cfg.n_per_class_high, high),
    ):
        for class_id in range(cfg.n_classes):
            for i in range(count):
                sub = rng.derive(f"sample:{tier}:{class_id}:{i}")
                bucket.append(_make_sample(cfg, class_id, tier, sub))
    return ShapeDataset(
        config=cfg,
        seed=rng.seed,
        low_images=np.stack([s.image for s in low]),
        low_classes=np.array([s.class_id for s in low], dtype=np.int64),
        low_jitter=np.array([s.quality_jitter for s in low]),
        high_images=np.stack([s.image for s in high]),
        high_classes=np.array([s.class_id for s in high], dtype=np.int64),
    )


def record_dtype(res: int) -> np.dtype:
    """The fixed-size record of one res x res sample in a dataset file."""
    return np.dtype(
        [("class_id", "u1"), ("tier", "u1"), ("jitter", "<f8"), ("image", "<f8", (1, res, res))]
    )


def _records(classes: np.ndarray, tier: int, jitter, images: np.ndarray) -> np.ndarray:
    records = np.zeros(len(classes), record_dtype(images.shape[-1]))
    records["class_id"] = classes
    records["tier"] = tier
    records["jitter"] = jitter
    records["image"] = images
    return records


def gen_dataset(cfg: DataConfig, rng: SeededRng, path) -> DatasetManifest:
    """Generate and write the dataset file; byte-identical given the seed."""
    ds = generate_samples(cfg, rng)
    low_record = record_dtype(cfg.low_res).itemsize
    high_record = record_dtype(cfg.high_res).itemsize
    n_low = len(ds.low_classes)
    n_high = len(ds.high_classes)
    manifest = DatasetManifest(
        {
            "format": "crossres-shapes-v1",
            "seed": ds.seed,
            "n_classes": cfg.n_classes,
            "low_res": cfg.low_res,
            "high_res": cfg.high_res,
            "n_low": n_low,
            "n_high": n_high,
            "low_record_bytes": low_record,
            "high_record_bytes": high_record,
            "noise_std_max": cfg.noise_std_max,
            "blur_prob": cfg.blur_prob,
            "intensity_shift": cfg.intensity_shift,
            "intensity_jitter": cfg.intensity_jitter,
        }
    )
    # Offsets appear inside the header, so iterate to a fixed point
    # (the digit count can grow once and then stabilizes).
    manifest.fields["low_offset"] = 0
    manifest.fields["high_offset"] = 0
    for _ in range(5):
        lo = len(manifest.to_text().encode())
        hi = lo + n_low * low_record
        if (manifest.fields["low_offset"], manifest.fields["high_offset"]) == (lo, hi):
            break
        manifest.fields["low_offset"] = lo
        manifest.fields["high_offset"] = hi
    final_header = manifest.to_text().encode()

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(final_header)
        f.write(_records(ds.low_classes, TIER_LOW, ds.low_jitter, ds.low_images).tobytes())
        f.write(_records(ds.high_classes, TIER_HIGH, 0.0, ds.high_images).tobytes())
    return manifest


def load_dataset(path) -> ShapeDataset:
    """Read a `gen_dataset` file; rejects foreign, truncated or padded files."""
    raw = Path(path).read_bytes()
    header_len = raw.find(_HEADER_END.encode())
    if header_len < 0:
        raise ValueError(f"{path}: not a crossres dataset (no header end marker)")
    fields: dict = {}
    for line in raw[:header_len].decode(errors="replace").strip().splitlines():
        key, _, value = line.partition(" = ")
        fields[key.strip()] = value.strip()
    if fields.get("format") != "crossres-shapes-v1":
        raise ValueError(f"{path}: unrecognized dataset format {fields.get('format')!r}")
    try:
        expected = int(fields["high_offset"]) + int(fields["n_high"]) * int(fields["high_record_bytes"])
        if len(raw) != expected:
            raise ValueError(f"expected {expected} bytes from the header, found {len(raw)}")
        low_res = int(fields["low_res"])
        high_res = int(fields["high_res"])
        n_low = int(fields["n_low"])
        n_high = int(fields["n_high"])
        n_classes = int(fields["n_classes"])
        if n_classes < 1:
            raise ValueError(f"the header declares {n_classes} classes")
        cfg = DataConfig(
            n_per_class_low=max(1, n_low // n_classes),
            n_per_class_high=max(1, n_high // n_classes),
            n_classes=n_classes,
            low_res=low_res,
            high_res=high_res,
            noise_std_max=float(fields["noise_std_max"]),
            blur_prob=float(fields["blur_prob"]),
            intensity_shift=float(fields["intensity_shift"]),
            intensity_jitter=float(fields["intensity_jitter"]),
        )

        def read_tier(offset: int, count: int, res: int):
            records = np.frombuffer(raw, record_dtype(res), count=count, offset=offset)
            return (records["image"].astype(np.float64), records["class_id"].astype(np.int64),
                    records["jitter"].astype(np.float64))

        low_images, low_classes, low_jitter = read_tier(int(fields["low_offset"]), n_low, low_res)
        high_images, high_classes, _ = read_tier(int(fields["high_offset"]), n_high, high_res)
        seed = int(fields["seed"])
    except KeyError as err:
        raise ValueError(f"{path}: dataset header has no {err} entry") from err
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    return ShapeDataset(
        config=cfg,
        seed=seed,
        low_images=low_images,
        low_classes=low_classes,
        low_jitter=low_jitter,
        high_images=high_images,
        high_classes=high_classes,
    )
