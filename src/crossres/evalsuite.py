"""Quantitative evaluation: two-sample distances, summary statistics,
analytic cost accounting, and the report generator.

The quality metric is the unbiased squared maximum mean discrepancy with
a Gaussian kernel on flattened pixels; permutation resampling calibrates
its null scale. The cost model reproduces the speedup arithmetic of
multi-resolution schedules analytically: cost(step) ~ pixels^gamma, with
gamma = 1 for linear token scaling and gamma = 2 for quadratic attention.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import net as nets
from .cascade import InferenceTrace, run_cascade, schedule_trace
from .data import ShapeDataset
from .diffusion import euler_sample
from .grid import SeededRng, write_csv, write_pgm
from .schedule import TrajectoryPartition


@dataclass
class SampleSet:
    """Homogeneous stack of images plus a provenance tag."""

    images: np.ndarray  # (N, C, H, W)
    tag: str

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float64)
        if self.images.ndim != 4:
            raise ValueError(f"{self.tag}: expected (N, C, H, W), got {self.images.shape}")

    def flat(self) -> np.ndarray:
        return self.images.reshape(len(self.images), -1)

    def __len__(self) -> int:
        return len(self.images)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def median_bandwidth(a: np.ndarray, b: np.ndarray) -> float:
    """Median pairwise distance over the pooled samples (the usual heuristic)."""
    pooled = np.concatenate([np.asarray(a).reshape(len(a), -1), np.asarray(b).reshape(len(b), -1)])
    d = np.sqrt(_sq_dists(pooled, pooled))
    off_diag = d[~np.eye(len(pooled), dtype=bool)]
    bw = float(np.median(off_diag))
    return bw if bw > 0 else 1.0


def mmd_rbf(a: SampleSet, b: SampleSet, bandwidth: float) -> float:
    """Unbiased squared MMD estimate with a Gaussian kernel.

    The unbiased estimator can be slightly negative on same-distribution
    inputs; callers that need a scale should calibrate with
    `permutation_null`.
    """
    if len(a) < 2 or len(b) < 2:
        raise ValueError("MMD needs at least two samples on each side")
    xa, xb = a.flat(), b.flat()
    if xa.shape[1] != xb.shape[1]:
        raise ValueError(f"sample dimensions differ: {xa.shape[1]} vs {xb.shape[1]}")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    gamma = 1.0 / (2.0 * bandwidth * bandwidth)
    kaa = np.exp(-gamma * _sq_dists(xa, xa))
    kbb = np.exp(-gamma * _sq_dists(xb, xb))
    kab = np.exp(-gamma * _sq_dists(xa, xb))
    m, n = len(xa), len(xb)
    term_a = (kaa.sum() - np.trace(kaa)) / (m * (m - 1))
    term_b = (kbb.sum() - np.trace(kbb)) / (n * (n - 1))
    term_ab = 2.0 * kab.mean()
    return float(term_a + term_b - term_ab)


def permutation_null(
    a: SampleSet, b: SampleSet, n_perm: int, rng: SeededRng, bandwidth: float
) -> np.ndarray:
    """MMD^2 values under pooled label permutations: the estimator's null."""
    xa, xb = a.flat(), b.flat()
    pooled = np.concatenate([xa, xb])
    m = len(xa)
    out = np.zeros(n_perm)
    for k in range(n_perm):
        perm = rng.choice(len(pooled), size=len(pooled))
        pa = SampleSet(pooled[perm[:m]].reshape(m, *a.images.shape[1:]), "perm-a")
        pb = SampleSet(pooled[perm[m:]].reshape(len(xb), *b.images.shape[1:]), "perm-b")
        out[k] = mmd_rbf(pa, pb, bandwidth)
    return out


def radial_power_bins(image: np.ndarray, n_bins: int = 4) -> np.ndarray:
    """Power spectrum integrated over n_bins radial frequency shells."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 3:
        img = img.mean(axis=0)
    h, w = img.shape
    spectrum = np.abs(np.fft.fft2(img - img.mean())) ** 2
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.fftfreq(w)[None, :]
    radius = np.sqrt(fy * fy + fx * fx)
    edges = np.linspace(0.0, 0.5 * np.sqrt(2.0), n_bins + 1)
    edges[-1] = np.inf  # the top shell keeps the Nyquist corner
    bins = np.zeros(n_bins)
    for k in range(n_bins):
        mask = (radius >= edges[k]) & (radius < edges[k + 1])
        bins[k] = spectrum[mask].sum()
    total = bins.sum()
    return bins / total if total > 0 else bins


def summary_stats(s: SampleSet) -> dict[str, float]:
    """Mean intensity, pixel variance, edge energy, radial power shares."""
    if len(s) == 0:
        raise ValueError("summary_stats needs a nonempty set")
    imgs = s.images
    dy = np.abs(np.diff(imgs, axis=2)).mean()
    dx = np.abs(np.diff(imgs, axis=3)).mean()
    power = np.mean([radial_power_bins(img) for img in imgs], axis=0)
    stats = {
        "mean_intensity": float(imgs.mean()),
        "pixel_variance": float(imgs.var()),
        "edge_energy": float(0.5 * (dy + dx)),
    }
    for k, share in enumerate(power):
        stats[f"radial_power_{k}"] = float(share)
    return stats


def _pixels(res) -> float:
    if isinstance(res, (tuple, list)):
        h, w = res
        return float(h) * float(w)
    return float(res) * float(res)


def cost_model_speedup(
    base: tuple[int, object, float],
    method: list[tuple[int, object]],
    gamma: float = 1.0,
) -> float:
    """Speedup of a multi-resolution schedule over a CFG-multiplied base.

    ``base`` is (steps, resolution, cfg_multiplier); ``method`` lists
    (steps, resolution) per stage. A step costs pixels(resolution)^gamma;
    costs normalize to the base resolution, so the ratio is invariant to
    rescaling all pixel counts.
    """
    base_steps, base_res, cfg = base
    ref = _pixels(base_res)

    def cost(steps: int, res) -> float:
        if steps <= 0:
            raise ValueError("step counts must be positive")
        return steps * (_pixels(res) / ref) ** gamma

    return cost(base_steps, base_res) * cfg / sum(cost(s, r) for s, r in method)


@dataclass(frozen=True)
class EvalConfig:
    n_per_set: int = 256
    teacher_steps: int = 32
    n_permutations: int = 200
    contact_sheet_n: int = 64

    def validate(self) -> None:
        # the reference splits into two halves, and an MMD needs two samples a side;
        # the null width is a standard deviation over permutations
        for key, least in (("n_per_set", 4), ("teacher_steps", 1), ("n_permutations", 2), ("contact_sheet_n", 1)):
            if getattr(self, key) < least:
                raise ValueError(f"eval.{key} must be at least {least}, got {getattr(self, key)}")


def round_robin(n: int, n_classes: int) -> list[int | None]:
    """Class ids of a sample set: index i has class i mod n_classes."""
    return [i % n_classes if n_classes > 0 else None for i in range(n)]


def sample_teacher_set(
    teacher_net: nets.DenoiserNet,
    res: int,
    n: int,
    steps: int,
    n_classes: int,
    rng: SeededRng,
    tag: str,
) -> SampleSet:
    """Matched-seed many-step samples: index i fixes (class, noise stream)."""
    seeds = [rng.derive(f"{tag}:{i}").seed for i in range(n)]
    return SampleSet(euler_sample(teacher_net, round_robin(n, n_classes), res, steps, seeds), tag)


def sample_cascade_set(
    net: nets.DenoiserNet,
    trace: InferenceTrace,
    alpha_inference: float,
    n: int,
    n_classes: int,
    rng: SeededRng,
    tag: str,
) -> SampleSet:
    """Cascade samples along `trace`; the index (not the tag) keys the
    noise streams, so different arms drawn from the same rng share seeds
    and classes."""
    seeds = [rng.derive(f"arm:{i}").seed for i in range(n)]
    run = run_cascade(net, trace, alpha_inference, round_robin(n, n_classes), seeds)
    return SampleSet(run.final, tag)


def contact_sheet(path, images: np.ndarray, cols: int = 16, lo: float = -0.25, hi: float = 1.25) -> None:
    """Tile the first images into one PGM grid."""
    n, _, h, w = images.shape
    cols = min(cols, n)
    rows = (n + cols - 1) // cols
    sheet = np.zeros((1, rows * h, cols * w))
    for i in range(n):
        r, c = divmod(i, cols)
        sheet[0, r * h : (r + 1) * h, c * w : (c + 1) * w] = images[i, 0]
    write_pgm(path, sheet, lo=lo, hi=hi)


@dataclass
class EvalReport:
    rows: list[tuple[str, str, float]]
    null_width: float

    def value(self, method: str, metric: str) -> float:
        for m, k, v in self.rows:
            if m == method and k == metric:
                return v
        raise KeyError((method, metric))

    def write_csv(self, path) -> None:
        write_csv(path, ["method", "metric", "value"], self.rows)


def evaluate_sets(
    reference: SampleSet,
    candidates: list[SampleSet],
    dataset_high: SampleSet | None,
    cfg: EvalConfig,
    rng: SeededRng,
) -> EvalReport:
    """MMD of every candidate against the teacher reference (plus summary
    stats), with a permutation-calibrated null width from reference halves.

    The halves interleave by index so that round-robin class assignment
    stays balanced on both sides (a contiguous split would compare
    different class mixtures and inflate the null).
    """
    ref_a = SampleSet(reference.images[0::2], "reference-a")
    ref_b = SampleSet(reference.images[1::2], "reference-b")
    bandwidth = median_bandwidth(ref_a.flat(), ref_b.flat())
    null = permutation_null(ref_a, ref_b, cfg.n_permutations, rng.derive("perm"), bandwidth)
    null_width = float(null.std())

    rows: list[tuple[str, str, float]] = []
    rows.append(("reference-null", "mmd_to_reference", mmd_rbf(ref_a, ref_b, bandwidth)))
    rows.append(("reference-null", "null_width", null_width))
    for cand in candidates:
        rows.append((cand.tag, "mmd_to_reference", mmd_rbf(cand, ref_a, bandwidth)))
        if dataset_high is not None and cand.images.shape[1:] == dataset_high.images.shape[1:]:
            rows.append((cand.tag, "mmd_to_dataset", mmd_rbf(cand, dataset_high, bandwidth)))
        for key, value in summary_stats(cand).items():
            rows.append((cand.tag, key, value))
    for key, value in summary_stats(reference).items():
        rows.append((reference.tag, key, value))
    return EvalReport(rows=rows, null_width=null_width)


def evaluate_run(
    student: nets.DenoiserNet,
    teacher: nets.DenoiserNet,
    rm_disabled: nets.DenoiserNet | None,
    dataset: ShapeDataset | None,
    partition: TrajectoryPartition,
    n_steps: int,
    alpha_inference: float,
    cfg: EvalConfig,
    rng: SeededRng,
    out_dir,
) -> EvalReport:
    """Sample all arms with matched seeds/classes, score them, write reports.

    The student runs the full method's inference (its configured noise-mix
    alpha). Both ablation arms run the plain cascade with pure Gaussian
    re-injection (alpha = 0): the optimized re-injection is part of the
    method under test, so the naive teacher arm and the
    single-resolution-distilled arm use the un-optimized transition.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    res = partition.final_resolution
    n_classes = student.spec.class_count

    reference = sample_teacher_set(
        teacher, res, cfg.n_per_set, cfg.teacher_steps, n_classes, rng.derive("reference"), "teacher-highres"
    )
    arms = [
        ("student-cascade", student, alpha_inference),
        ("naive-cascade", teacher, 0.0),
    ]
    if rm_disabled is not None:
        arms.append(("rm-disabled-cascade", rm_disabled, 0.0))
    trace = schedule_trace(partition, n_steps)
    candidates = [
        sample_cascade_set(net_, trace, arm_alpha, cfg.n_per_set, n_classes, rng.derive("arms"), tag)
        for tag, net_, arm_alpha in arms
    ]
    dataset_high = None
    if dataset is not None:
        dataset_high = SampleSet(dataset.high_images, "dataset-high")

    report = evaluate_sets(reference, candidates, dataset_high, cfg, rng.derive("eval"))
    report.write_csv(out_dir / "report.csv")
    n_sheet = min(cfg.contact_sheet_n, cfg.n_per_set)
    contact_sheet(out_dir / "reference.pgm", reference.images[:n_sheet])
    for cand in candidates:
        contact_sheet(out_dir / f"{cand.tag}.pgm", cand.images[:n_sheet])
    return report
