"""Numerics that only the tests read: the net's finite-difference
gradient check, the relative error the tests bound, and the area
downsampling that compares the dataset's two resolution tiers.

Test modules import it as ``from numerics import ...``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crossres import net as nets
from crossres.grid import ImageGrid, SeededRng


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Vector relative error ||a - b|| / max(||a||, ||b||), 0 if both vanish."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


def finite_difference_param_grad(
    net: nets.DenoiserNet,
    x: np.ndarray,
    sigma,
    class_ids,
    upstream: np.ndarray,
    indices: np.ndarray,
    h: float = 1e-4,
) -> np.ndarray:
    """Central differences of sum(forward * upstream) at selected parameters."""
    out = np.zeros(len(indices), dtype=np.float64)
    params = net.params
    for k, idx in enumerate(indices):
        saved = params[idx]
        params[idx] = saved + h
        up = float(np.sum(nets.forward(net, x, sigma, class_ids) * upstream))
        params[idx] = saved - h
        down = float(np.sum(nets.forward(net, x, sigma, class_ids) * upstream))
        params[idx] = saved
        out[k] = (up - down) / (2.0 * h)
    return out


@dataclass
class GradientCheckReport:
    param_rel_error: float
    input_rel_error: float
    tolerance: float
    n_param_probes: int

    @property
    def max_rel_error(self) -> float:
        return max(self.param_rel_error, self.input_rel_error)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def gradient_check(
    net: nets.DenoiserNet,
    tolerance: float,
    rng: SeededRng,
    n_param_probes: int = 200,
    fd_step: float = 1e-4,
) -> GradientCheckReport:
    """Compare `backward` against central finite differences on random
    probes of an 8 px batch of three images, each with its own sigma."""
    if net.params.size > 10_000:
        raise ValueError("gradient_check is meant for small nets (<= 1e4 params)")
    spec = net.spec
    x = rng.normal((3, spec.channels[0], 8, 8))
    upstream = rng.normal((3, spec.channels[-1], 8, 8))
    sigma = rng.uniform(0.1, 0.9, size=3)
    class_ids = [k % spec.class_count for k in range(3)] if spec.class_count > 0 else None

    analytic_p, analytic_x = nets.backward(net, x, sigma, class_ids, upstream)
    n = min(n_param_probes, net.params.size)
    indices = np.sort(rng.choice(net.params.size, size=n))
    fd_p = finite_difference_param_grad(net, x, sigma, class_ids, upstream, indices, fd_step)
    p_err = relative_error(analytic_p[indices], fd_p)

    fd_x = np.zeros_like(analytic_x)
    flat = x.ravel()
    for idx in range(flat.size):
        saved = flat[idx]
        flat[idx] = saved + fd_step
        up = float(np.sum(nets.forward(net, x, sigma, class_ids) * upstream))
        flat[idx] = saved - fd_step
        down = float(np.sum(nets.forward(net, x, sigma, class_ids) * upstream))
        flat[idx] = saved
        fd_x.ravel()[idx] = (up - down) / (2.0 * fd_step)
    x_err = relative_error(analytic_x, fd_x)
    return GradientCheckReport(p_err, x_err, tolerance, n)


def validate_grid(x: np.ndarray, name: str = "grid") -> ImageGrid:
    """Check the (C, H, W) layout and finiteness contract."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"{name}: expected (channels, height, width), got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name}: contains non-finite entries")
    return x


def area_downsample(x: ImageGrid, factor: int) -> ImageGrid:
    """Each output pixel is the mean of its factor x factor block."""
    x = validate_grid(x, "area_downsample input")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    c, h, w = x.shape
    if h % factor or w % factor:
        raise ValueError(f"size ({h},{w}) not divisible by factor {factor}")
    return x.reshape(c, h // factor, factor, w // factor, factor).mean(axis=(2, 4))
