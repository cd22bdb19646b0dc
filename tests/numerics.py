"""Numerics that only the tests read: the net's finite-difference
gradient check, the relative error the tests bound, the area
downsampling that compares the dataset's two resolution tiers, the
logSNR form of the resolution shift that the stage map's closed form
must match, and the oracles the net and the noise source must match bit
for bit: the strided chunk code of the net and the eager Box-Muller
generator.

Test modules import it as ``from numerics import ...``.
"""
from __future__ import annotations

import hashlib
import math
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


def shift_logsnr(logsnr: float, res: int, final_res: int) -> float:
    """Resolution-compensated logSNR: add 2 ln(res / final_res), the form
    `ResolutionStage.shift` computes in closed form on sigma."""
    if res <= 0 or final_res <= 0:
        raise ValueError("resolutions must be positive")
    return logsnr + 2.0 * math.log(res / final_res)


# --- Oracles kept from earlier versions of the package -------------------


class EagerSeededRng:
    """`SeededRng` as it was before it built its generator lazily and drew
    both Box-Muller halves at once: the oracle of its streams and seeds."""

    def __init__(self, seed: int):
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(int(seed)))

    def derive(self, label: str) -> "EagerSeededRng":
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return EagerSeededRng(int.from_bytes(digest[:8], "little"))

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size=None):
        return self._gen.uniform(lo, hi, size=size)

    def normal(self, shape) -> np.ndarray:
        if np.isscalar(shape):
            shape = (int(shape),)
        n = int(np.prod(shape)) if len(shape) else 1
        m = (n + 1) // 2
        u1 = 1.0 - self._gen.random(m)
        u2 = self._gen.random(m)
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])
        return z[:n].reshape(shape)


# The net's chunk code as it was before its activations ran in place: every
# op after a conv walks the strided (C, n, H, W) view of the product. Views
# of the parameters are cut from `net.params` on every call, so a stale
# view table in the net would show as a mismatch.


def _ref_view(net: nets.DenoiserNet, name: str) -> np.ndarray:
    shape, sl = nets.param_layout(net.spec)[name]
    return net.params[sl].reshape(shape)


def _ref_time_features(sigma: np.ndarray, dim: int) -> np.ndarray:
    freqs = 2.0 ** np.arange(dim // 2)
    phase = 2.0 * np.pi * freqs * sigma[..., None]
    return np.concatenate([np.sin(phase), np.cos(phase)], axis=-1)


def _ref_tap_offsets(w: int) -> list[int]:
    return [a * (w + 2) + b for a in range(3) for b in range(3)]


def _ref_pad(h: np.ndarray) -> np.ndarray:
    c, n, hh, ww = h.shape
    flat = n * (hh + 2) * (ww + 2)
    xp = np.zeros((c, flat + 2 * ww + 6), dtype=np.float64)
    xp[:, :flat].reshape(c, n, hh + 2, ww + 2)[:, :, 1:-1, 1:-1] = h
    return xp


def _ref_shifted_gemm(xp: np.ndarray, weight: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    flat = n * (h + 2) * (w + 2)
    c_out, c_in = weight.shape[:2]
    taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1)).reshape(9, c_out, c_in)
    offsets = _ref_tap_offsets(w)
    if c_out < c_in:
        products = (taps.reshape(9 * c_out, c_in) @ xp).reshape(9, c_out, -1)
        out = products[0, :, :flat].copy()
        for k, off in enumerate(offsets[1:], start=1):
            out += products[k, :, off : off + flat]
    else:
        out = taps[0] @ xp[:, :flat]
        for tap, off in zip(taps[1:], offsets[1:]):
            out += tap @ xp[:, off : off + flat]
    return out.reshape(c_out, n, h + 2, w + 2)[:, :, :h, :w]


def _ref_im2col(h: np.ndarray) -> np.ndarray:
    c, n, hh, ww = h.shape
    hp = np.zeros((c, n, hh + 2, ww + 2), dtype=np.float64)
    hp[:, :, 1:-1, 1:-1] = h
    cols = np.empty((c, 3, 3, n, hh, ww), dtype=np.float64)
    for a in range(3):
        for b in range(3):
            cols[:, a, b] = hp[:, :, a : a + hh, b : b + ww]
    return cols.reshape(c * 9, n * hh * ww)


def _ref_conv(h: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c_in, n, hh, ww = h.shape
    if c_in == 1:
        cols = _ref_im2col(h)
        out = weight.reshape(weight.shape[0], 9) @ cols
        return out.reshape(-1, n, hh, ww), cols
    xp = _ref_pad(h)
    return _ref_shifted_gemm(xp, weight, n, hh, ww), xp


def _ref_conv_backward(d: np.ndarray, saved: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c_out, n, hh, ww = d.shape
    c_in = weight.shape[1]
    d_in, d_saved = _ref_conv(d, weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    if c_in == 1:
        return (d.reshape(c_out, -1) @ saved.T).reshape(weight.shape), d_in
    dp = d_saved if c_out > 1 else _ref_pad(d)
    flat, centre = n * (hh + 2) * (ww + 2), ww + 3
    d_flat = dp[:, centre : centre + flat]
    dw = np.empty((c_out, c_in, 9), dtype=np.float64)
    for k, off in enumerate(_ref_tap_offsets(ww)):
        dw[:, :, k] = d_flat @ saved[:, off : off + flat].T
    return dw.reshape(weight.shape), d_in


def _ref_silu(z: np.ndarray, with_grad: bool):
    sig = np.exp(-z)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    return z * sig, sig * (1.0 + z * (1.0 - sig)) if with_grad else None


def _ref_forward_chunk(net: nets.DenoiserNet, x: np.ndarray, sigma: np.ndarray, class_ids: list):
    spec = net.spec
    feats = _ref_time_features(sigma, spec.time_embed_dim)
    labelled = [i for i, c in enumerate(class_ids) if c is not None]
    ids = [class_ids[i] for i in labelled]
    if len(labelled) == len(class_ids):
        labelled = slice(None)
    cache = {"saved": [], "pre": [], "dact": [], "scale": [], "feats": feats,
             "labelled": labelled, "ids": ids}
    h = x.transpose(1, 0, 2, 3)
    for l in range(spec.num_layers):
        z, saved = _ref_conv(h, _ref_view(net, f"conv{l}.weight"))
        z += _ref_view(net, f"conv{l}.bias")[:, None, None, None]
        cache["saved"].append(saved)
        if l == spec.num_layers - 1:
            h = z
            break
        if l == 0 and ids:
            z[:, labelled] += _ref_view(net, "class_embed")[ids].T[:, :, None, None]
        film = feats @ _ref_view(net, f"film{l}.weight").T + _ref_view(net, f"film{l}.bias")
        c_out = spec.channels[l + 1]
        scale, offset = film[:, :c_out].T, film[:, c_out:].T
        cache["pre"].append(z)
        cache["scale"].append(scale)
        z = z * (1.0 + scale)[:, :, None, None]
        z += offset[:, :, None, None]
        h, dact = _ref_silu(z, True)
        cache["dact"].append(dact)
    return h.transpose(1, 0, 2, 3), cache


def _ref_backward_chunk(net: nets.DenoiserNet, cache: dict, upstream: np.ndarray, grads: np.ndarray) -> np.ndarray:
    spec = net.spec
    layout = nets.param_layout(spec)

    def gview(name):
        shape, sl = layout[name]
        return grads[sl].reshape(shape)

    d = upstream.transpose(1, 0, 2, 3)
    for l in reversed(range(spec.num_layers)):
        if l < spec.num_layers - 1:
            d = d * cache["dact"][l]
            d_offset = np.sum(d, axis=(2, 3))
            d_film = np.concatenate([np.sum(d * cache["pre"][l], axis=(2, 3)), d_offset])
            gview(f"film{l}.weight")[...] += d_film @ cache["feats"]
            gview(f"film{l}.bias")[...] += d_film.sum(axis=1)
            scale = 1.0 + cache["scale"][l]
            d = d * scale[:, :, None, None]
            d_shift = d_offset * scale
            if l == 0 and cache["ids"]:
                np.add.at(gview("class_embed"), cache["ids"], d_shift[:, cache["labelled"]].T)
            gview(f"conv{l}.bias")[...] += d_shift.sum(axis=1)
        else:
            gview(f"conv{l}.bias")[...] += np.sum(d, axis=(1, 2, 3))
        dw, d = _ref_conv_backward(d, cache["saved"][l], _ref_view(net, f"conv{l}.weight"))
        gview(f"conv{l}.weight")[...] += dw
    return d.transpose(1, 0, 2, 3)


def _ref_batch(x, sigma, class_ids):
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (n,))
    return x, sigma, [None] * n if class_ids is None else list(class_ids)


def reference_forward(net: nets.DenoiserNet, x, sigma, class_ids=None) -> np.ndarray:
    """`net.forward` by the strided chunk code."""
    x, sigma, class_ids = _ref_batch(x, sigma, class_ids)
    outs = [_ref_forward_chunk(net, x[sl], sigma[sl], class_ids[sl])[0] for sl in nets.chunks(x)]
    return np.concatenate(outs) if len(outs) > 1 else np.ascontiguousarray(outs[0])


def reference_backward(net: nets.DenoiserNet, x, sigma, class_ids, upstream) -> tuple[np.ndarray, np.ndarray]:
    """`net.backward` by the strided chunk code: (parameter gradient, input gradient)."""
    x, sigma, class_ids = _ref_batch(x, sigma, class_ids)
    upstream = np.asarray(upstream, dtype=np.float64)
    grads = np.zeros_like(net.params)
    d_x = np.empty_like(x)
    for sl in nets.chunks(x):
        cache = _ref_forward_chunk(net, x[sl], sigma[sl], class_ids[sl])[1]
        d_x[sl] = _ref_backward_chunk(net, cache, upstream[sl], grads)
    return grads, d_x


def reference_loss_and_grad(net: nets.DenoiserNet, x, sigma, class_ids, loss_of) -> tuple[float, np.ndarray]:
    """`net.loss_and_grad` by the strided chunk code."""
    x, sigma, class_ids = _ref_batch(x, sigma, class_ids)
    loss, grads = 0.0, np.zeros_like(net.params)
    for sl in nets.chunks(x):
        out, cache = _ref_forward_chunk(net, x[sl], sigma[sl], class_ids[sl])
        part, upstream = loss_of(sl, np.ascontiguousarray(out))
        g = np.zeros_like(net.params)
        _ref_backward_chunk(net, cache, np.asarray(upstream, dtype=np.float64), g)
        loss += part
        grads += g
    return loss, grads
