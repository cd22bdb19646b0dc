"""A small sigma-conditioned convolutional velocity predictor.

The network is fully convolutional (3x3 kernels, stride 1, zero padding),
so one flat parameter vector serves every resolution. Hidden layers are
conditioned on the noise level through a sinusoidal embedding of sigma
mapped linearly to per-channel scale/offset, and on an optional class id
through an additive learned embedding on the first hidden layer. The
final layer is a plain convolution, so the all-zero parameter vector is
the zero function.

Reverse-mode gradients are written by hand and validated against central
finite differences (`gradient_check`); `backward` returns both the
parameter gradient and the input gradient so callers can chain several
forward passes into one differentiable pipeline.
"""
from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import ImageGrid, SeededRng

CHECKPOINT_MAGIC = b"XRDN"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class NetSpec:
    """Architecture description; parameter layout is a pure function of it.

    ``channels`` is the conv chain, e.g. (1, 24, 24, 1): every adjacent
    pair is a 3x3 convolution. All layers except the last are followed by
    sigma conditioning and a SiLU nonlinearity.
    """

    channels: tuple[int, ...] = (1, 24, 24, 1)
    time_embed_dim: int = 10
    class_count: int = 3

    def __post_init__(self) -> None:
        if len(self.channels) < 2:
            raise ValueError("need at least one convolution layer")
        if self.time_embed_dim % 2 or self.time_embed_dim <= 0:
            raise ValueError("time_embed_dim must be positive and even")

    @property
    def num_layers(self) -> int:
        return len(self.channels) - 1


@functools.cache
def param_layout(spec: NetSpec) -> dict[str, tuple[tuple[int, ...], slice]]:
    """name -> (shape, slice of the flat parameter vector), in vector order.

    Built once per spec and shared by every net of that spec; read only.
    """
    layout = {}
    offset = 0

    def add(name, shape):
        nonlocal offset
        size = int(np.prod(shape))
        layout[name] = (shape, slice(offset, offset + size))
        offset += size

    for l in range(spec.num_layers):
        c_in, c_out = spec.channels[l], spec.channels[l + 1]
        add(f"conv{l}.weight", (c_out, c_in, 3, 3))
        add(f"conv{l}.bias", (c_out,))
        if l < spec.num_layers - 1:  # conditioned hidden layer
            add(f"film{l}.weight", (2 * c_out, spec.time_embed_dim))
            add(f"film{l}.bias", (2 * c_out,))
    if spec.class_count > 0:
        add("class_embed", (spec.class_count, spec.channels[1]))
    return layout


def param_count(spec: NetSpec) -> int:
    return max(sl.stop for _, sl in param_layout(spec).values())


@dataclass
class DenoiserNet:
    spec: NetSpec
    params: np.ndarray

    def __post_init__(self) -> None:
        self.params = np.asarray(self.params, dtype=np.float64).ravel()
        expected = param_count(self.spec)
        if self.params.size != expected:
            raise ValueError(f"params has {self.params.size} entries, spec needs {expected}")
        self._layout = param_layout(self.spec)

    def view(self, name: str) -> np.ndarray:
        # computed from the current buffer every call, so reassigning
        # .params (as optimizer steps do) can never leave stale views
        shape, sl = self._layout[name]
        return self.params[sl].reshape(shape)

    def with_params(self, params: np.ndarray) -> "DenoiserNet":
        return DenoiserNet(self.spec, params.copy())


def init_params(spec: NetSpec, rng: SeededRng) -> np.ndarray:
    """Fan-in scaled Gaussian init; the last conv is shrunk by 0.1."""
    params = np.zeros(param_count(spec), dtype=np.float64)
    net = DenoiserNet(spec, params)
    for l in range(spec.num_layers):
        w = net.view(f"conv{l}.weight")
        fan_in = w.shape[1] * 9
        scale = 1.0 / np.sqrt(fan_in)
        if l == spec.num_layers - 1:
            scale *= 0.1
        w[...] = rng.normal(w.shape) * scale
        if l < spec.num_layers - 1:
            fw = net.view(f"film{l}.weight")
            fw[...] = rng.normal(fw.shape) * 0.01
    if spec.class_count > 0:
        emb = net.view("class_embed")
        emb[...] = rng.normal(emb.shape) * 0.1
    return net.params


def time_features(sigma: float, dim: int) -> np.ndarray:
    """Sinusoidal features of sigma at geometric frequencies 1, 2, 4, ..."""
    half = dim // 2
    freqs = 2.0 ** np.arange(half)
    phase = 2.0 * np.pi * freqs * sigma
    return np.concatenate([np.sin(phase), np.cos(phase)])


def _conv3x3(x: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded 3x3 cross-correlation; x is (C_in, H, W).

    Also returns the im2col matrix, which the weight gradient reuses: row
    i * W + j holds the 3x3 window at pixel (i, j), column c * 9 + 3a + b
    its tap (a, b) of channel c. It is filled by nine slice copies, one per
    tap, from a channel-last padded copy of x.
    """
    c_in, h, w = x.shape
    xp = np.zeros((h + 2, w + 2, c_in), dtype=np.float64)
    xp[1:-1, 1:-1] = x.transpose(1, 2, 0)
    cols = np.empty((h * w, c_in * 9), dtype=np.float64)
    taps = cols.reshape(h, w, c_in, 3, 3)
    for a in range(3):
        for b in range(3):
            taps[:, :, :, a, b] = xp[a : a + h, b : b + w]
    out = cols @ weight.reshape(weight.shape[0], c_in * 9).T
    return out.T.reshape(weight.shape[0], h, w), cols


def _conv3x3_input_grad(upstream: np.ndarray, weight: np.ndarray) -> np.ndarray:
    # Input gradient of a same-padded 3x3 conv: convolve the upstream with
    # the spatially flipped, channel-transposed kernel.
    flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    out, _ = _conv3x3(upstream, np.ascontiguousarray(flipped))
    return out


def _silu(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sig = 1.0 / (1.0 + np.exp(-z))
    return z * sig, sig * (1.0 + z * (1.0 - sig))


def _forward_impl(net: DenoiserNet, x: ImageGrid, sigma: float, class_id):
    spec = net.spec
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
    if class_id is not None:
        if spec.class_count == 0:
            raise ValueError("net is unconditional but class_id was given")
        if not 0 <= class_id < spec.class_count:
            raise ValueError(f"class_id {class_id} out of range [0, {spec.class_count})")
    feats = time_features(sigma, spec.time_embed_dim)
    h = np.asarray(x, dtype=np.float64)
    cache = {"cols": [], "pre": [], "dact": [], "feats": feats}
    for l in range(spec.num_layers):
        z, cols = _conv3x3(h, net.view(f"conv{l}.weight"))
        z = z + net.view(f"conv{l}.bias")[:, None, None]
        cache["cols"].append(cols)
        if l == spec.num_layers - 1:
            cache["pre"].append(None)
            cache["dact"].append(None)
            h = z
            break
        if l == 0 and spec.class_count > 0 and class_id is not None:
            z = z + net.view("class_embed")[class_id][:, None, None]
        film = net.view(f"film{l}.weight") @ feats + net.view(f"film{l}.bias")
        c_out = spec.channels[l + 1]
        scale, offset = film[:c_out], film[c_out:]
        cache["pre"].append(z)
        z = z * (1.0 + scale)[:, None, None] + offset[:, None, None]
        h, dact = _silu(z)
        cache["dact"].append(dact)
        cache.setdefault("film", []).append((scale, offset))
    return h, cache


def forward(
    net: DenoiserNet,
    x: ImageGrid,
    sigma: float,
    class_id: int | None = None,
    keep_cache: bool = False,
):
    """Velocity prediction with the same shape as x.

    With keep_cache=True returns (prediction, cache); passing that cache to
    `backward` on the same inputs and parameters spares it the forward.
    """
    out, cache = _forward_impl(net, x, sigma, class_id)
    return (out, cache) if keep_cache else out


def backward(
    net: DenoiserNet,
    x: ImageGrid,
    sigma: float,
    class_id: int | None,
    upstream: ImageGrid,
    cache: dict | None = None,
) -> tuple[np.ndarray, ImageGrid]:
    """Exact reverse-mode gradients of sum(forward * upstream).

    `cache` is the one `forward(..., keep_cache=True)` returned for these
    inputs and parameters; without it the forward is run again.
    Returns (flat parameter gradient, input gradient).
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    out_shape = (net.spec.channels[-1],) + tuple(np.shape(x)[1:])
    if upstream.shape != out_shape:
        raise ValueError(f"upstream shape {upstream.shape} != output shape {out_shape}")
    if cache is None:
        _, cache = _forward_impl(net, x, sigma, class_id)
    spec = net.spec
    grads = np.zeros_like(net.params)
    gnet = DenoiserNet(spec, grads)  # reuse the layout views for accumulation
    feats = cache["feats"]

    d = upstream
    for l in reversed(range(spec.num_layers)):
        c_out = spec.channels[l + 1]
        if l < spec.num_layers - 1:
            d = d * cache["dact"][l]  # through SiLU
            scale, _ = cache["film"][l]
            pre = cache["pre"][l]
            d_scale = np.sum(d * pre, axis=(1, 2))
            d_offset = np.sum(d, axis=(1, 2))
            d_film = np.concatenate([d_scale, d_offset])
            gnet.view(f"film{l}.weight")[...] += np.outer(d_film, feats)
            gnet.view(f"film{l}.bias")[...] += d_film
            d = d * (1.0 + scale)[:, None, None]
            if l == 0 and spec.class_count > 0 and class_id is not None:
                gnet.view("class_embed")[class_id] += np.sum(d, axis=(1, 2))
        h, w = d.shape[1:]
        cols = cache["cols"][l]
        dw = d.reshape(c_out, h * w) @ cols
        gnet.view(f"conv{l}.weight")[...] += dw.reshape(c_out, -1, 3, 3)
        gnet.view(f"conv{l}.bias")[...] += np.sum(d, axis=(1, 2))
        d = _conv3x3_input_grad(d, net.view(f"conv{l}.weight"))
    return grads, d


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Vector relative error ||a - b|| / max(||a||, ||b||), 0 if both vanish."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


def finite_difference_param_grad(
    net: DenoiserNet,
    x: ImageGrid,
    sigma: float,
    class_id: int | None,
    upstream: ImageGrid,
    indices: np.ndarray,
    h: float = 1e-4,
) -> np.ndarray:
    """Central differences of sum(forward * upstream) at selected parameters."""
    out = np.zeros(len(indices), dtype=np.float64)
    params = net.params
    for k, idx in enumerate(indices):
        saved = params[idx]
        params[idx] = saved + h
        up = float(np.sum(forward(net, x, sigma, class_id) * upstream))
        params[idx] = saved - h
        down = float(np.sum(forward(net, x, sigma, class_id) * upstream))
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
    net: DenoiserNet,
    tolerance: float,
    rng: SeededRng,
    input_shape: tuple[int, int, int] | None = None,
    n_param_probes: int = 200,
    fd_step: float = 1e-4,
) -> GradientCheckReport:
    """Compare `backward` against central finite differences on random probes."""
    if net.params.size > 10_000:
        raise ValueError("gradient_check is meant for small nets (<= 1e4 params)")
    spec = net.spec
    if input_shape is None:
        input_shape = (spec.channels[0], 8, 8)
    x = rng.normal(input_shape)
    upstream = rng.normal(input_shape)
    sigma = float(rng.uniform(0.1, 0.9))
    class_id = 0 if spec.class_count > 0 else None

    analytic_p, analytic_x = backward(net, x, sigma, class_id, upstream)
    n = min(n_param_probes, net.params.size)
    indices = np.sort(rng.choice(net.params.size, size=n))
    fd_p = finite_difference_param_grad(net, x, sigma, class_id, upstream, indices, fd_step)
    p_err = relative_error(analytic_p[indices], fd_p)

    fd_x = np.zeros_like(analytic_x)
    flat = x.ravel()
    for idx in range(flat.size):
        saved = flat[idx]
        flat[idx] = saved + fd_step
        up = float(np.sum(forward(net, x, sigma, class_id) * upstream))
        flat[idx] = saved - fd_step
        down = float(np.sum(forward(net, x, sigma, class_id) * upstream))
        flat[idx] = saved
        fd_x.ravel()[idx] = (up - down) / (2.0 * fd_step)
    x_err = relative_error(analytic_x, fd_x)
    return GradientCheckReport(p_err, x_err, tolerance, n)


def clip_global_norm(grads: np.ndarray, clip_norm: float) -> np.ndarray:
    norm = float(np.linalg.norm(grads))
    if norm > clip_norm > 0:
        return grads * (clip_norm / norm)
    return grads


@dataclass
class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Defaults follow the training recipe used throughout this package:
    beta1 = 0 (no momentum), beta2 = 0.999, bias correction on, global
    gradient-norm clipping applied before the moment update.
    """

    lr: float
    beta1: float = 0.0
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    clip_norm: float = 1.0
    step_count: int = 0
    skipped: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)

    def step(self, params: np.ndarray, grads: np.ndarray) -> tuple[np.ndarray, bool]:
        """One update; skips (and counts) steps with non-finite gradients."""
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        if not np.all(np.isfinite(grads)):
            self.skipped += 1
            return params, False
        g = clip_global_norm(grads, self.clip_norm)
        self.step_count += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        m_hat = self.m / (1.0 - self.beta1**self.step_count)
        v_hat = self.v / (1.0 - self.beta2**self.step_count)
        update = m_hat / (np.sqrt(v_hat) + self.eps)
        new_params = params - self.lr * update
        if self.weight_decay:
            new_params = new_params - self.lr * self.weight_decay * params
        return new_params, True


def save_checkpoint(path, net: DenoiserNet) -> None:
    """Write magic, version, architecture header, then raw little-endian float64."""
    header = json.dumps(
        {
            "channels": list(net.spec.channels),
            "time_embed_dim": net.spec.time_embed_dim,
            "class_count": net.spec.class_count,
            "param_count": int(net.params.size),
        }
    ).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(net.params.astype("<f8").tobytes())


def load_checkpoint(path) -> DenoiserNet:
    """Read a `save_checkpoint` file; rejects foreign, truncated or padded files."""
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (magic {raw[:4]!r})")
    if len(raw) < 12:
        raise ValueError(f"{path}: expected at least 12 bytes of preamble, found {len(raw)}")
    version, header_len = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    payload_start = 12 + header_len
    if len(raw) < payload_start:
        raise ValueError(
            f"{path}: truncated inside the header: expected at least {payload_start} bytes, "
            f"found {len(raw)}"
        )
    header = json.loads(raw[12:payload_start].decode())
    expected = payload_start + 8 * header["param_count"]
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes from the header, found {len(raw)}")
    spec = NetSpec(
        channels=tuple(header["channels"]),
        time_embed_dim=header["time_embed_dim"],
        class_count=header["class_count"],
    )
    params = np.frombuffer(raw, dtype="<f8", offset=payload_start).astype(np.float64)
    return DenoiserNet(spec, params)
