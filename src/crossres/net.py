"""A small sigma-conditioned convolutional velocity predictor.

The network is fully convolutional (3x3 kernels, stride 1, zero padding),
so one flat parameter vector serves every resolution. Hidden layers are
conditioned on the noise level through a sinusoidal embedding of sigma
mapped linearly to per-channel scale/offset, and on an optional class id
through an additive learned embedding on the first hidden layer. The
final layer is a plain convolution, so the all-zero parameter vector is
the zero function.

Reverse-mode gradients are written by hand and validated against central
finite differences in the test suite; `backward` returns both the
parameter gradient and the input gradient so callers can chain several
forward passes into one differentiable pipeline.

`forward` and `backward` take batches (N, C, H, W) with one sigma and one
class id per image, and run them in chunks of bounded pixel count with
activations laid out channel-major (C, n, H, W). A conv with several
input channels is a shifted GEMM over one zero-padded buffer of the whole
chunk; a conv with one input channel uses a 9-row im2col. The ops after a
conv run in place on its contiguous product.

A net computes in the dtype of its parameters, float32 or float64: inputs
and upstream gradients are cast to it on entry, and every buffer, output
and gradient of the net has it. `init_params` returns float32, the lab's
dtype, since one core runs float32 GEMMs about twice as fast; callers keep
their states and losses in float64, and the tests' finite-difference and
oracle checks build float64 nets, which compute exactly as before.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .grid import SeededRng, read_framed, write_framed

CHECKPOINT_MAGIC = b"XRDN"
CHECKPOINT_VERSION = 2
# the payload's little-endian dtype by the header's "dtype"; these are the
# dtypes a net computes in
CHECKPOINT_DTYPES = {"float32": "<f4", "float64": "<f8"}
# per dtype, the largest x whose exp(x) is finite: the SiLU bounds its
# exponent by it, so exp never overflows, and nothing changes where it did not
_EXP_LIMIT = {np.dtype(np.float32): np.float32(88.72283), np.dtype(np.float64): np.float64(709.782712893384)}


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
        if min(self.channels) < 1:
            raise ValueError(f"every channel width must be at least 1, got {self.channels}")
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


def _view_table(spec: NetSpec, buffer: np.ndarray) -> dict[str, np.ndarray]:
    """name -> view of that tensor in the flat vector `buffer`; the views
    alias the buffer, so in-place edits of either show in the other."""
    return {name: buffer[sl].reshape(shape) for name, (shape, sl) in param_layout(spec).items()}


@dataclass
class DenoiserNet:
    spec: NetSpec
    params: np.ndarray

    def __setattr__(self, name: str, value) -> None:
        if name == "params":
            value = np.asarray(value).ravel()  # kept in the dtype it comes in
            if value.dtype.name not in CHECKPOINT_DTYPES:
                raise ValueError(f"params must be float32 or float64, got {value.dtype}")
            expected = param_count(self.spec)
            if value.size != expected:
                raise ValueError(f"params has {value.size} entries, spec needs {expected}")
            # rebuilt on every assignment (optimizer steps reassign .params),
            # so a view is never stale; nothing derived from values is kept
            object.__setattr__(self, "_views", _view_table(self.spec, value))
        object.__setattr__(self, name, value)

    def __getstate__(self) -> dict:
        # the view table is left out and rebuilt from the restored buffer, so
        # a copied or unpickled net's views alias its own params
        return {"spec": self.spec, "params": self.params}

    def __setstate__(self, state: dict) -> None:
        self.spec = state["spec"]
        self.params = state["params"]

    def view(self, name: str) -> np.ndarray:
        return self._views[name]

    def with_params(self, params: np.ndarray) -> "DenoiserNet":
        return DenoiserNet(self.spec, params.copy())


def init_params(spec: NetSpec, rng: SeededRng) -> np.ndarray:
    """Fan-in scaled Gaussian init; the last conv is shrunk by 0.1. Drawn in
    float64 and returned rounded to float32, the lab's dtype."""
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
    return net.params.astype(np.float32)


# A batch runs through the net CHUNK_PIXELS // (H * W) images at a time (4 at
# 16 px, 16 at 8 px), so the forward cache a backward reads, about 0.32 MB
# per 16 px image, stays a few chunks' worth whatever the batch size.
CHUNK_PIXELS = 1024


def chunks(x: np.ndarray) -> list[slice]:
    """The image slices of batch x that the net processes one at a time."""
    n, _, h, w = x.shape
    size = max(1, CHUNK_PIXELS // (h * w))
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


@functools.cache
def _angular_frequencies(dim: int) -> np.ndarray:
    """2 pi times the geometric frequencies 1, 2, 4, ... of `time_features`;
    built once per dim and read only."""
    freqs = 2.0 * np.pi * 2.0 ** np.arange(dim // 2)
    freqs.flags.writeable = False
    return freqs


def _time_features(sigma, dim: int, dtype: np.dtype) -> np.ndarray:
    """Sinusoidal features of sigma at geometric frequencies 1, 2, 4, ...;
    one row per entry of an array of sigmas, sines then cosines. The phases
    are float64; the features are rounded to `dtype`."""
    phase = _angular_frequencies(dim) * np.asarray(sigma, dtype=np.float64)[..., None]
    out = np.empty(phase.shape[:-1] + (dim,), dtype=dtype)
    np.sin(phase, out=out[..., : dim // 2])
    np.cos(phase, out=out[..., dim // 2 :])
    return out


@functools.cache
def _tap_offsets(w: int) -> tuple[int, ...]:
    # flat offset of tap (a, b), in order 3a + b, inside a zero-bordered
    # row of width w + 2
    return tuple(a * (w + 2) + b for a in range(3) for b in range(3))


def _outputs(z: np.ndarray, h: int, w: int) -> np.ndarray:
    """The (C, n, H, W) view of the outputs in a conv product (C, n, P):
    P is H W for an im2col conv; for a shifted GEMM it is (H+2)(W+2), and
    column p holds the window whose top-left corner is padded position p."""
    c, n, p = z.shape
    if p == h * w:
        return z.reshape(c, n, h, w)
    return z.reshape(c, n, h + 2, w + 2)[:, :, :h, :w]


def _pad(h: np.ndarray) -> np.ndarray:
    """Channel-major zero-bordered copy of h (C, n, H, W), flattened to
    (C, n (H+2)(W+2) + 2W + 6): the tail lets every tap slice of length
    n (H+2)(W+2) stay in bounds."""
    c, n, hh, ww = h.shape
    flat = n * (hh + 2) * (ww + 2)
    xp = np.zeros((c, flat + 2 * ww + 6), dtype=h.dtype)
    xp[:, :flat].reshape(c, n, hh + 2, ww + 2)[:, :, 1:-1, 1:-1] = h
    return xp


def _shifted_gemm(xp: np.ndarray, weight: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    """Same-padded 3x3 cross-correlation of the padded buffer `xp`: the sum
    over taps, in order 3a + b, of W[:, :, a, b] @ xp[:, off:off+L], each
    tap a shifted slice. Returns the contiguous (C_out, n (H+2)(W+2)) sum,
    border columns and all.

    With fewer output than input channels the nine thin GEMMs cost more
    than one GEMM of all taps over the whole buffer, whose nine row blocks
    are then summed at their shifts in one reduce; it starts from -0.0,
    which adds to any first term exactly.
    """
    flat = n * (h + 2) * (w + 2)
    c_out, c_in = weight.shape[:2]
    taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1))  # (3, 3, C_out, C_in)
    if c_out < c_in:
        products = taps.reshape(9 * c_out, c_in) @ xp
        cols, item = xp.shape[1], xp.itemsize
        # the row block of tap (a, b), read from its offset a (W+2) + b on
        shifted = np.ndarray((3, 3, c_out, flat), products.dtype, products, 0,
                             ((3 * c_out * cols + w + 2) * item, (c_out * cols + 1) * item, cols * item, item))
        return np.add.reduce(shifted, axis=(0, 1), initial=-0.0)
    taps = taps.reshape(9, c_out, c_in)
    offsets = _tap_offsets(w)
    out = taps[0] @ xp[:, :flat]
    for tap, off in zip(taps[1:], offsets[1:]):
        out += tap @ xp[:, off : off + flat]
    return out


def _im2col(h: np.ndarray) -> np.ndarray:
    """Channel-major im2col of h (C, n, H, W): row 9c + 3a + b holds tap
    (a, b) of channel c at every pixel, copied in one pass from a window
    view of the zero-bordered input."""
    c, n, hh, ww = h.shape
    hp = np.zeros((c, n, hh + 2, ww + 2), dtype=h.dtype)
    hp[:, :, 1:-1, 1:-1] = h
    s = hp.strides
    windows = np.ndarray((c, 3, 3, n, hh, ww), hp.dtype, hp, 0, (s[0], s[2], s[3], s[1], s[2], s[3]))
    cols = np.empty((c, 3, 3, n, hh, ww), dtype=h.dtype)
    cols[...] = windows
    return cols.reshape(c * 9, n * hh * ww)


def _conv_input(h: np.ndarray) -> np.ndarray:
    """What a conv reads from h (C, n, H, W): the zero-bordered buffer of a
    shifted-GEMM conv, or, for one input channel (where nine K = 1 GEMMs
    would be slow), the 9-row im2col matrix. The weight gradient reads it
    too."""
    return _im2col(h) if h.shape[0] == 1 else _pad(h)


def _conv_product(saved: np.ndarray, weight: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    """The contiguous product (C_out, n, P) of a conv over `saved`; see
    `_outputs`."""
    c_out = weight.shape[0]
    if weight.shape[1] == 1:
        return (weight.reshape(c_out, 9) @ saved).reshape(c_out, n, -1)
    return _shifted_gemm(saved, weight, n, h, w).reshape(c_out, n, -1)


def _conv(h: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded 3x3 cross-correlation of h (C_in, n, H, W), channel-major.

    Returns the output (C_out, n, H, W) and what the weight gradient reads
    (`_conv_input`)."""
    _, n, hh, ww = h.shape
    saved = _conv_input(h)
    return _outputs(_conv_product(saved, weight, n, hh, ww), hh, ww), saved


def _conv_backward(d: np.ndarray, saved: np.ndarray, weight: np.ndarray,
                   input_grad: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """(weight gradient, input gradient or None) of `_conv` for upstream d
    (C_out, n, H, W), given what the forward saved."""
    c_out, n, hh, ww = d.shape
    c_in = weight.shape[1]
    d_in = d_saved = None
    if input_grad:
        # the input gradient convolves d with the flipped, channel-transposed kernel
        d_in, d_saved = _conv(d, weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    if c_in == 1:
        return (d.reshape(c_out, -1) @ saved.T).reshape(weight.shape), d_in
    # tap (a, b) pairs d at padded position p + (W + 3) with the input at p + off
    dp = d_saved if d_saved is not None and c_out > 1 else _pad(d)
    flat, centre = n * (hh + 2) * (ww + 2), ww + 3
    d_flat = dp[:, centre : centre + flat]
    dw = np.empty((c_out, c_in, 9), dtype=d.dtype)
    for k, off in enumerate(_tap_offsets(ww)):
        dw[:, :, k] = d_flat @ saved[:, off : off + flat].T
    return dw.reshape(weight.shape), d_in


def _batch_inputs(net: DenoiserNet, x, sigma, class_ids) -> tuple[np.ndarray, np.ndarray, list]:
    """Check a batch: x (N, C, H, W), cast to the net's dtype, one sigma in
    [0, 1] per image (a scalar serves all), class ids as None or a length-N
    sequence whose entries are all None or all set."""
    spec = net.spec
    x = np.asarray(x, dtype=net.params.dtype)
    if x.ndim != 4 or x.shape[1] != spec.channels[0] or x.shape[0] == 0:
        raise ValueError(f"expected a non-empty (N, {spec.channels[0]}, H, W) batch, got shape {x.shape}")
    n = x.shape[0]
    sigma = np.asarray(sigma, dtype=np.float64)
    scalar = sigma.ndim == 0
    in_range = 0.0 <= sigma <= 1.0 if scalar else sigma.min() >= 0.0 and sigma.max() <= 1.0  # False on a nan
    if not in_range:
        raise ValueError(f"sigma must lie in [0, 1], got {np.broadcast_to(sigma, (n,))}")
    sigma = np.full(n, sigma) if scalar else np.broadcast_to(sigma, (n,))
    class_ids = [None] * n if class_ids is None else list(class_ids)
    if len(class_ids) != n:
        raise ValueError(f"{len(class_ids)} class ids for {n} images")
    unset = class_ids.count(None)
    if unset == n:
        return x, sigma, class_ids
    if unset:
        raise ValueError(f"class ids must be all None or all set, got {unset} None among {n}: {class_ids}")
    if spec.class_count == 0:
        raise ValueError("net is unconditional but class_id was given")
    for class_id in class_ids:
        if not 0 <= class_id < spec.class_count:
            raise ValueError(f"class_id {class_id} out of range [0, {spec.class_count})")
    return x, sigma, class_ids


def _forward_chunk(net: DenoiserNet, x: np.ndarray, sigma: np.ndarray, class_ids: list, keep: bool,
                   out: np.ndarray | None = None):
    """One chunk of a checked batch; activations run channel-major (C, n, H, W).

    Each hidden conv's bias, class embedding, FiLM and SiLU run in place on
    its contiguous product, border columns and all; the SiLU output is
    written once, as the valid pixels, into what the next conv reads.
    Writes the output into `out` (C_out, n, H, W) if given, and returns it
    and, if `keep`, the cache its backward reads."""
    spec, views = net.spec, net._views
    n, _, hh, ww = x.shape
    last = spec.num_layers - 1
    feats = _time_features(sigma, spec.time_embed_dim, x.dtype)
    ids = None if class_ids[0] is None else class_ids  # the batch is checked: all set or none
    cache = {"saved": [], "pre": [], "dact": [], "scale": [], "feats": feats, "ids": ids}
    saved = _conv_input(x.transpose(1, 0, 2, 3))
    for l in range(spec.num_layers):
        z = _conv_product(saved, views[f"conv{l}.weight"], n, hh, ww)
        valid = _outputs(z, hh, ww)
        cache["saved"].append(saved)
        bias = views[f"conv{l}.bias"]
        if l == last:
            out = np.add(valid, bias[:, None, None, None], out=out)
            break
        z += bias[:, None, None]
        if l == 0 and ids is not None:
            z += views["class_embed"].take(ids, axis=0).T[:, :, None]
        film = feats @ views[f"film{l}.weight"].T + views[f"film{l}.bias"]
        c_out = spec.channels[l + 1]
        scale, offset = film[:, :c_out].T, film[:, c_out:].T  # (C, n)
        if keep:
            cache["pre"].append(valid.copy())
            cache["scale"].append(scale)
        z *= (1.0 + scale)[:, :, None]
        z += offset[:, :, None]
        sig = np.negative(z)
        np.minimum(sig, _EXP_LIMIT[z.dtype], out=sig)
        np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)  # the logistic sigmoid of z
        if keep:  # SiLU'(z) = sig (1 + z (1 - sig))
            dact = np.subtract(1.0, sig)
            dact *= z
            dact += 1.0
            dact *= sig
            cache["dact"].append(_outputs(dact, hh, ww).copy())
        z *= sig  # the SiLU output, which `valid` now views
        saved = _conv_input(valid)
    return out, (cache if keep else None)


def _backward_chunk(net: DenoiserNet, cache: dict, upstream: np.ndarray, grads: dict,
                    input_grad: bool) -> np.ndarray | None:
    """Add one chunk's parameter gradient to the views `grads`; return its
    input gradient, or None without `input_grad`."""
    spec = net.spec
    d = upstream.transpose(1, 0, 2, 3)
    for l in reversed(range(spec.num_layers)):
        if l < spec.num_layers - 1:
            d = d * cache["dact"][l]  # through SiLU
            d_offset = np.sum(d, axis=(2, 3))  # (C, n)
            d_film = np.concatenate([np.sum(d * cache["pre"][l], axis=(2, 3)), d_offset])
            grads[f"film{l}.weight"] += d_film @ cache["feats"]
            grads[f"film{l}.bias"] += d_film.sum(axis=1)
            scale = 1.0 + cache["scale"][l]
            d *= scale[:, :, None, None]
            d_shift = d_offset * scale  # per-image gradient of an additive shift
            if l == 0 and cache["ids"] is not None:
                np.add.at(grads["class_embed"], cache["ids"], d_shift.T)
            grads[f"conv{l}.bias"] += d_shift.sum(axis=1)
        else:
            grads[f"conv{l}.bias"] += np.sum(d, axis=(1, 2, 3))
        dw, d = _conv_backward(d, cache["saved"][l], net.view(f"conv{l}.weight"), input_grad or l > 0)
        grads[f"conv{l}.weight"] += dw
    return None if d is None else d.transpose(1, 0, 2, 3)


def forward(
    net: DenoiserNet,
    x: np.ndarray,
    sigma,
    class_ids=None,
    keep_cache: bool = False,
):
    """Velocity predictions for a batch x (N, C, H, W), same shape as x.

    `sigma` holds one noise level per image (a scalar serves all);
    `class_ids` one class id per image, or is None (or all None) for an
    unconditional call.
    With keep_cache=True returns (prediction, cache); passing that cache to
    `backward` on the same inputs and parameters spares it the forward.
    The cache holds every chunk of the batch.
    """
    x, sigma, class_ids = _batch_inputs(net, x, sigma, class_ids)
    out = np.empty((x.shape[0], net.spec.channels[-1]) + x.shape[2:], dtype=x.dtype)
    caches = []
    for sl in chunks(x):
        caches.append(_forward_chunk(net, x[sl], sigma[sl], class_ids[sl], keep_cache,
                                     out[sl].transpose(1, 0, 2, 3))[1])
    return (out, caches) if keep_cache else out


def backward(
    net: DenoiserNet,
    x: np.ndarray,
    sigma,
    class_ids,
    upstream: np.ndarray,
    cache: list | None = None,
    _input_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact reverse-mode gradients of sum(forward * upstream) over a batch.

    `cache` is the one `forward(..., keep_cache=True)` returned for these
    inputs and parameters; without it each chunk's forward is run again
    just before its backward, so at most one chunk's cache is alive.
    Returns (flat parameter gradient summed over the batch, input gradient
    per image); `loss_and_grad` skips the input gradient, which is then None.
    """
    x, sigma, class_ids = _batch_inputs(net, x, sigma, class_ids)
    upstream = np.asarray(upstream, dtype=x.dtype)
    out_shape = (x.shape[0], net.spec.channels[-1]) + x.shape[2:]
    if upstream.shape != out_shape:
        raise ValueError(f"upstream shape {upstream.shape} != output shape {out_shape}")
    grads = np.zeros_like(net.params)
    grad_views = _view_table(net.spec, grads)
    d_x = np.empty_like(x) if _input_grad else None
    for k, sl in enumerate(chunks(x)):
        chunk_cache = cache[k] if cache is not None else (
            _forward_chunk(net, x[sl], sigma[sl], class_ids[sl], keep=True)[1])
        d = _backward_chunk(net, chunk_cache, upstream[sl], grad_views, _input_grad)
        if _input_grad:
            d_x[sl] = d
    return grads, d_x


def loss_and_grad(net: DenoiserNet, x: np.ndarray, sigma, class_ids, loss_of) -> tuple[float, np.ndarray]:
    """A loss of the net's outputs on batch x, summed over chunks, and its
    parameter gradient.

    `loss_of(sl, out)` returns the loss of the images `sl` of the batch,
    given their outputs, and its gradient in those outputs. Each chunk's
    backward runs right after its forward, so one chunk's cache is alive at
    a time.
    """
    x, sigma, class_ids = _batch_inputs(net, x, sigma, class_ids)
    loss, grads = 0.0, np.zeros_like(net.params)
    for sl in chunks(x):
        out, cache = forward(net, x[sl], sigma[sl], class_ids[sl], keep_cache=True)
        part, upstream = loss_of(sl, out)
        g, _ = backward(net, x[sl], sigma[sl], class_ids[sl], upstream, cache, _input_grad=False)
        loss += part
        grads += g
    return loss, grads


def clip_global_norm(grads: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale grads to global norm clip_norm if above it; else return grads
    itself. The norm is taken in float64, where no finite float32 gradient
    overflows it."""
    norm = float(np.linalg.norm(grads.astype(np.float64, copy=False)))
    if norm > clip_norm > 0:
        return grads * (clip_norm / norm)
    return grads


# AdamW's second-moment decay and denominator floor; every caller keeps them
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamW:
    """Adaptive-moment optimizer as the training recipe runs it: no first
    moment (beta1 = 0, so the step direction is the gradient itself), no
    weight decay, a bias-corrected second moment, and global gradient-norm
    clipping applied before the moment update. The second moment and the
    update take the parameters' dtype.
    """

    lr: float
    clip_norm: float = 1.0
    step_count: int = 0
    clipped: int = 0
    skipped: int = 0
    v: np.ndarray | None = field(default=None, repr=False)

    def step(self, params: np.ndarray, grads: np.ndarray) -> tuple[np.ndarray, bool]:
        """One update; counts clipped steps, and skips (and counts) steps
        with non-finite gradients."""
        if self.v is None:
            self.v = np.zeros_like(params)
        if not np.all(np.isfinite(grads)):
            self.skipped += 1
            return params, False
        g = clip_global_norm(grads, self.clip_norm)
        if g is not grads:
            self.clipped += 1
        self.step_count += 1
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * g * g
        v_hat = self.v / (1.0 - ADAM_BETA2**self.step_count)
        return params - self.lr * (g / (np.sqrt(v_hat) + ADAM_EPS)), True


def save_checkpoint(path, net: DenoiserNet) -> None:
    """A framed file: architecture header, then the raw parameters,
    little-endian, in the net's dtype, which the header names."""
    dtype = net.params.dtype.name
    header = {
        "channels": list(net.spec.channels),
        "time_embed_dim": net.spec.time_embed_dim,
        "class_count": net.spec.class_count,
        "param_count": int(net.params.size),
        "dtype": dtype,
    }
    payload = net.params.astype(CHECKPOINT_DTYPES[dtype]).tobytes()
    write_framed(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header, payload)


def _payload_dtype(header: dict) -> np.dtype:
    if header["dtype"] not in CHECKPOINT_DTYPES:
        raise ValueError(f"dtype {header['dtype']!r} is not one of {sorted(CHECKPOINT_DTYPES)}")
    return np.dtype(CHECKPOINT_DTYPES[header["dtype"]])


def load_checkpoint(path) -> DenoiserNet:
    """Read a `save_checkpoint` file into a net of its dtype; rejects
    foreign, truncated or padded files, other versions and dtypes, and
    non-finite parameters."""
    header, payload = read_framed(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint",
                                  lambda h: _payload_dtype(h).itemsize * int(h["param_count"]))
    try:
        spec = NetSpec(
            channels=tuple(header["channels"]),
            time_embed_dim=header["time_embed_dim"],
            class_count=header["class_count"],
        )
        net = DenoiserNet(spec, np.frombuffer(payload, dtype=_payload_dtype(header)).astype(header["dtype"]))
    except (ValueError, KeyError, TypeError) as err:
        raise ValueError(f"{path}: unreadable checkpoint header ({type(err).__name__}: {err})") from err
    bad = int(np.count_nonzero(~np.isfinite(net.params)))
    if bad:
        raise ValueError(f"{path}: {bad} of {net.params.size} parameters are non-finite")
    return net
