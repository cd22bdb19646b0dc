"""Raster containers, resampling operators, and seeded noise sources.

Images are float64 numpy arrays in channel-major ``(channels, height,
width)`` layout; every module in this package passes them around as plain
arrays. All randomness flows through :class:`SeededRng`, a PCG64-backed
generator whose Gaussian draws use the Box-Muller transform so that a
stream is reproducible bit-for-bit from its seed. The artifact writers
(`write_pgm`, `write_csv`) live here too, as does the one binary container
(`write_framed`, `read_framed`) that datasets and checkpoints share.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Type alias used in signatures throughout the package: (C, H, W) float64.
ImageGrid = np.ndarray


@dataclass
class SeededRng:
    """Deterministic random source: PCG64 stream + Box-Muller Gaussians.

    Identical seeds produce identical streams on every platform. Derived
    streams (``derive``) hash the parent seed with a purpose label, which
    is how one root seed fans out to per-sample / per-step generators.
    The PCG64 generator is built on the first draw, so a stream used only
    for its ``seed`` costs the hash alone.
    """

    seed: int

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(int(self.seed)))

    def derive(self, label: str) -> "SeededRng":
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return SeededRng(int.from_bytes(digest[:8], "little"))

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size=None):
        return self._gen.uniform(lo, hi, size=size)

    def integers(self, lo: int, hi: int, size=None):
        return self._gen.integers(lo, hi, size=size)

    def choice_index(self, weights: np.ndarray) -> int:
        w = np.asarray(weights, dtype=np.float64)
        cdf = np.cumsum(w / w.sum())
        return int(np.searchsorted(cdf, self._gen.random(), side="right"))

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return np.asarray(self._gen.choice(n, size=size, replace=replace), dtype=np.int64)

    def normal(self, shape) -> np.ndarray:
        """Standard normal array via Box-Muller on PCG64 uniforms."""
        if np.isscalar(shape):
            shape = (int(shape),)
        n = math.prod(shape)
        m = (n + 1) // 2
        # one draw of 2m uniforms is the two draws of m, u1's then u2's;
        # random() is [0, 1): reflect u1 to (0, 1] so log() stays finite
        u = self._gen.random(2 * m)
        radius = np.subtract(1.0, u[:m])
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        theta = 2.0 * np.pi * u[m:]
        z = np.empty((2, m), dtype=np.float64)
        np.cos(theta, out=z[0])
        np.sin(theta, out=z[1])
        z *= radius
        return z.reshape(-1)[:n].reshape(shape)


@functools.cache
def _axis_matrix(src: int, dst: int) -> np.ndarray:
    """The (dst, src) matrix of half-pixel-center bilinear interpolation
    along one axis (align-corners OFF).

    Output sample i reads source coordinate (i + 0.5) src / dst - 0.5,
    clamped to the source range so edges replicate; its row is the tent
    max(0, 1 - |coord - j|) over source samples j. Built once per
    (src, dst) and shared by every caller, so it is read-only.
    """
    if dst < src:
        raise ValueError(f"target size {dst} smaller than source size {src}")
    coords = np.clip((np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5, 0, src - 1)
    matrix = np.maximum(0.0, 1.0 - np.abs(coords[:, None] - np.arange(src)))
    matrix.flags.writeable = False
    return matrix


def _images(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 3:
        raise ValueError(f"{name} input: expected (..., channels, height, width), got shape {x.shape}")
    return x


def bilinear_upsample(x: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """Per-channel bilinear interpolation of the last two axes to
    (target_h, target_w); x is (C, H, W) or has more leading batch axes.

    Half-pixel-center convention, which preserves the mean under integer
    scale factors. The operator is separable, ``A_h @ x @ A_w.T`` with one
    `_axis_matrix` per axis; `bilinear_upsample_t` applies its transpose
    (the gradient-propagation contract).
    """
    x = _images(x, "bilinear_upsample")
    h, w = x.shape[-2:]
    return _axis_matrix(h, target_h) @ x @ _axis_matrix(w, target_w).T


def bilinear_upsample_t(y: np.ndarray, source_h: int, source_w: int) -> np.ndarray:
    """Transpose of `bilinear_upsample` back onto a (source_h, source_w)
    grid, over the last two axes of y: ``A_h.T @ y @ A_w``. It accepts
    exactly the shapes the forward could have produced."""
    y = _images(y, "bilinear_upsample_t")
    th, tw = y.shape[-2:]
    return _axis_matrix(source_h, th).T @ y @ _axis_matrix(source_w, tw)


def write_pgm(path, image: np.ndarray, lo: float = 0.0, hi: float = 1.0) -> None:
    """Binary PGM (P5) of a single-channel image, affinely mapped from [lo, hi].

    The declared range goes into a sidecar text header next to the image.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 3:
        if img.shape[0] != 1:
            raise ValueError("write_pgm expects a single channel")
        img = img[0]
    if hi <= lo:
        raise ValueError("need hi > lo for the value mapping")
    h, w = img.shape
    scaled = np.clip((img - lo) / (hi - lo), 0.0, 1.0)
    payload = np.round(scaled * 255.0).astype(np.uint8).tobytes()
    path = Path(path)
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(payload)
    with open(path.with_suffix(path.suffix + ".range.txt"), "w") as f:
        f.write(f"lo = {lo!r}\nhi = {hi!r}\n")


def _csv_field(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(float(value))
    return value


def write_csv(path, header, rows) -> None:
    """A table in csv's default dialect: the header, then one line per row.

    Floats are written by repr (round-trip exact), bools as 0/1 and None
    as an empty field. `rows` may be a generator: each row is written as
    it is produced, so if the generator raises, the file keeps the rows
    before it.
    """
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([_csv_field(v) for v in row] for row in rows)


def write_framed(path, magic: bytes, version: int, header: dict, payload: bytes) -> None:
    """4-byte magic, little-endian u32 version, u32 header length, the JSON
    header, then the raw payload."""
    head = json.dumps(header).encode()
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<II", version, len(head)))
        f.write(head)
        f.write(payload)


def read_framed(path, magic: bytes, version: int, what: str,
                payload_size: Callable[[dict], int]) -> tuple[dict, memoryview]:
    """Read a `write_framed` file as (header, payload); rejects foreign,
    truncated or padded files with a ValueError that names the path.

    ``payload_size(header)`` gives the payload's byte count; a KeyError,
    TypeError or ValueError it raises reports the header as unreadable.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise ValueError(f"{path}: not a {what} file (magic {raw[:4]!r})")
    if len(raw) < 12:
        raise ValueError(f"{path}: expected at least 12 bytes of preamble, found {len(raw)}")
    found_version, header_len = struct.unpack_from("<II", raw, 4)
    if found_version != version:
        raise ValueError(f"{path}: unsupported {what} version {found_version}")
    payload_start = 12 + header_len
    if len(raw) < payload_start:
        raise ValueError(
            f"{path}: truncated inside the header: expected at least {payload_start} bytes, "
            f"found {len(raw)}"
        )
    try:
        header = json.loads(raw[12:payload_start].decode())
        expected = payload_start + payload_size(header)
    except (ValueError, KeyError, TypeError) as err:
        raise ValueError(f"{path}: unreadable {what} header ({type(err).__name__}: {err})") from err
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes from the header, found {len(raw)}")
    return header, memoryview(raw)[payload_start:]
