"""Raster operators: bilinear resampling (with its transpose), area means, noise."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossres import grid
from numerics import EagerSeededRng, area_downsample


def naive_bilinear(x: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Independent per-output-pixel evaluation of the half-pixel formula."""
    h, w = x.shape
    out = np.zeros((th, tw))
    for i in range(th):
        for j in range(tw):
            sy = (i + 0.5) * h / th - 0.5
            sx = (j + 0.5) * w / tw - 0.5
            y0, x0 = math.floor(sy), math.floor(sx)
            fy, fx = sy - y0, sx - x0
            y0c, y1c = min(max(y0, 0), h - 1), min(max(y0 + 1, 0), h - 1)
            x0c, x1c = min(max(x0, 0), w - 1), min(max(x0 + 1, 0), w - 1)
            out[i, j] = (
                (1 - fy) * (1 - fx) * x[y0c, x0c]
                + (1 - fy) * fx * x[y0c, x1c]
                + fy * (1 - fx) * x[y1c, x0c]
                + fy * fx * x[y1c, x1c]
            )
    return out


class TestBilinearUpsample:
    def test_constant_stays_constant(self):
        x = np.full((2, 3, 3), 0.7)
        up = grid.bilinear_upsample(x, 7, 9)
        assert up.shape == (2, 7, 9)
        assert np.allclose(up, 0.7, atol=1e-14)

    def test_2x2_to_4x4_frozen(self):
        # Frozen from the per-pixel oracle above.
        x = np.array([[[0.0, 1.0], [2.0, 3.0]]])
        expected = np.array(
            [
                [0.0, 0.25, 0.75, 1.0],
                [0.5, 0.75, 1.25, 1.5],
                [1.5, 1.75, 2.25, 2.5],
                [2.0, 2.25, 2.75, 3.0],
            ]
        )
        got = grid.bilinear_upsample(x, 4, 4)
        assert np.allclose(got[0], expected, atol=1e-14)
        assert np.allclose(naive_bilinear(x[0], 4, 4), expected, atol=1e-14)

    def test_matches_naive_oracle_random(self):
        rng = grid.SeededRng(7)
        x = rng.normal((2, 5, 4))
        got = grid.bilinear_upsample(x, 11, 9)
        for c in range(2):
            assert np.allclose(got[c], naive_bilinear(x[c], 11, 9), atol=1e-12)

    def test_mean_preserved_at_2x(self):
        rng = grid.SeededRng(11)
        x = rng.normal((1, 8, 8))
        up = grid.bilinear_upsample(x, 16, 16)
        assert abs(up.mean() - x.mean()) < 1e-6

    def test_rejects_downscale(self):
        with pytest.raises(ValueError):
            grid.bilinear_upsample(np.zeros((1, 8, 8)), 4, 8)

    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
    @settings(max_examples=50)
    def test_linearity(self, a, b):
        rng = grid.SeededRng(3)
        x, y = rng.normal((1, 6, 6)), rng.normal((1, 6, 6))
        lhs = grid.bilinear_upsample(a * x + b * y, 13, 12)
        rhs = a * grid.bilinear_upsample(x, 13, 12) + b * grid.bilinear_upsample(y, 13, 12)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("shape,target", [((1, 8, 8), (16, 16)), ((2, 5, 7), (11, 13))])
    def test_adjoint(self, shape, target):
        # <U x, y> == <x, U^T y>: the gradient-propagation contract.
        rng = grid.SeededRng(13)
        x = rng.normal(shape)
        y = rng.normal((shape[0],) + target)
        lhs = float(np.sum(grid.bilinear_upsample(x, *target) * y))
        rhs = float(np.sum(x * grid.bilinear_upsample_t(y, shape[1], shape[2])))
        assert abs(lhs - rhs) < 1e-10


    def test_leading_batch_axes_match_single_images(self):
        rng = grid.SeededRng(17)
        x = rng.normal((3, 2, 5, 7))
        y = rng.normal((3, 2, 11, 13))
        up = grid.bilinear_upsample(x, 11, 13)
        back = grid.bilinear_upsample_t(y, 5, 7)
        for i in range(3):
            assert np.array_equal(up[i], grid.bilinear_upsample(x[i], 11, 13))
            assert np.array_equal(back[i], grid.bilinear_upsample_t(y[i], 5, 7))

    def test_axis_matrix_is_shared_and_read_only(self):
        matrix = grid._axis_matrix(8, 16)
        assert grid._axis_matrix(8, 16) is matrix
        with pytest.raises(ValueError):
            matrix[0, 0] = 1

    def test_transpose_rejects_what_the_forward_rejects(self):
        # a 16 px y cannot come from upsampling a 32 px source
        with pytest.raises(ValueError, match="target size 16 smaller than source size 32"):
            grid.bilinear_upsample_t(np.ones((1, 16, 16)), 32, 32)

    @pytest.mark.parametrize("fn", [grid.bilinear_upsample, grid.bilinear_upsample_t], ids=["forward", "transpose"])
    def test_rejects_input_without_channel_axis(self, fn):
        with pytest.raises(ValueError, match=r"expected \(\.\.\., channels, height, width\), got shape \(4, 4\)"):
            fn(np.ones((4, 4)), 4, 4)


class TestAreaDownsample:
    def test_identity_factor_one(self):
        x = grid.SeededRng(5).normal((1, 4, 4))
        assert np.array_equal(area_downsample(x, 1), x)

    def test_block_mean(self):
        x = np.array([[[1.0, 1.0], [3.0, 3.0]]])
        assert area_downsample(x, 2) == pytest.approx(np.array([[[2.0]]]))

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            area_downsample(np.zeros((1, 6, 6)), 4)

    def test_round_trip_on_smooth_input(self):
        h = w = 8
        ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        x = (np.sin(2 * np.pi * ii / h) * np.cos(2 * np.pi * jj / w))[None]
        back = area_downsample(grid.bilinear_upsample(x, 2 * h, 2 * w), 2)
        assert np.max(np.abs(back - x)) < 0.25


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = grid.SeededRng(42).normal((1, 8, 8))
        b = grid.SeededRng(42).normal((1, 8, 8))
        assert np.array_equal(a, b)

    def test_derive_is_stable_and_distinct(self):
        root = grid.SeededRng(42)
        assert root.derive("a").seed == grid.SeededRng(42).derive("a").seed
        assert root.derive("a").seed != root.derive("b").seed

    def test_moments_of_large_sample(self):
        z = grid.SeededRng(123).normal(10**6)
        assert -0.01 < z.mean() < 0.01
        assert 0.99 < z.var() < 1.01

    def test_odd_sized_draws_consistent(self):
        # Box-Muller emits pairs; odd lengths must still be reproducible.
        a = grid.SeededRng(9).normal(7)
        b = grid.SeededRng(9).normal(7)
        assert np.array_equal(a, b)


class TestSeededRngMatchesTheEagerClass:
    """The lazy generator and the one-draw Box-Muller against the class
    they replaced (numerics.EagerSeededRng): same seeds, same streams."""

    @pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
    def test_streams_and_seeds(self, seed):
        new, old = grid.SeededRng(seed), EagerSeededRng(seed)
        for shape in (1, 7, (3,), (2, 3), (1, 8, 8), (1, 16, 16), (), (0,), 257):
            a, b = new.normal(shape), old.normal(shape)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), shape
        assert new.uniform(0.0, 1.0, 5).tobytes() == old.uniform(0.0, 1.0, 5).tobytes()
        for label in ("teacher", "arm:3", "cascade:12:0"):
            assert new.derive(label).seed == old.derive(label).seed
            assert new.derive(label).normal((2, 5)).tobytes() == old.derive(label).normal((2, 5)).tobytes()

    @pytest.mark.parametrize("m", [1, 7, 32, 128, 129])
    def test_one_draw_of_2m_uniforms_is_two_draws_of_m(self, m):
        one, two = (np.random.Generator(np.random.PCG64(5)) for _ in range(2))
        assert np.array_equal(one.random(2 * m), np.concatenate([two.random(m), two.random(m)]))

    def test_a_seed_alone_builds_no_generator(self):
        rng = grid.SeededRng(3).derive("arm:0")
        assert rng.seed == EagerSeededRng(3).derive("arm:0").seed
        assert "_gen" not in vars(rng)


class TestImageIO:
    def test_pgm_roundtrip(self, tmp_path):
        img = np.linspace(0, 1, 16).reshape(1, 4, 4)
        path = tmp_path / "out.pgm"
        grid.write_pgm(path, img, lo=0.0, hi=1.0)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 4\n255\n")
        payload = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
        assert payload[0] == 0 and payload[-1] == 255
        sidecar = (tmp_path / "out.pgm.range.txt").read_text()
        assert "lo = 0.0" in sidecar and "hi = 1.0" in sidecar

    def test_pgm_requires_single_channel(self, tmp_path):
        with pytest.raises(ValueError):
            grid.write_pgm(tmp_path / "x.pgm", np.zeros((3, 4, 4)))

    def test_csv_field_formats(self, tmp_path):
        # floats by repr (numpy scalars too), bools as 0/1, None empty, csv's default dialect
        path = tmp_path / "t.csv"
        rows = [(0.1, True, None, "x,y"), (np.float64(1 / 3), False, 7, np.int64(2))]
        grid.write_csv(path, ["a", "b", "c", "d"], rows)
        assert path.read_bytes() == b'a,b,c,d\r\n0.1,1,,"x,y"\r\n0.3333333333333333,0,7,2\r\n'
