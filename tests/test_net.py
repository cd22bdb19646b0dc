"""Denoiser network: exact gradients, optimizer recurrence, checkpoints."""
import copy
import hashlib
import itertools
import pickle
import re
import struct

import numpy as np
import pytest

from crossres import net as nets
from crossres.grid import SeededRng, write_framed
from numerics import (
    finite_difference_param_grad,
    gradient_check,
    reference_backward,
    reference_forward,
    reference_loss_and_grad,
    relative_error,
)

TINY = nets.NetSpec(channels=(1, 6, 6, 1), time_embed_dim=4, class_count=3)


def make_net(spec=TINY, seed=0, dtype=np.float64):
    """A seeded net; float64 by default, the dtype of the oracles in
    numerics.py and of the finite-difference checks."""
    return nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(seed)).astype(dtype))


class TestForward:
    def test_zero_params_zero_output(self):
        n = nets.DenoiserNet(TINY, np.zeros(nets.param_count(TINY)))
        x = SeededRng(1).normal((2, 1, 8, 8))
        assert np.array_equal(nets.forward(n, x, 0.5, [0, 1]), np.zeros_like(x))

    def test_resolution_agnostic_shapes(self):
        n = make_net()
        for size in (8, 16):
            x = SeededRng(2).normal((3, 1, size, size))
            out = nets.forward(n, x, 0.3, [1, 1, 1])
            assert out.shape == x.shape
            assert np.all(np.isfinite(out))

    def test_class_id_out_of_range(self):
        n = make_net()
        with pytest.raises(ValueError):
            nets.forward(n, np.zeros((1, 1, 8, 8)), 0.5, [3])

    def test_rejects_malformed_batches(self):
        n = make_net()
        with pytest.raises(ValueError, match="batch"):
            nets.forward(n, np.zeros((1, 8, 8)), 0.5, [0])
        with pytest.raises(ValueError, match="non-empty"):
            nets.forward(n, np.zeros((0, 1, 8, 8)), 0.5, [])
        with pytest.raises(ValueError, match="2 class ids for 3 images"):
            nets.forward(n, np.zeros((3, 1, 8, 8)), 0.5, [0, 1])
        with pytest.raises(ValueError, match="sigma"):
            nets.forward(n, np.zeros((2, 1, 8, 8)), [0.5, 1.5], [0, 1])

    @pytest.mark.parametrize("sigma, class_ids, message", [
        (1.5, [0, 1], r"sigma must lie in \[0, 1\], got \[1.5 1.5\]"),
        ([0.5, np.nan], [0, 1], r"sigma must lie in \[0, 1\], got \[0.5 nan\]"),
        (np.nan, None, r"sigma must lie in \[0, 1\], got \[nan nan\]"),
        (0.5, [1, 5], r"class_id 5 out of range \[0, 3\)"),
        (0.5, [2, -1], r"class_id -1 out of range \[0, 3\)"),
        (0.5, [None, 1], r"class ids must be all None or all set, got 1 None among 2: \[None, 1\]"),
    ])
    def test_batch_checks_name_the_bad_value(self, sigma, class_ids, message):
        with pytest.raises(ValueError, match=message):
            nets.forward(make_net(), np.zeros((2, 1, 8, 8)), sigma, class_ids)

    def test_unconditional_net_rejects_class_ids(self):
        n = make_net(nets.NetSpec(TINY.channels, 4, 0))
        with pytest.raises(ValueError, match="unconditional"):
            nets.forward(n, np.zeros((2, 1, 8, 8)), 0.5, [1, 1])
        assert nets.forward(n, np.zeros((2, 1, 8, 8)), 0.5, [None, None]).shape == (2, 1, 8, 8)

    def test_deterministic(self):
        n = make_net()
        x = SeededRng(3).normal((2, 1, 8, 8))
        a = nets.forward(n, x, 0.7, [2, 0])
        b = nets.forward(n, x, 0.7, [2, 0])
        assert np.array_equal(a, b)

    def test_param_count_is_function_of_spec(self):
        assert nets.param_count(TINY) == nets.param_count(nets.NetSpec(TINY.channels, 4, 3))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        n = make_net()
        x = SeededRng(4).normal((2, 1, 8, 8))
        gp, gx = nets.backward(n, x, 0.5, [0, 2], np.zeros_like(x))
        assert not gp.any() and not gx.any()

    def test_linear_conv_weight_grad_is_correlation(self):
        # One plain conv layer: dW[o,c,a,b] = sum_nij up[n,o,i,j] * xpad[n,c,i+a,j+b]
        spec = nets.NetSpec(channels=(2, 3), time_embed_dim=4, class_count=0)
        n = make_net(spec, seed=5)
        rng = SeededRng(6)
        x = rng.normal((2, 2, 5, 5))
        up = rng.normal((2, 3, 5, 5))
        gp, _ = nets.backward(n, x, 0.5, None, up)
        xp = np.zeros((2, 2, 7, 7))
        xp[:, :, 1:-1, 1:-1] = x
        expected = np.zeros((3, 2, 3, 3))
        for o in range(3):
            for c in range(2):
                for a in range(3):
                    for b in range(3):
                        expected[o, c, a, b] = np.sum(up[:, o] * xp[:, c, a : a + 5, b : b + 5])
        got = nets.DenoiserNet(spec, gp).view("conv0.weight")
        assert np.allclose(got, expected, atol=1e-12)

    def test_finite_difference_contract(self):
        report = gradient_check(make_net(seed=7), tolerance=1e-4, rng=SeededRng(8))
        assert report.passed, f"max rel error {report.max_rel_error:.3e}"

    def test_shape_mismatch_rejected(self):
        n = make_net()
        with pytest.raises(ValueError):
            nets.backward(n, np.zeros((1, 1, 8, 8)), 0.5, [0], np.zeros((1, 1, 4, 4)))

    @pytest.mark.parametrize("px", [8, 16])
    @pytest.mark.parametrize("class_id", [None, 1])
    def test_forward_cache_reuse_is_bit_identical(self, px, class_id):
        # five images: at 16 px the batch spans two chunks
        n = make_net(nets.NetSpec(), seed=17)
        class_ids = None if class_id is None else [class_id, 0, 2, class_id, 1]
        rng = SeededRng(18)
        x = rng.normal((5, 1, px, px))
        up = rng.normal((5, 1, px, px))
        sigma = rng.uniform(0.0, 1.0, size=5)
        out, cache = nets.forward(n, x, sigma, class_ids, keep_cache=True)
        assert np.array_equal(out, nets.forward(n, x, sigma, class_ids))
        gp, gx = nets.backward(n, x, sigma, class_ids, up)
        gp_cached, gx_cached = nets.backward(n, x, sigma, class_ids, up, cache)
        assert np.array_equal(gp_cached, gp)
        assert np.array_equal(gx_cached, gx)

    @pytest.mark.parametrize("px", [8, 16])
    @pytest.mark.parametrize("class_count", [3, 0])
    def test_batch_equals_stack_of_single_images(self, px, class_count):
        # The batch sums over chunks and images in another order than N
        # single-image calls do, so the two agree to rounding, not bit for bit.
        n = make_net(nets.NetSpec(class_count=class_count), seed=20)
        rng = SeededRng(21)
        x = rng.normal((6, 1, px, px))
        up = rng.normal((6, 1, px, px))
        sigma = rng.uniform(0.0, 1.0, size=6)
        ids = [k % 3 for k in range(6)] if class_count else [None] * 6
        out = nets.forward(n, x, sigma, ids)
        gp, gx = nets.backward(n, x, sigma, ids, up)
        singles = [nets.backward(n, x[i : i + 1], sigma[i], ids[i : i + 1], up[i : i + 1]) for i in range(6)]
        ref_out = np.concatenate([nets.forward(n, x[i : i + 1], sigma[i], ids[i : i + 1]) for i in range(6)])
        assert relative_error(out, ref_out) <= 1e-12
        assert relative_error(gp, sum(g for g, _ in singles)) <= 1e-12
        assert relative_error(gx, np.concatenate([g for _, g in singles])) <= 1e-12

    def test_chunks_bound_the_pixels_per_call(self):
        assert [s.stop - s.start for s in nets.chunks(np.zeros((5, 1, 16, 16)))] == [4, 1]
        assert [s.stop - s.start for s in nets.chunks(np.zeros((20, 1, 8, 8)))] == [16, 4]
        assert [s.stop - s.start for s in nets.chunks(np.zeros((2, 1, 64, 64)))] == [1, 1]


def bit_equal(a, b) -> bool:
    """Same shape and the same bytes: unlike array_equal, tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestMatchesReferenceChunks:
    """The in-place chunk code against the strided one kept in numerics.py,
    bit for bit: same products, same elementwise ops, same reductions."""

    SPECS = {"default": nets.NetSpec(), "one-channel-hidden": nets.NetSpec((2, 5, 1, 3), 6, 2)}

    @staticmethod
    def inputs(spec, px, n, seed):
        rng = SeededRng(seed)
        x = rng.normal((n, spec.channels[0], px, px))
        up = rng.normal((n, spec.channels[-1], px, px))
        sigmas = {"scalar": 0.37, "per-image": rng.uniform(0.0, 1.0, size=n)}
        ids = {"none": None, "all-none": [None] * n, "all": [k % spec.class_count for k in range(n)]}
        return x, up, sigmas, ids

    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    @pytest.mark.parametrize("px", [2, 8, 16])
    @pytest.mark.parametrize("n", [1, 3, 5, 17])
    def test_bit_identical(self, spec_name, px, n):
        spec = self.SPECS[spec_name]
        net = make_net(spec, seed=31)
        x, up, sigmas, ids_by_kind = self.inputs(spec, px, n, seed=32)
        for (sigma_kind, sigma), (ids_kind, ids) in itertools.product(sigmas.items(), ids_by_kind.items()):
            case = f"sigma {sigma_kind}, class ids {ids_kind}"
            want = reference_forward(net, x, sigma, ids)
            assert bit_equal(nets.forward(net, x, sigma, ids), want), case
            out, cache = nets.forward(net, x, sigma, ids, keep_cache=True)
            assert bit_equal(out, want), case
            want_p, want_x = reference_backward(net, x, sigma, ids, up)
            for got_p, got_x in (nets.backward(net, x, sigma, ids, up), nets.backward(net, x, sigma, ids, up, cache)):
                assert bit_equal(got_p, want_p) and bit_equal(got_x, want_x), case

            def loss_of(sl, out):
                return float(np.sum(out * out)), 2.0 * out

            want_loss, want_grads = reference_loss_and_grad(net, x, sigma, ids, loss_of)
            loss, grads = nets.loss_and_grad(net, x, sigma, ids, loss_of)
            assert loss == want_loss and bit_equal(grads, want_grads), case

    def test_reassigned_and_edited_params_show_in_the_next_forward(self):
        net = make_net(nets.NetSpec(), seed=33)
        x = SeededRng(34).normal((3, 1, 8, 8))
        before = nets.forward(net, x, 0.5, [0, 1, 2])
        net.params = net.params * 0.5  # what an optimizer step does
        halved = nets.forward(net, x, 0.5, [0, 1, 2])
        assert not np.array_equal(halved, before)
        assert np.array_equal(halved, reference_forward(net, x, 0.5, [0, 1, 2]))
        net.params[nets.param_layout(net.spec)["conv2.bias"][1]] += 1.0  # in place, as the gradient check does
        edited = nets.forward(net, x, 0.5, [0, 1, 2])
        assert not np.array_equal(edited, halved)
        assert np.array_equal(edited, reference_forward(net, x, 0.5, [0, 1, 2]))

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copied_net_sees_in_place_edits(self, clone):
        net = make_net(nets.NetSpec(), seed=35)
        x = SeededRng(36).normal((2, 1, 8, 8))
        twin = clone(net)
        assert np.array_equal(nets.forward(twin, x, 0.5, [0, 1]), nets.forward(net, x, 0.5, [0, 1]))
        for name in nets.param_layout(twin.spec):
            assert np.shares_memory(twin.view(name), twin.params), name
        before = nets.forward(twin, x, 0.5, [0, 1])
        twin.params[nets.param_layout(twin.spec)["conv0.weight"][1]] *= 2.0
        edited = nets.forward(twin, x, 0.5, [0, 1])
        assert not np.array_equal(edited, before)
        assert np.array_equal(edited, reference_forward(twin, x, 0.5, [0, 1]))

    def test_params_are_checked_on_assignment(self):
        net = make_net()
        with pytest.raises(ValueError, match="params has 3 entries"):
            net.params = np.zeros(3)


class TestDtype:
    """A net computes in its parameters' dtype. A stray float64 temporary in
    a float32 net would silently give back the float32 speed-up."""

    @staticmethod
    def batch(seed):
        # float64 inputs and upstream, as the cascade and the losses pass them
        rng = SeededRng(seed)
        x, up = rng.normal((5, 1, 16, 16)), rng.normal((5, 1, 16, 16))
        return x, up, rng.uniform(0.0, 1.0, size=5), [0, 1, 2, 0, 1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outputs_gradients_and_updates_take_the_params_dtype(self, dtype):
        net = make_net(nets.NetSpec(), seed=50, dtype=dtype)
        x, up, sigma, ids = self.batch(51)
        out, cache = nets.forward(net, x, sigma, ids, keep_cache=True)
        assert out.dtype == nets.forward(net, x, sigma, ids).dtype == dtype
        for reuse in (None, cache):
            gp, gx = nets.backward(net, x, sigma, ids, up, reuse)
            assert gp.dtype == gx.dtype == dtype

        def loss_of(sl, out):
            resid = out - x[sl]  # a float64 loss, as the trainings compute it
            return float(np.sum(resid * resid)), 2.0 * resid

        _, grads = nets.loss_and_grad(net, x, sigma, ids, loss_of)
        assert grads.dtype == dtype
        opt = nets.AdamW(lr=1e-3)
        for _ in range(2):
            net.params, ok = opt.step(net.params, grads)
            assert ok and net.params.dtype == opt.v.dtype == dtype

    def test_no_float64_buffer_inside_a_float32_net(self, monkeypatch):
        # outputs are written into buffers of the net's dtype, so they would
        # hide a float64 temporary; the conv helpers' arrays and the forward
        # cache show it
        dtypes = set()

        def note(*arrays):
            dtypes.update(a.dtype for a in arrays if isinstance(a, np.ndarray))

        for name in ("_conv_input", "_conv_product", "_conv_backward", "_backward_chunk"):
            def spy(*args, _inner=getattr(nets, name)):
                result = _inner(*args)
                note(*args, *(result if isinstance(result, tuple) else (result,)))
                return result

            monkeypatch.setattr(nets, name, spy)
        net = make_net(nets.NetSpec(), seed=55, dtype=np.float32)
        x, up, sigma, ids = self.batch(56)
        _, cache = nets.forward(net, x, sigma, ids, keep_cache=True)
        nets.backward(net, x, sigma, ids, up)
        nets.backward(net, x, sigma, ids, up, cache)
        for chunk in cache:
            note(chunk["feats"], *chunk["saved"], *chunk["pre"], *chunk["dact"], *chunk["scale"])
        assert dtypes == {np.dtype(np.float32)}

    def test_float32_net_tracks_its_float64_twin(self):
        # float32 rounding (eps 1.2e-7) through three convs and two SiLUs reads
        # about 2.3e-7 here; the bound is about 80 eps
        net32 = make_net(nets.NetSpec(), seed=52, dtype=np.float32)
        net64 = net32.with_params(net32.params.astype(np.float64))
        x, up, sigma, ids = self.batch(53)
        assert relative_error(nets.forward(net32, x, sigma, ids), nets.forward(net64, x, sigma, ids)) <= 1e-5
        for got, want in zip(nets.backward(net32, x, sigma, ids, up), nets.backward(net64, x, sigma, ids, up)):
            assert relative_error(got, want) <= 1e-5

    def test_init_params_rounds_the_float64_draw(self):
        spec = nets.NetSpec()
        params = nets.init_params(spec, SeededRng(54))
        assert params.dtype == np.float32
        assert np.array_equal(params, make_net(spec, seed=54).params.astype(np.float32))

    @pytest.mark.parametrize("params", [np.zeros(nets.param_count(TINY), dtype=np.float16),
                                        np.zeros(nets.param_count(TINY), dtype=np.int64)], ids=["float16", "int64"])
    def test_other_dtypes_are_rejected(self, params):
        with pytest.raises(ValueError, match=f"params must be float32 or float64, got {params.dtype}"):
            nets.DenoiserNet(TINY, params)


class TestSilu:
    @staticmethod
    def silu_net(z, dtype):
        """A net whose one hidden pixel value is z everywhere and whose output
        is the SiLU of it: conv0 is the bias z, conv1 the centre tap 1."""
        spec = nets.NetSpec(channels=(1, 1, 1), time_embed_dim=2, class_count=0)
        net = nets.DenoiserNet(spec, np.zeros(nets.param_count(spec), dtype=dtype))
        net.view("conv0.bias")[0] = z
        net.view("conv1.weight")[0, 0, 1, 1] = 1.0
        return net

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("z", [-1e4, -100.0, -89.0, 0.0, 89.0, 1e4])
    def test_cannot_overflow(self, z, dtype):
        net = self.silu_net(z, dtype)
        x = np.zeros((1, 1, 4, 4))
        with np.errstate(over="raise", invalid="raise"):
            out = nets.forward(net, x, 0.5)
            grads, _ = nets.backward(net, x, 0.5, None, np.ones_like(x))
        sig = 0.5 * (1.0 + np.tanh(0.5 * np.float64(dtype(z))))  # the logistic sigmoid, free of overflow
        silu, dsilu = z * sig, sig * (1.0 + z * (1.0 - sig))
        # below -limit the SiLU reads z / (1 + exp(limit)), |z| / 3e38 at most
        tol = dict(rtol=8 * np.finfo(dtype).eps, atol=1e-30)
        assert np.allclose(out, silu, **tol)
        assert np.allclose(net.with_params(grads).view("conv0.bias")[0], 16 * dsilu, **tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exponent_bound_is_the_largest_finite_exp(self, dtype):
        # so the bound changes nothing where exp did not overflow
        limit = nets._EXP_LIMIT[np.dtype(dtype)]
        assert limit.dtype == dtype
        with np.errstate(over="ignore"):
            assert np.isfinite(np.exp(limit)) and np.isinf(np.exp(np.nextafter(limit, dtype(np.inf))))


def sliding_window_conv3x3(x, weight):
    """The reference per-image conv: an im2col built as a reshape of a
    sliding-window view of the padded input, times the flattened kernel."""
    c_in, h, w = x.shape
    xp = np.zeros((c_in, h + 2, w + 2))
    xp[:, 1:-1, 1:-1] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    cols = windows.transpose(1, 2, 0, 3, 4).reshape(h * w, c_in * 9)
    out = cols @ weight.reshape(weight.shape[0], c_in * 9).T
    return out.T.reshape(weight.shape[0], h, w)


class TestConv3x3:
    @pytest.mark.parametrize("c_in", [1, 24])
    @pytest.mark.parametrize("c_out", [1, 24])
    @pytest.mark.parametrize("px", [8, 16])
    def test_matches_sliding_window_im2col(self, c_in, c_out, px):
        # The net convolves channel-major (C, n, H, W) chunks: a shifted-GEMM
        # conv for C_in > 1, a 9-row im2col for C_in = 1. Both sum in another
        # order than the oracle. Five images at 16 px span two chunks.
        rng = SeededRng(19)
        weight = rng.normal((c_out, c_in, 3, 3))
        for n in (1, 5):
            x = rng.normal((n, c_in, px, px))
            ref = np.stack([sliding_window_conv3x3(img, weight) for img in x])
            out = np.concatenate([nets._conv(x[sl].transpose(1, 0, 2, 3), weight)[0].transpose(1, 0, 2, 3)
                                  for sl in nets.chunks(x)])
            assert relative_error(out, ref) <= 1e-12, n

    @pytest.mark.parametrize("c_in", [1, 24])
    @pytest.mark.parametrize("c_out", [1, 24])
    def test_backward_matches_oracle(self, c_in, c_out):
        # weight gradient: correlation of the upstream with the padded input;
        # input gradient: the adjoint identity <conv(x), u> = <x, conv^T(u)>
        rng = SeededRng(22)
        x = rng.normal((3, c_in, 8, 8))
        weight = rng.normal((c_out, c_in, 3, 3))
        up = rng.normal((c_out, 3, 8, 8))
        out, saved = nets._conv(x.transpose(1, 0, 2, 3), weight)
        dw, dx = nets._conv_backward(up, saved, weight)
        xp = np.zeros((3, c_in, 10, 10))
        xp[:, :, 1:-1, 1:-1] = x
        ref_dw = np.einsum("onij,ncabij->ocab", up,
                           np.lib.stride_tricks.sliding_window_view(xp, (8, 8), axis=(2, 3)))
        assert relative_error(dw, ref_dw) <= 1e-12
        assert abs(np.sum(out * up) - np.sum(x.transpose(1, 0, 2, 3) * dx)) <= 1e-10 * np.sum(np.abs(out * up))


class TestGradientCheck:
    def test_linear_net_near_exact(self):
        spec = nets.NetSpec(channels=(1, 1), time_embed_dim=4, class_count=0)
        report = gradient_check(make_net(spec, seed=9), tolerance=1e-10, rng=SeededRng(10))
        assert report.passed, f"linear-net rel error {report.max_rel_error:.3e}"

    def test_three_layer_net(self):
        report = gradient_check(make_net(seed=11), tolerance=1e-4, rng=SeededRng(12))
        assert report.passed

    def test_corrupted_gradient_detected(self):
        # negative control: a perturbed analytic gradient must fail the check
        n = make_net(seed=13)
        rng = SeededRng(14)
        x = rng.normal((2, 1, 8, 8))
        up = rng.normal((2, 1, 8, 8))
        gp, _ = nets.backward(n, x, [0.4, 0.6], [0, 1], up)
        idx = np.sort(rng.choice(n.params.size, size=100))
        fd = finite_difference_param_grad(n, x, [0.4, 0.6], [0, 1], up, idx)
        assert relative_error(gp[idx], fd) < 1e-6
        corrupted = gp[idx] * 1.05 + 0.01
        assert relative_error(corrupted, fd) > 1e-4


class TestOptimizer:
    def test_zero_gradient_no_change(self):
        opt = nets.AdamW(lr=1e-2)
        params = np.array([1.0, -2.0])
        new, ok = opt.step(params, np.zeros(2))
        assert ok and np.array_equal(new, params)

    def test_clipping_to_unit_norm(self):
        g = np.array([6.0, 8.0])  # norm 10
        clipped = nets.clip_global_norm(g, 1.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0, rel=1e-12)
        a = nets.AdamW(lr=1e-3, clip_norm=1.0)
        b = nets.AdamW(lr=1e-3, clip_norm=1e9)
        pa, _ = a.step(np.zeros(2), g)
        pb, _ = b.step(np.zeros(2), g / 10.0)
        assert np.allclose(pa, pb, atol=1e-15)

    def test_float32_norm_does_not_overflow(self):
        # the norm of these float32 gradients overflows float32, not float64
        g = np.full(4, 1e20, dtype=np.float32)
        clipped = nets.clip_global_norm(g, 1.0)
        assert clipped.dtype == np.float32
        assert np.allclose(clipped, 0.5, rtol=1e-6)

    def test_three_step_recurrence_matches_hand_oracle(self):
        lr, b2, eps = 0.1, 0.999, 1e-8
        opt = nets.AdamW(lr=lr, clip_norm=1e9)
        p = np.array([1.0])
        g = np.array([0.5])
        v = 0.0
        expected = 1.0
        for t in range(1, 4):
            v = b2 * v + (1 - b2) * 0.25
            v_hat = v / (1 - b2**t)
            expected -= lr * 0.5 / (np.sqrt(v_hat) + eps)
            p, ok = opt.step(p, g)
            assert ok
            assert p[0] == pytest.approx(expected, rel=1e-14)

    def test_matches_the_first_moment_recurrence_bit_for_bit(self):
        # the AdamW recurrence with a first moment and weight decay, at the
        # recipe's beta1 = 0 and weight_decay = 0, is the oracle
        lr, clip_norm, b1, b2, eps, weight_decay = 0.05, 1.0, 0.0, 0.999, 1e-8, 0.0
        rng = SeededRng(7)
        opt = nets.AdamW(lr=lr, clip_norm=clip_norm)
        params = expected = rng.normal(64)
        m = v = np.zeros(64)
        t = 0
        for step in range(50):
            grads = rng.normal(64) * float(rng.uniform(0.0, 0.4))  # norms about 0 to 3
            if step % 7 == 3:
                grads[step] = np.nan
            params, ok = opt.step(params, grads)
            assert ok == (step % 7 != 3)
            if ok:
                g = nets.clip_global_norm(grads, clip_norm)
                t += 1
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                m_hat = m / (1.0 - b1**t)
                v_hat = v / (1.0 - b2**t)
                new = expected - lr * (m_hat / (np.sqrt(v_hat) + eps))
                expected = new - lr * weight_decay * expected if weight_decay else new
            assert np.array_equal(params, expected)
        assert opt.skipped == 7 and 0 < opt.clipped < opt.step_count == 43

    def test_clipped_and_skipped_steps_counted(self):
        opt = nets.AdamW(lr=1e-3, clip_norm=1.0)
        params = np.zeros(2)
        for g in ([6.0, 8.0], [0.3, 0.4], [np.nan, 0.0], [0.0, 2.0], [0.0, 1.0]):
            params, _ = opt.step(params, np.array(g))
        # norms 10, 0.5, nan, 2, 1: clipping only acts above clip_norm
        assert (opt.step_count, opt.clipped, opt.skipped) == (4, 2, 1)

    def test_non_finite_gradient_skipped(self):
        opt = nets.AdamW(lr=1.0)
        params = np.array([1.0])
        new, ok = opt.step(params, np.array([np.nan]))
        assert not ok and np.array_equal(new, params) and opt.skipped == 1


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        # bit for bit, in either dtype
        for dtype in (np.float32, np.float64):
            n = make_net(seed=15, dtype=dtype)
            path = tmp_path / f"{np.dtype(dtype).name}.ckpt"
            nets.save_checkpoint(path, n)
            loaded = nets.load_checkpoint(path)
            assert loaded.spec == n.spec
            assert loaded.params.dtype == dtype and bit_equal(loaded.params, n.params)

    def test_format_is_pinned(self, tmp_path):
        # magic, u32 version 2, u32 header length, JSON header, <f4 params
        spec = nets.NetSpec(channels=(1, 3, 1), time_embed_dim=4, class_count=2)
        path = tmp_path / "pinned.ckpt"
        nets.save_checkpoint(path, nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(7))))
        raw = path.read_bytes()
        header = b'{"channels": [1, 3, 1], "time_embed_dim": 4, "class_count": 2, "param_count": 94, "dtype": "float32"}'
        assert raw[:12] == b"XRDN" + struct.pack("<II", 2, len(header))
        assert raw[12 : 12 + len(header)] == header
        assert len(raw) == 12 + len(header) + 4 * 94
        assert hashlib.sha256(raw).hexdigest() == "18918f833da4ef76e4c1adf2c47f2589306c52850ec736fc24e8e3860f8fb46f"

    def test_refuses_version_1(self, tmp_path):
        # the float64 format before the header named its dtype
        spec = nets.NetSpec(channels=(1, 3, 1), time_embed_dim=4, class_count=2)
        path = tmp_path / "v1.ckpt"
        header = {"channels": [1, 3, 1], "time_embed_dim": 4, "class_count": 2, "param_count": 94}
        write_framed(path, nets.CHECKPOINT_MAGIC, 1, header, np.zeros(94, "<f8").tobytes())
        with pytest.raises(ValueError) as err:
            nets.load_checkpoint(path)
        assert str(err.value) == f"{path}: unsupported checkpoint version 1"

    @pytest.mark.parametrize("dtype", ["float16", "int64", None])
    def test_refuses_other_dtypes(self, tmp_path, dtype):
        path = tmp_path / "other.ckpt"
        header = {"channels": [1, 3, 1], "time_embed_dim": 4, "class_count": 2, "param_count": 94, "dtype": dtype}
        write_framed(path, nets.CHECKPOINT_MAGIC, 2, header, np.zeros(94, "<f8").tobytes())
        with pytest.raises(ValueError) as err:
            nets.load_checkpoint(path)
        assert str(err.value) == (f"{path}: unreadable checkpoint header (ValueError: dtype {dtype!r} "
                                  "is not one of ['float32', 'float64'])")

    def test_refuses_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            nets.load_checkpoint(path)

    def test_refuses_version_mismatch(self, tmp_path):
        n = make_net(seed=16)
        path = tmp_path / "net.ckpt"
        nets.save_checkpoint(path, n)
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # bump the little-endian version field
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            nets.load_checkpoint(path)

    @staticmethod
    def saved(tmp_path):
        path = tmp_path / "net.ckpt"
        nets.save_checkpoint(path, make_net(seed=17))
        return path, path.read_bytes()

    @pytest.mark.parametrize("missing", [1, 8])
    def test_refuses_truncated_payload(self, tmp_path, missing):
        path, raw = self.saved(tmp_path)
        path.write_bytes(raw[:-missing])
        expected = re.escape(f"{path}: expected {len(raw)} bytes from the header, found {len(raw) - missing}")
        with pytest.raises(ValueError, match=expected):
            nets.load_checkpoint(path)

    def test_refuses_padded_payload(self, tmp_path):
        path, raw = self.saved(tmp_path)
        path.write_bytes(raw + b"\x00" * 8)
        with pytest.raises(ValueError, match=re.escape(f"expected {len(raw)} bytes from the header")):
            nets.load_checkpoint(path)

    def test_refuses_file_cut_inside_header(self, tmp_path):
        path, raw = self.saved(tmp_path)
        (header_len,) = struct.unpack_from("<I", raw, 8)
        path.write_bytes(raw[: 12 + header_len // 2])
        expected = re.escape(
            f"{path}: truncated inside the header: expected at least {12 + header_len} bytes, "
            f"found {12 + header_len // 2}"
        )
        with pytest.raises(ValueError, match=expected):
            nets.load_checkpoint(path)
