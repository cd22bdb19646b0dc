"""Forward process, teacher objective, and Euler sampling."""
import warnings

import numpy as np
import pytest

from crossres import data, diffusion, net as nets
from crossres.grid import SeededRng
from numerics import relative_error


class ConstantVelocityOracle:
    """Exact rectified-flow field toward a known x0: v(x, sigma) = (x - x0)/sigma."""

    def __init__(self, x0):
        self.x0 = np.asarray(x0)
        self.spec = nets.NetSpec(channels=(1, 1), time_embed_dim=4, class_count=0)
        self.params = np.zeros(nets.param_count(self.spec))


def oracle_forward(oracle, x, sigma, class_id=None):
    return (x - oracle.x0) / sigma


class TestAddNoise:
    def test_endpoints(self):
        x0 = SeededRng(1).normal((1, 4, 4))
        eps = SeededRng(2).normal((1, 4, 4))
        assert np.array_equal(diffusion.add_noise(x0, eps, 0.0), x0)
        assert np.array_equal(diffusion.add_noise(x0, eps, 1.0), eps)

    def test_midpoint_arithmetic(self):
        x0 = np.zeros((1, 2, 2))
        eps = 2.0 * np.ones((1, 2, 2))
        assert np.allclose(diffusion.add_noise(x0, eps, 0.5), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            diffusion.add_noise(np.zeros((1, 2, 2)), np.zeros((1, 4, 4)), 0.5)

    def test_affine_superposition(self):
        rng = SeededRng(3)
        x0a, x0b = rng.normal((1, 4, 4)), rng.normal((1, 4, 4))
        epsa, epsb = rng.normal((1, 4, 4)), rng.normal((1, 4, 4))
        lhs = diffusion.add_noise(2 * x0a + x0b, 2 * epsa + epsb, 0.3)
        rhs = 2 * diffusion.add_noise(x0a, epsa, 0.3) + diffusion.add_noise(x0b, epsb, 0.3)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestTeacherLoss:
    def test_perfect_predictor_zero_loss(self, monkeypatch):
        spec = nets.NetSpec(channels=(1, 1), time_embed_dim=4, class_count=0)
        net = nets.DenoiserNet(spec, np.zeros(nets.param_count(spec)))
        x0 = SeededRng(99).normal((3, 1, 8, 8))

        def perfect_forward(net_, x_t, sigma, class_ids=None, keep_cache=False):
            # reconstruct the true velocity from the interpolation identity;
            # no cache, so backward evaluates the real net itself
            v = (x_t - x0) / np.maximum(sigma, 1e-300)[:, None, None, None]
            return (v, None) if keep_cache else v

        monkeypatch.setattr(diffusion.nets, "forward", perfect_forward)
        rngs = [SeededRng(7 + k) for k in range(3)]
        loss, grads = diffusion.teacher_loss(net, x0, [None] * 3, rngs)
        assert loss == pytest.approx(0.0, abs=1e-18)

    def test_zero_net_unit_expected_loss(self):
        spec = nets.NetSpec(channels=(1, 1), time_embed_dim=4, class_count=0)
        zero = nets.DenoiserNet(spec, np.zeros(nets.param_count(spec)))
        x0 = np.zeros((500, 1, 8, 8))
        loss, _ = diffusion.teacher_loss(zero, x0, [None] * 500, [SeededRng(1000 + k) for k in range(500)])
        # E mean(eps^2) = 1; Monte-Carlo within 2%
        assert abs(loss - 1.0) < 0.02

    def test_batch_is_the_mean_of_single_images(self):
        spec = nets.NetSpec(channels=(1, 4, 1), time_embed_dim=4, class_count=2)
        net = nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(20)).astype(np.float64))
        x0 = SeededRng(21).normal((5, 1, 16, 16))
        ids = [0, 1, 1, 0, 1]
        loss, grads = diffusion.teacher_loss(net, x0, ids, [SeededRng(22 + k) for k in range(5)])
        singles = [diffusion.teacher_loss(net, x0[k : k + 1], ids[k : k + 1], [SeededRng(22 + k)])
                   for k in range(5)]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-12)
        assert relative_error(grads, np.mean([g for _, g in singles], axis=0)) <= 1e-12

    def test_divergence_aborts_with_diagnostics(self):
        cfg = data.DataConfig(n_per_class_low=4, n_per_class_high=6)
        ds = data.generate_samples(cfg, SeededRng(31))
        # an absurd learning rate drives the float32 parameters to overflow
        # in the first update, which names itself
        tcfg = diffusion.TeacherConfig(
            channels=(1, 6, 1), phase1_steps=0, phase2_steps=10, batch_size=4, lr=1e200
        )
        # the named error, and no numpy warning on the way to it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=r"non-finite parameters after the teacher update at step 0 "
                                                   r"phase high: tensor stats .*nonfinite=[1-9]"):
                diffusion.train_teacher(ds, tcfg, SeededRng(32))

    def test_loss_decreases_in_training_smoke(self):
        cfg = data.DataConfig(n_per_class_low=8, n_per_class_high=22)
        ds = data.generate_samples(cfg, SeededRng(5))
        tcfg = diffusion.TeacherConfig(
            channels=(1, 8, 8, 1), phase1_steps=0, phase2_steps=200,
            batch_size=8,
        )
        _, records = diffusion.train_teacher(ds, tcfg, SeededRng(6))
        losses = [r.loss for r in records]
        assert [r.step for r in records] == list(range(200))
        assert np.mean(losses[-20:]) < np.mean(losses[:20])

    def test_fixed_seed_bitwise_identical(self):
        cfg = data.DataConfig(n_per_class_low=4, n_per_class_high=6)
        ds = data.generate_samples(cfg, SeededRng(7))
        tcfg = diffusion.TeacherConfig(channels=(1, 6, 1), phase1_steps=20, phase2_steps=20, batch_size=4)
        (a, log_a), (b, log_b) = (diffusion.train_teacher(ds, tcfg, SeededRng(8)) for _ in range(2))
        assert np.array_equal(a.net.params, b.net.params)
        assert log_a == log_b

    def test_high_res_only_configuration(self):
        cfg = data.DataConfig(n_per_class_low=4, n_per_class_high=6)
        ds = data.generate_samples(cfg, SeededRng(9))
        tcfg = diffusion.TeacherConfig(channels=(1, 6, 1), phase1_steps=0, phase2_steps=10, batch_size=4)
        model, records = diffusion.train_teacher(ds, tcfg, SeededRng(10))
        assert model.trained_resolutions == [16]
        assert [(r.phase, r.step) for r in records] == [("high", step) for step in range(10)]


class TestTensorStats:
    def test_stats_over_finite_entries(self):
        arr = np.array([1.0, np.nan, 3.0, np.inf])
        assert diffusion.tensor_stats(arr) == "mean=2 std=1 min=1 max=3 nonfinite=2/4"

    def test_huge_finite_entries_do_not_overflow(self):
        # a diverged net's parameters are finite but near the largest float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert diffusion.tensor_stats(np.array([1e300, -1e300, 3.0])) == (
                "mean=1 std=8.165e+299 min=-1e+300 max=1e+300 nonfinite=0/3")
            assert diffusion.tensor_stats(np.full(4, 1e308)) == (
                "mean=1e+308 std=0 min=1e+308 max=1e+308 nonfinite=0/4")

    def test_all_zero_entries(self):
        assert diffusion.tensor_stats(np.zeros(3)) == "mean=0 std=0 min=0 max=0 nonfinite=0/3"

    def test_all_nan_reads_count_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert diffusion.tensor_stats(np.full((2, 1, 8, 12), np.nan)) == "nonfinite=192/192"


class TestEulerSampler:
    def test_one_step_recovers_x0_for_constant_velocity(self):
        x0 = SeededRng(11).normal((1, 8, 8))
        oracle = ConstantVelocityOracle(x0)
        eps = SeededRng(12).normal((1, 8, 8))
        # Euler from sigma=1: x - 1 * (x - x0)/1 = x0 exactly
        v = oracle_forward(oracle, eps, 1.0)
        assert np.allclose(eps - 1.0 * v, x0, atol=1e-12)

    def test_two_half_steps_equal_one_full_step(self):
        x0 = SeededRng(13).normal((1, 8, 8))
        oracle = ConstantVelocityOracle(x0)
        x = SeededRng(14).normal((1, 8, 8))
        one = x - 1.0 * oracle_forward(oracle, x, 1.0)
        half = x - 0.5 * oracle_forward(oracle, x, 1.0)
        two = half - 0.5 * oracle_forward(oracle, half, 0.5)
        assert np.allclose(one, two, atol=1e-12)

    def test_sampling_deterministic(self):
        spec = nets.NetSpec(channels=(1, 4, 1), time_embed_dim=4, class_count=2)
        net = nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(15)))
        a = diffusion.euler_sample(net, [0, 1], 8, 4, [16, 17])
        b = diffusion.euler_sample(net, [0, 1], 8, 4, [16, 17])
        assert a.shape == (2, 1, 8, 8)
        assert np.array_equal(a, b)


def linspace_euler(net, class_ids, res, steps, seeds):
    """The plain Euler loop on a uniform sigma grid np.linspace(1, 0, N + 1),
    independent of the cascade's schedule: the oracle of `euler_sample`."""
    sched = np.linspace(1.0, 0.0, steps + 1)
    x = np.stack([SeededRng(seed).normal((net.spec.channels[0], res, res)) for seed in seeds])
    for j in range(steps):
        x = x - (sched[j] - sched[j + 1]) * nets.forward(net, x, float(sched[j]), class_ids)
    return x


class TestEulerSampleIsTheOneStageCascade:
    SPEC = nets.NetSpec(channels=(1, 4, 1), time_embed_dim=4, class_count=3)
    CLASS_IDS = [0, 1, 2, 2, 0, 1]
    SEEDS = [40 + k for k in range(6)]

    def net(self, dtype=np.float32):
        return nets.DenoiserNet(self.SPEC, nets.init_params(self.SPEC, SeededRng(41)).astype(dtype))

    @pytest.mark.parametrize("res", [8, 16])
    @pytest.mark.parametrize("steps", [8, 32])
    def test_bitwise_equal_to_linspace_loop(self, res, steps):
        # with one stage and flow shift 1, the schedule's knots are linspace's
        net = self.net()
        got = diffusion.euler_sample(net, self.CLASS_IDS, res, steps, self.SEEDS)
        assert np.array_equal(got, linspace_euler(net, self.CLASS_IDS, res, steps, self.SEEDS))

    @pytest.mark.parametrize("res", [8, 16])
    def test_within_an_ulp_of_linspace_loop_off_powers_of_two(self, res):
        # for N not a power of two the knots can differ from linspace's by an
        # ulp; the bound is float64's
        net = self.net(np.float64)
        got = diffusion.euler_sample(net, self.CLASS_IDS, res, 10, self.SEEDS)
        want = linspace_euler(net, self.CLASS_IDS, res, 10, self.SEEDS)
        assert np.max(np.abs(got - want)) <= 1e-15
