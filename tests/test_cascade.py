"""Cascaded inference state machine: traces, transitions, noise mixing."""
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from crossres import cascade, config as cfgmod, evalsuite as ev, net as nets, schedule as sch
from crossres.grid import SeededRng, bilinear_upsample, bilinear_upsample_t
from numerics import GaussianModel, gaussian_cascade_moments, relative_error


def desk_partition(split_sigma=0.6, resolutions=(8, 16), flow_shift=1.0):
    return sch.build_partition([sch.sigma_to_logsnr(split_sigma)], list(resolutions), flow_shift)


def random_net(seed=0, class_count=3, dtype=np.float32):
    spec = nets.NetSpec(channels=(1, 5, 1), time_embed_dim=4, class_count=class_count)
    return nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(seed)).astype(dtype))


class TestMixNoise:
    def test_alpha_zero_is_gaussian(self):
        p, g = np.ones((1, 2, 2)), 2 * np.ones((1, 2, 2))
        assert np.array_equal(cascade.mix_noise(p, g, 0.0), g)

    def test_alpha_one_is_predicted(self):
        p, g = np.ones((1, 2, 2)), 2 * np.ones((1, 2, 2))
        assert np.array_equal(cascade.mix_noise(p, g, 1.0), p)

    def test_alpha_02_weights(self):
        # beta = sqrt(1 - 0.04) = 0.9797958971132712
        p, g = np.ones((1, 1, 1)), np.ones((1, 1, 1))
        got = cascade.mix_noise(p, g, 0.2)[0, 0, 0]
        assert got == pytest.approx(0.2 + 0.9797958971132712, rel=1e-12)

    def test_unit_variance_preserved(self):
        rng = SeededRng(1)
        p, g = rng.normal(200_000), rng.normal(200_000)
        mixed = cascade.mix_noise(p[None, None], g[None, None], 0.6)
        assert abs(mixed.var() - 1.0) < 0.02

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cascade.mix_noise(np.zeros((1, 2, 2)), np.zeros((1, 3, 3)), 0.5)
        with pytest.raises(ValueError):
            cascade.mix_noise(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), 1.5)


class TestInfer:
    def test_single_stage_has_no_transitions(self):
        p = sch.build_partition([], [8])
        out, trace = cascade.infer(random_net(), cascade.CascadeParams(p, n_steps=4, class_id=0, seed=3))
        assert out.shape == (1, 8, 8)
        assert trace.transitions() == 0
        assert [r.resolution for r in trace.records] == [8, 8, 8, 8]

    def test_desk_scale_two_stage_trace(self):
        p = desk_partition()
        out, trace = cascade.infer(random_net(), cascade.CascadeParams(p, n_steps=4, class_id=1, seed=4))
        assert out.shape == (1, 16, 16)
        assert [r.resolution for r in trace.records] == [8, 8, 16, 16]
        assert [r.transition for r in trace.records] == [False, True, False, False]
        assert trace.transitions() == 1

    def test_constant_velocity_oracle_alpha_one_exact(self, monkeypatch):
        # With the exact linear-flow field and alpha = 1 the cascade output
        # equals the upsampled oracle target: Euler is exact on straight
        # trajectories and the transition continues the trajectory.
        x0_low = SeededRng(5).normal((1, 8, 8))

        def oracle_forward(net, x, sigma, class_id=None):
            res = x.shape[-1]
            target = x0_low if res == 8 else bilinear_upsample(x0_low, res, res)
            return (x - target) / sigma

        monkeypatch.setattr(cascade.nets, "forward", oracle_forward)
        p = desk_partition()
        out, trace = cascade.infer(random_net(), cascade.CascadeParams(p, 4, 1.0, None, seed=6))
        assert np.allclose(out, bilinear_upsample(x0_low, 16, 16), atol=1e-10)
        assert trace.transitions() == 1

    def test_bitwise_deterministic(self):
        p = desk_partition()
        net = random_net(7)
        params = cascade.CascadeParams(p, n_steps=5, alpha_inference=0.5, class_id=2, seed=8)
        out1, trace1 = cascade.infer(net, params)
        out2, trace2 = cascade.infer(net, params)
        assert np.array_equal(out1, out2)
        assert trace1 == trace2

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_alpha_sweep_finite(self, alpha):
        p = desk_partition()
        out, _ = cascade.infer(
            random_net(9), cascade.CascadeParams(p, n_steps=4, alpha_inference=alpha, class_id=0, seed=10)
        )
        assert np.all(np.isfinite(out))
        assert np.abs(out).max() < 100.0

    def test_rejects_stage_without_steps(self):
        # boundaries so tight that stage 2 owns no step of the N-grid
        p = sch.build_partition(
            [sch.sigma_to_logsnr(0.95), sch.sigma_to_logsnr(0.9)], [4, 8, 16]
        )
        with pytest.raises(cascade.CascadeError, match="stage"):
            cascade.infer(random_net(11), cascade.CascadeParams(p, n_steps=3, class_id=0, seed=12))

    def test_rejects_fewer_steps_than_stages(self):
        p = desk_partition()
        with pytest.raises(ValueError):
            cascade.infer(random_net(11), cascade.CascadeParams(p, n_steps=1, class_id=0, seed=13))


def pooled_gaussian_models(final_res=8, rank=12):
    """A random Gaussian data model at `final_res` and its 2^k x 2^k area
    pools at every coarser power-of-two resolution."""
    rng = SeededRng(30)
    d = final_res * final_res
    basis = rng.normal((d, rank))
    cov = 0.2 / rank * basis @ basis.T + 0.02 * np.eye(d)
    mean = 0.5 + 0.3 * rng.normal(d)
    models, res = {}, final_res
    while res >= 1:
        f = final_res // res
        pool_axis = np.kron(np.eye(res), np.ones(f) / f)
        pool = np.kron(pool_axis, pool_axis)
        models[res] = GaussianModel(pool @ mean, pool @ cov @ pool.T)
        res //= 2
    return models


class TestGaussianOracle:
    """On Gaussian data the velocity is affine, so the cascade's output is
    Gaussian with a closed-form mean and covariance. Arms drawn through
    `evalsuite.sample_cascade_set` with that velocity as the net must
    match it.

    The bound: for M draws of N(m, S), the sample mean misses m by
    sqrt(tr S / M) and the sample covariance misses S by
    sqrt((||S||_F^2 + (tr S)^2) / M) in Frobenius norm, root mean square.
    Both errors must stay within 3 times that. The draws are seeded; on
    them the largest ratio is 1.2. Re-injecting the fresh noise with weight
    1 - alpha in place of sqrt(1 - alpha^2) puts the covariance error of
    every alpha = 0.5 transition case at 7 to 8 times its scale.
    """

    DRAWS = 2000
    PARTITIONS = {
        1: sch.build_partition([], [8]),
        2: sch.build_partition([sch.sigma_to_logsnr(0.6)], [4, 8]),
        3: sch.build_partition([sch.sigma_to_logsnr(0.8), sch.sigma_to_logsnr(0.45)], [2, 4, 8]),
    }

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("stages, n_steps", [(1, 2), (1, 4), (2, 2), (2, 4), (3, 3), (3, 5)])
    def test_sample_moments_match_closed_form(self, monkeypatch, stages, n_steps, alpha):
        models = pooled_gaussian_models()
        monkeypatch.setattr(cascade.nets, "forward",
                            lambda net, x, sigma, class_ids=None: models[x.shape[-1]].velocity(x, sigma))
        trace = cascade.schedule_trace(self.PARTITIONS[stages], n_steps)
        arm = ev.Arm("gaussian", random_net(class_count=0), trace, alpha)
        x = ev.sample_cascade_set(arm, self.DRAWS, 0, SeededRng(31)).flat()
        mean, cov = gaussian_cascade_moments(models, trace, alpha)
        mean_scale = np.sqrt(np.trace(cov) / self.DRAWS)
        cov_scale = np.sqrt((np.linalg.norm(cov) ** 2 + np.trace(cov) ** 2) / self.DRAWS)
        assert np.linalg.norm(x.mean(axis=0) - mean) <= 3.0 * mean_scale
        assert np.linalg.norm(np.cov(x.T) - cov) <= 3.0 * cov_scale


class TestCutShort:
    def setup_method(self):
        d = cfgmod.toy_default().distill
        self.partition, self.n_steps = d.partition(), d.n_steps
        self.trace = cascade.schedule_trace(self.partition, self.n_steps)

    def run(self, net, **kwargs):
        return cascade.run_cascade(net, self.trace, 1.0, [2], [22], **kwargs)

    def test_equals_prefix_of_full_run(self, monkeypatch):
        net = random_net(23)
        full = self.run(net, keep_tape=True)
        forward, calls = cascade.nets.forward, []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return forward(*args, **kwargs)

        monkeypatch.setattr(cascade.nets, "forward", counted)
        for stop in range(self.n_steps):
            calls.clear()
            cut = self.run(net, keep_tape=True, stop=stop)
            assert len(calls) == stop
            assert np.array_equal(cut.final, full.tape[stop].x_in)
            assert len(cut.tape) == stop
            for a, b in zip(cut.tape, full.tape[:stop]):
                assert np.array_equal(a.x_in, b.x_in)
                assert (a.sigma_in, a.sigma_next, a.alpha) == (b.sigma_in, b.sigma_next, b.alpha)
            assert cut.trace == full.trace
            cut.trace.validate(self.partition)

    def test_stop_at_end_is_the_full_run(self):
        net = random_net(24)
        full = self.run(net)
        cut = self.run(net, stop=self.n_steps)
        assert np.array_equal(cut.final, full.final)

    @pytest.mark.parametrize("stop", [-1, 5])
    def test_rejects_stop_outside_schedule(self, stop):
        with pytest.raises(ValueError, match="stop"):
            self.run(random_net(25), stop=stop)


class TestBatch:
    def test_lock_step_batch_matches_single_samples(self):
        # Each sample keeps its own noise stream; the batched net sums in
        # another order, so the samples agree to rounding.
        p = desk_partition()
        net = random_net(26, dtype=np.float64)
        class_ids, seeds = [k % 3 for k in range(5)], [30 + k for k in range(5)]
        run = cascade.run_cascade(net, cascade.schedule_trace(p, 4), 0.5, class_ids, seeds)
        assert run.final.shape == (5, 1, 16, 16)
        for class_id, seed, image in zip(class_ids, seeds, run.final):
            single, trace = cascade.infer(net, cascade.CascadeParams(p, 4, 0.5, class_id, seed))
            assert relative_error(image, single) <= 1e-12
            assert trace == run.trace

    def test_rejects_class_ids_not_matching_seeds(self):
        trace = cascade.schedule_trace(desk_partition(), 4)
        with pytest.raises(ValueError, match="one class id per seed"):
            cascade.run_cascade(random_net(27), trace, 0.5, [0, 1], [1])

    def test_rejects_empty_batch(self):
        trace = cascade.schedule_trace(desk_partition(), 4)
        with pytest.raises(ValueError, match="at least one"):
            cascade.run_cascade(random_net(27), trace, 0.5, [], [])


class TestStepForward:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_replaying_the_tape_reproduces_the_run(self, alpha):
        # every recorded step, run again, gives the next step's input, and
        # the last gives the samples
        net = random_net(45)
        class_ids, seeds = [0, 2], [46, 47]
        trace = cascade.schedule_trace(desk_partition(), 4)
        run = cascade.run_cascade(net, trace, alpha, class_ids, seeds, keep_tape=True)
        assert [t.alpha is not None for t in run.tape] == [r.transition for r in trace.records]
        rngs = [SeededRng(seed) for seed in seeds]
        for rng in rngs:  # past the base noise
            rng.normal(run.tape[0].x_in.shape[1:])
        next_res = [r.resolution for r in trace.records[1:]] + [16]
        outs = [cascade.step_forward(net, t, class_ids, res, rngs) for t, res in zip(run.tape, next_res)]
        assert [clean_up is None for _, clean_up in outs] == [t.alpha is None for t in run.tape]
        for (x_next, _), t in zip(outs, run.tape[1:]):
            assert np.array_equal(x_next, t.x_in)
        assert np.array_equal(outs[-1][0], run.final)


def two_transpose_step_vjp(net, tape, class_ids, d_next):
    """The transition adjoint that transposed the upsample once per
    scaled copy of d_next: the reference for the one-transpose form."""
    src_h, src_w = tape.x_in.shape[-2:]
    sn, a = tape.sigma_next, tape.alpha
    d_x0 = bilinear_upsample_t(((1.0 - sn) + sn * a) * d_next, src_h, src_w)
    d_v = bilinear_upsample_t(sn * a * d_next, src_h, src_w) - tape.sigma_in * d_x0
    grads, gx = nets.backward(net, tape.x_in, tape.sigma_in, class_ids, d_v)
    return grads, d_x0 + gx


class TestTransitionAdjoint:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_one_transpose_matches_two(self, alpha, monkeypatch):
        net = random_net(40)
        class_ids = [0, 2, 1]
        run = cascade.run_cascade(net, cascade.schedule_trace(desk_partition(), 4), alpha, class_ids,
                                  [41, 42, 43], keep_tape=True)
        (tape,) = [t for t in run.tape if t.alpha is not None]
        d_next = SeededRng(44).normal((3, 1, 16, 16))
        ref_grads, ref_dx = two_transpose_step_vjp(net, tape, class_ids, d_next)
        calls = []
        monkeypatch.setattr(cascade, "bilinear_upsample_t", lambda *a: calls.append(a) or bilinear_upsample_t(*a))
        grads, dx = cascade.step_vjp(net, tape, class_ids, d_next)
        assert len(calls) == 1
        assert relative_error(dx, ref_dx) <= 1e-13
        assert relative_error(grads, ref_grads) <= 1e-13


class TestNaiveCascade:
    def test_structurally_identical_trace(self):
        p = desk_partition()
        net = random_net(14)
        params = cascade.CascadeParams(p, n_steps=4, alpha_inference=0.0, class_id=0, seed=15)
        out_a, trace_a = cascade.infer(net, params)
        out_b, trace_b = cascade.infer(net, params)
        assert np.array_equal(out_a, out_b)
        assert trace_a == trace_b

    def test_produces_valid_high_res_output(self):
        p = desk_partition()
        out, trace = cascade.infer(
            random_net(16), cascade.CascadeParams(p, n_steps=6, class_id=1, seed=17)
        )
        assert out.shape == (1, 16, 16)
        trace.validate(p)


def restaged(records, p, stages):
    """A trace of these rows with these stages, each at its stage's
    resolution and with the transition flags its stages imply."""
    after = stages[1:] + [p.num_stages]
    return cascade.InferenceTrace([
        replace(r, stage=s, resolution=p.stages[s - 1].resolution, transition=s != n)
        for r, s, n in zip(records, stages, after)
    ])


def three_stage_trace():
    # 4/8/16 px, N = 6: two steps per stage
    p = sch.build_partition([sch.sigma_to_logsnr(0.7), sch.sigma_to_logsnr(0.4)], [4, 8, 16])
    trace = cascade.schedule_trace(p, 6)
    assert [r.stage for r in trace.records] == [1, 1, 2, 2, 3, 3]
    return trace, p


def two_stage_trace():
    p = desk_partition()
    return cascade.schedule_trace(p, 4), p


def edit_record(trace, j, **changes):
    records = list(trace.records)
    records[j] = replace(records[j], **changes)
    return cascade.InferenceTrace(records)


class TestTraceValidation:
    # each corruption breaks one invariant and keeps the others
    @pytest.mark.parametrize("make, corrupt, message", [
        (three_stage_trace, lambda t, p: restaged(t.records[:2] + t.records[4:], p, [1, 1, 3, 3]),
         "schedule visits stages"),
        (three_stage_trace, lambda t, p: restaged(t.records, p, [1, 1, 3, 3, 2, 2]), "schedule visits stages"),
        (two_stage_trace, lambda t, p: edit_record(t, 0, resolution=16), "runs at 16 px"),
        (two_stage_trace, lambda t, p: edit_record(t, 0, transition=True), "transition = True"),
        (two_stage_trace, lambda t, p: edit_record(t, 2, teacher_sigma=t.records[1].teacher_sigma),
         "sigma must fall"),
    ], ids=["skipped-stage", "stage-out-of-order", "wrong-resolution", "flipped-transition",
            "sigma-not-falling"])
    def test_each_invariant_is_checked(self, make, corrupt, message):
        trace, p = make()
        trace.validate(p)
        with pytest.raises(cascade.CascadeError, match=message):
            corrupt(trace, p).validate(p)

    def test_corrupted_transition_count_caught(self):
        p = desk_partition()
        _, trace = cascade.infer(random_net(18), cascade.CascadeParams(p, 4, 1.0, 0, 19))
        bad = cascade.InferenceTrace([replace(r, transition=False) for r in trace.records])
        with pytest.raises(cascade.CascadeError):
            bad.validate(p)

    def test_csv_write(self, tmp_path):
        p = desk_partition()
        _, trace = cascade.infer(random_net(20), cascade.CascadeParams(p, 4, 1.0, 0, 21))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        # the columns are ScheduleStep's fields; floats by repr, the transition flag as 0/1
        assert lines[0].split(",") == [f.name for f in fields(sch.ScheduleStep)]
        assert len(lines) == 5
        for line, record in zip(lines[1:], trace.records):
            assert line.split(",") == [str(int(v) if isinstance(v, bool) else v) for v in astuple(record)]
