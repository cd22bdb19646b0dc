"""Distillation engine: losses, stop-gradient contract, chain gradients,
stage sampling, and the training smoke test."""
import csv
import itertools
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from crossres import cascade, config as cfgmod, data, diffusion, distill, net as nets, schedule as sch
from crossres.diffusion import TeacherModel
from crossres.grid import SeededRng, bilinear_upsample
from numerics import relative_error

SPEC = nets.NetSpec(channels=(1, 4, 1), time_embed_dim=4, class_count=2)


def tiny_net(seed=0, spec=SPEC, dtype=np.float32):
    return nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(seed)).astype(dtype))


def desk_config(**overrides):
    base = dict(
        thresholds=(sch.sigma_to_logsnr(0.6),),
        resolutions=(8, 16),
        n_steps=4,
        alpha=0.2,
        alpha_inference=1.0,
        warmup_steps=2,
        steps=6,
        batch_size=2,
        lr_generator=2e-4,
        lr_fake=1e-3,
    )
    base.update(overrides)
    return distill.DistillConfig(**base)


def seed_on_stage(partition, stage, first_seed, draw=distill.sample_stage_and_sigma):
    """The first seed from first_seed on whose full-phase (stage, sigma)
    draw lands on `stage`; `draw` is bound here, so a test may patch the
    module's draw with one built on this."""
    return next(seed for seed in itertools.count(first_seed)
                if draw(partition, "full", SeededRng(seed))[0] == stage)


class TestPseudoHuber:
    def test_quadratic_regime(self):
        # loss ~ ||r||^2 / 2c within 1% for ||r|| <= c/10
        c = distill.pseudo_huber_constant(256)
        r = SeededRng(1).normal(256)
        r *= (c / 10.0) / np.linalg.norm(r)
        loss, _ = distill.pseudo_huber(r, c)
        approx = np.sum(r * r) / (2.0 * c)
        assert loss == pytest.approx(approx, rel=0.01)

    def test_linear_regime_slope_one(self):
        c = distill.pseudo_huber_constant(256)
        r = SeededRng(2).normal(256)
        direction = r / np.linalg.norm(r)
        a = distill.pseudo_huber(direction * 100.0 * c, c)[0]
        b = distill.pseudo_huber(direction * 110.0 * c, c)[0]
        slope = (b - a) / (10.0 * c)
        assert slope == pytest.approx(1.0, rel=0.01)

    def test_gradient_is_normalized_residual(self):
        c = 0.5
        r = np.array([0.3, -0.4])
        loss, grad = distill.pseudo_huber(r, c)
        root = np.sqrt(0.25 + 0.25)
        assert loss == pytest.approx(root - c, rel=1e-12)
        assert np.allclose(grad, r / root, atol=1e-12)

    def test_constant_rule(self):
        assert distill.pseudo_huber_constant(256) == pytest.approx(0.00054 * 16.0, rel=1e-12)


class TestSnrWeight:
    def test_half_is_one(self):
        assert distill.snr_weight(0.5, (1e-4, 1e4)) == 1.0

    def test_point_nine(self):
        assert distill.snr_weight(0.9, (1e-4, 1e4)) == pytest.approx((1 / 9) ** 2, rel=1e-9)

    def test_clamped_at_extremes(self):
        assert distill.snr_weight(1e-9, (1e-4, 1e4)) == 1e4
        assert distill.snr_weight(1.0, (1e-4, 1e4)) == 1e-4


class TestGeneratorLoss:
    def test_identical_fake_and_teacher_zero(self):
        net = tiny_net(3)
        x = SeededRng(4).normal((2, 1, 16, 16))
        loss, upstream = distill.generator_loss(x, 0.7, net, net, [0, 1])
        assert loss == 0.0
        assert not upstream.any()

    def test_quadratic_for_small_difference(self):
        teacher = tiny_net(5)
        fake = teacher.with_params(teacher.params + 1e-7)
        x = SeededRng(6).normal((1, 1, 16, 16))
        loss, _ = distill.generator_loss(x, 0.7, fake, teacher, [0])
        v_f = nets.forward(fake, x, 0.7, [0])
        v_t = nets.forward(teacher, x, 0.7, [0])
        r = 0.7 * (v_f - v_t)
        c = distill.pseudo_huber_constant(x.size)
        assert np.linalg.norm(r) < c / 10
        assert loss == pytest.approx(np.sum(r * r) / (2 * c), rel=0.01)

    def test_stop_gradient_contract(self):
        # the upstream gradient must equal that of the frozen-difference
        # objective averaged over the batch: r_i / sqrt(||r_i||^2 + c^2) / N
        # with r evaluated at the current fake/teacher values, c from the
        # size of one image
        teacher, fake = tiny_net(7), tiny_net(8)
        x = SeededRng(9).normal((2, 1, 16, 16))
        loss, upstream = distill.generator_loss(x, 0.6, fake, teacher, [1, 0])
        v_f = nets.forward(fake, x, 0.6, [1, 0])
        v_t = nets.forward(teacher, x, 0.6, [1, 0])
        r = 0.6 * (v_t - v_f)  # x0_fake - x0_teacher
        c = distill.pseudo_huber_constant(x[0].size)
        roots = np.sqrt(np.sum(r * r, axis=(1, 2, 3)) + c * c)
        expected = r / roots[:, None, None, None] / 2
        assert np.allclose(upstream, expected, atol=1e-12)
        assert loss == pytest.approx(np.mean(roots - c), rel=1e-12)


class TestFakeScoreLoss:
    def test_perfect_predictor_zero(self):
        fake = tiny_net(10)
        x = SeededRng(11).normal((2, 1, 16, 16))
        v = nets.forward(fake, x, 0.5, [0, 1])
        target = x - 0.5 * v
        loss, grads = distill.fake_score_loss(fake, x, 0.5, target, 0.5, [0, 1])
        assert loss == pytest.approx(0.0, abs=1e-24)
        assert np.allclose(grads, 0.0, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        fake = tiny_net(12, dtype=np.float64)
        rng = SeededRng(13)
        x = rng.normal((3, 1, 8, 8))
        target = rng.normal((3, 1, 8, 8))
        _, grads = distill.fake_score_loss(fake, x, 0.7, target, 0.8, [1, 0, 1])
        idx = rng.choice(fake.params.size, size=40)
        h = 1e-5
        fd = np.zeros(len(idx))
        for k, i in enumerate(idx):
            saved = fake.params[i]
            fake.params[i] = saved + h
            up = distill.fake_score_loss(fake, x, 0.7, target, 0.8, [1, 0, 1])[0]
            fake.params[i] = saved - h
            down = distill.fake_score_loss(fake, x, 0.7, target, 0.8, [1, 0, 1])[0]
            fake.params[i] = saved
            fd[k] = (up - down) / (2 * h)
        assert relative_error(grads[idx], fd) < 1e-6

    def test_clean_target_detached_from_generator(self):
        # perturbing generator parameters must not change the fake gradient
        # once the projected values are fixed
        fake = tiny_net(14)
        x = SeededRng(15).normal((1, 1, 16, 16))
        target = SeededRng(16).normal((1, 1, 16, 16))
        _, g1 = distill.fake_score_loss(fake, x, 0.5, target, 0.6, [0])
        _, g2 = distill.fake_score_loss(fake, x, 0.5, target, 0.6, [0])
        assert np.array_equal(g1, g2)


class TestStageSampling:
    def partition(self):
        return desk_config().partition()

    def test_warmup_restricted_to_first_half(self):
        p = self.partition()
        rng = SeededRng(17)
        for _ in range(200):
            stage, sigma_stage, sigma_target = distill.sample_stage_and_sigma(p, "warmup", rng)
            assert stage == 1
            lo, hi = p.stages[0].shifted_interval
            assert lo <= sigma_stage <= hi

    def test_full_phase_uniform_over_stages(self):
        from scipy import stats as sps

        p = self.partition()
        rng = SeededRng(18)
        counts = np.zeros(2)
        for _ in range(10_000):
            stage, _, _ = distill.sample_stage_and_sigma(p, "full", rng)
            counts[stage - 1] += 1
        chi = sps.chisquare(counts)
        assert chi.pvalue > 1e-4

    def test_sampled_timestep_inside_shifted_interval(self):
        p = self.partition()
        rng = SeededRng(19)
        for _ in range(200):
            stage, sigma_stage, sigma_target = distill.sample_stage_and_sigma(p, "full", rng)
            lo, hi = p.stages[stage - 1].shifted_interval
            assert lo <= sigma_stage <= hi
            tlo, thi = p.stages[stage - 1].teacher_interval
            assert tlo - 1e-12 <= sigma_target <= thi + 1e-12

    @pytest.mark.parametrize("phase", ["warmup", "full"])
    def test_sigma_draw_matches_timestep_arithmetic(self, phase):
        # the reference is the draw written in timesteps t = 1000 sigma:
        # uniform on the shifted interval in t, unshifted, then divided by 1000,
        # with the nearest step chosen in t; the sigma draw rounds differently
        # by a few ulp and picks the same stage and step
        p = cfgmod.toy_default().distill.partition()
        plan = cascade.CascadeRun(final=None, trace=cascade.schedule_trace(p, 4))
        records = plan.trace.records

        def reference(rng):
            k = p.num_stages
            stage = 1 + rng.choice_index(np.ones(distill.warmup_stage_count(k) if phase == "warmup" else k))
            lo, hi = p.stages[stage - 1].shifted_interval
            shifted_t = float(rng.uniform(1000.0 * lo, 1000.0 * hi))
            teacher_t = 1000.0 * p.stages[stage - 1].unshift(shifted_t / 1000.0)
            steps = [j for j, r in enumerate(records) if r.stage == stage]
            sel = min(steps, key=lambda j: abs(records[j].shifted_sigma * 1000.0 - shifted_t))
            return stage, shifted_t / 1000.0, teacher_t / 1000.0, sel

        def ulps(got, want):
            return abs(got - want) / np.spacing(abs(want))

        for seed in range(10_000):
            stage, sigma_stage, sigma_target = distill.sample_stage_and_sigma(p, phase, SeededRng(seed))
            ref_stage, ref_stage_sigma, ref_target, ref_sel = reference(SeededRng(seed))
            assert stage == ref_stage
            assert ulps(sigma_stage, ref_stage_sigma) <= 2
            assert ulps(sigma_target, ref_target) <= 4
            assert distill.select_state_index(plan, stage, sigma_stage) == ref_sel

    def test_warmup_count_floor(self):
        assert distill.warmup_stage_count(2) == 1
        assert distill.warmup_stage_count(3) == 1
        assert distill.warmup_stage_count(4) == 2
        assert distill.warmup_stage_count(1) == 1  # degenerate K=1 stays usable


class TestCascadeStates:
    def test_states_match_schedule(self):
        cfg = desk_config()
        p = cfg.partition()
        run = distill.generate_cascade_states(tiny_net(20), [0], cascade.schedule_trace(p, 4), [21])
        assert len(run.tape) == 4
        assert [r.stage for r in run.trace.records] == [1, 1, 2, 2]
        sigmas = [t.sigma_in for t in run.tape]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))

    def test_states_at_shifted_table_timesteps(self):
        # desk transposition of the 4-step 512->1024 schedule: recorded
        # states sit at shifted timesteps [1000, 857, 500, 250]
        p = sch.build_partition([sch.sigma_to_logsnr(0.502)], [8, 16])
        run = distill.generate_cascade_states(tiny_net(21), [1], cascade.schedule_trace(p, 4), [22])
        assert [round(t.sigma_in * 1000) for t in run.tape] == [1000, 857, 500, 250]

    def test_one_state_per_stage_when_n_equals_k(self):
        trace = cascade.schedule_trace(desk_config(n_steps=2).partition(), 2)
        run = distill.generate_cascade_states(tiny_net(22), [1], trace, [23])
        assert [r.stage for r in run.trace.records] == [1, 2]

    def test_select_state_nearest_in_shifted_time(self):
        cfg = desk_config()
        p = cfg.partition()
        run = distill.generate_cascade_states(tiny_net(24), [0], cascade.schedule_trace(p, 4), [25])
        t0 = run.tape[0].sigma_in
        t1 = run.tape[1].sigma_in
        assert distill.select_state_index(run, 1, t0) == 0
        assert distill.select_state_index(run, 1, t1 - 1e-3) == 1
        # equidistant draw resolves to the earlier step
        mid = 0.5 * (t0 + t1)
        assert distill.select_state_index(run, 1, mid) == 0


class TestUpsampleTransform:
    def test_sigma_zero_returns_clean_upsample(self):
        gen = tiny_net(26)
        x = SeededRng(27).normal((1, 1, 8, 8))
        _, clean_up, x_high = distill.upsample_transform(gen, x, 0.7, [0], 0.0, 0.2, 16, [SeededRng(28)])
        assert np.allclose(x_high, clean_up, atol=1e-14)

    def test_alpha_one_at_final_resolution_renoises_own_trajectory(self):
        # U = identity at the final resolution; with alpha = 1 the output is
        # the state's own straight-line point at the target noise level
        gen = tiny_net(29)
        x = SeededRng(30).normal((1, 1, 16, 16))
        _, _, x_high = distill.upsample_transform(gen, x, 0.5, [1], 0.8, 1.0, 16, [SeededRng(31)])
        v = nets.forward(gen, x, 0.5, [1])
        x0 = x - 0.5 * v
        assert np.allclose(x_high, x0 + 0.8 * v, atol=1e-12)

    def test_projection_is_the_cascade_transition(self):
        # from a stage-1 state, at the schedule's next sigma and the cascade's
        # alpha, the projection is the cascade's own transition
        cfg = desk_config(alpha_inference=0.5)
        trace = cascade.schedule_trace(cfg.partition(), cfg.n_steps)
        gen = tiny_net(40)
        class_ids, seeds = [1, 0], [41, 42]
        run = distill.generate_cascade_states(gen, class_ids, trace, seeds, cfg.alpha_inference)
        j = [r.transition for r in trace.records].index(True)
        src = run.tape[j]
        rngs = [SeededRng(seed) for seed in seeds]
        for rng in rngs:  # past the base noise
            rng.normal(src.x_in.shape[1:])
        tape, clean_up, x_high = distill.upsample_transform(
            gen, src.x_in, src.sigma_in, class_ids, trace.records[j + 1].shifted_sigma,
            cfg.alpha_inference, 16, rngs,
        )
        assert np.array_equal(x_high, run.tape[j + 1].x_in)
        assert tape.x_in is src.x_in
        assert (tape.sigma_in, tape.sigma_next, tape.alpha) == (src.sigma_in, src.sigma_next, src.alpha)
        v = nets.forward(gen, src.x_in, src.sigma_in, class_ids)
        assert np.array_equal(clean_up, bilinear_upsample(src.x_in - src.sigma_in * v, 16, 16))

    def test_alpha_zero_mean_contract(self):
        # for a constant input image with alpha = 0 the output mean is
        # (1 - sigma_t) * mean(clean estimate) up to Monte-Carlo error
        spec = nets.NetSpec(channels=(1, 1), time_embed_dim=4, class_count=0)
        gen = nets.DenoiserNet(spec, np.zeros(nets.param_count(spec)))
        x = np.full((200, 1, 8, 8), 0.5)
        rngs = [SeededRng(32 + k) for k in range(200)]
        _, _, x_high = distill.upsample_transform(gen, x, 0.3, [None] * 200, 0.6, 0.0, 16, rngs)
        assert x_high.mean() == pytest.approx((1 - 0.6) * 0.5, abs=0.01)


class TestChainGradient:
    @pytest.mark.parametrize(
        "stage, alpha_inference",
        [
            pytest.param(1, 1.0, id="stage1-alpha1.0"),
            pytest.param(2, 1.0, id="stage2-alpha1.0"),
            pytest.param(2, 0.9, id="stage2-alpha0.9"),
        ],
    )
    def test_full_chain_matches_finite_differences(self, stage, alpha_inference):
        # the end-to-end objective: cascade states -> projection ->
        # pseudo-Huber against the stop-gradient target. The oracle is a
        # central difference of the frozen-difference objective: the
        # target y is pinned at the base evaluation, exactly as the
        # stop-gradient prescribes, while the chain re-runs under the
        # perturbed generator. A stage-2 state is reached through the
        # cascade's transition, whose adjoint depends on alpha_inference.
        cfg = desk_config(alpha_inference=alpha_inference)
        p = cfg.partition()
        teacher, fake, gen = (tiny_net(seed, dtype=np.float64) for seed in (33, 34, 35))
        class_ids = [1, 0]
        seed = seed_on_stage(p, stage, 36)
        drawn, sigma_stage, sigma_target = distill.sample_stage_and_sigma(p, "full", SeededRng(seed))
        assert drawn == stage
        trace = cascade.schedule_trace(p, cfg.n_steps)

        def x_high_of(g: nets.DenoiserNet):
            run = distill.generate_cascade_states(g, class_ids, trace, [37, 137], cfg.alpha_inference)
            sel = distill.select_state_index(run, stage, sigma_stage)
            src = run.tape[sel]
            tape, _, x_high = distill.upsample_transform(
                g, src.x_in, src.sigma_in, class_ids, sigma_target, cfg.alpha, 16,
                [SeededRng(38), SeededRng(138)],
            )
            return run, sel, tape, x_high

        run, sel, tape, x_high = x_high_of(gen)
        assert any(t.alpha is not None for t in run.tape[:sel]) == (stage == 2)
        loss, upstream = distill.generator_loss(x_high, sigma_target, fake, teacher, class_ids)
        gp, d_state = distill.backward_transform(gen, tape, class_ids, upstream)
        gp = gp + distill.cascade_chain_backward(gen, run, sel, class_ids, d_state)

        # frozen stop-gradient target from the base x_high
        v_f = nets.forward(fake, x_high, sigma_target, class_ids)
        v_t = nets.forward(teacher, x_high, sigma_target, class_ids)
        y0 = x_high + sigma_target * (v_f - v_t)  # x_high + x0_teacher - x0_fake
        c = distill.pseudo_huber_constant(x_high[0].size)

        def loss_of(params: np.ndarray) -> float:
            x_high_p = x_high_of(gen.with_params(params))[-1]
            return np.mean([distill.pseudo_huber(r, c)[0] for r in x_high_p - y0])

        assert loss_of(gen.params) == pytest.approx(loss, rel=1e-12)
        rng = SeededRng(39)
        idx = rng.choice(gen.params.size, size=60)
        h = 1e-4
        fd = np.zeros(len(idx))
        base = gen.params.copy()
        for k, i in enumerate(idx):
            up_params = base.copy()
            up_params[i] += h
            down_params = base.copy()
            down_params[i] -= h
            fd[k] = (loss_of(up_params) - loss_of(down_params)) / (2 * h)
        # the exact chain is within 3e-5 of this central difference; recording
        # alpha 1.0 for a 0.9 transition is off by 8e-4
        assert relative_error(gp[idx], fd) < 1e-4


class TestTrainStep:
    def make_state(self, cfg):
        teacher = TeacherModel(net=tiny_net(40), trained_resolutions=[8, 16])
        return teacher, distill.init_distill_state(teacher, cfg)

    def test_warmup_gating_in_records(self):
        cfg = desk_config(warmup_steps=3, steps=6)
        teacher, state = self.make_state(cfg)
        p = cfg.partition()
        records = []
        rng = SeededRng(41)
        for step in range(cfg.steps):
            rec = distill.train_step(state, teacher.net, p, cfg, [0, 1], rng)
            records.append(rec)
        for rec in records:
            if rec.step < cfg.warmup_steps:
                assert rec.phase == "warmup" and rec.stage == 1
        assert any(rec.stage == 2 for rec in records if rec.step >= cfg.warmup_steps)

    @pytest.mark.parametrize("key, optimizer", [("lr_generator", "generator"), ("lr_fake", "fake score")])
    def test_diverging_update_names_its_optimizer(self, key, optimizer):
        # at this rate a float32 net overflows in its first update; the check
        # after the update names it, with no numpy warning on the way
        teacher = TeacherModel(net=tiny_net(40), trained_resolutions=[8, 16])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=rf"non-finite parameters after the {optimizer} update at step 0 "
                                                   r"phase warmup stage 1: tensor stats .*nonfinite=[1-9]"):
                distill.train(teacher, desk_config(**{key: 1e300}), SeededRng(46))

    def test_non_finite_loss_names_step_phase_stage(self):
        cfg = desk_config()
        teacher, state = self.make_state(cfg)
        state.fake.params[:] = np.nan
        with pytest.raises(RuntimeError, match=r"non-finite fake-score loss at step 0 phase warmup stage 1: "
                                               r"nan; tensor stats mean="):
            distill.train_step(state, teacher.net, cfg.partition(), cfg, [0, 1], SeededRng(45))

    def test_diverged_generator_names_step_phase_stage(self):
        # nan generator states reach the fake-score loss, which names the step
        cfg = desk_config()
        teacher, state = self.make_state(cfg)
        state.generator.params[:] = np.nan
        with pytest.raises(RuntimeError, match=r"non-finite fake-score loss at step 0 phase warmup stage 1: "
                                               r"nan; tensor stats nonfinite=(\d+)/\1$"):
            distill.train_step(state, teacher.net, cfg.partition(), cfg, [0, 1], SeededRng(45))

    def test_single_resolution_reduction(self):
        # alpha = 0 and a single stage at the final resolution: the step is
        # plain distribution matching (transform never changes resolution)
        cfg = desk_config(thresholds=(), resolutions=(16,), alpha=0.0, warmup_steps=0, n_steps=2)
        teacher, state = self.make_state(cfg)
        p = cfg.partition()
        assert p.num_stages == 1 and p.final_resolution == 16
        rec = distill.train_step(state, teacher.net, p, cfg, [0], SeededRng(42))
        assert rec.stage == 1

    def test_builds_the_schedule_once(self, monkeypatch):
        # the plan that selects the step is also the trace the cascades run
        cfg = desk_config()
        teacher, state = self.make_state(cfg)
        built, schedule = [], cascade.inference_schedule

        def counted(*args, **kwargs):
            built.append(args)
            return schedule(*args, **kwargs)

        monkeypatch.setattr(cascade, "inference_schedule", counted)
        distill.train_step(state, teacher.net, cfg.partition(), cfg, [0, 1], SeededRng(46))
        assert len(built) == 1

    @pytest.mark.parametrize("stage", [1, 2])
    def test_net_work_per_step(self, monkeypatch, stage):
        # Per image: sel cascade forwards, one projection, two in the
        # generator loss and one in the fake loss; backwards for the fake
        # loss, the projection and the sel chain steps. Only the projection
        # and chain backwards evaluate their forward again: the fake loss
        # hands its forward's cache to its backward. The batch runs through
        # each of these as one call per chunk, so the number of calls does
        # not grow with B while B fits one chunk (four 16 px images).
        counts = {}
        for b in (1, 3):
            cfg = replace(cfgmod.toy_default().distill, batch_size=b, warmup_steps=0)
            counts[b], sel = self.count_net_work(monkeypatch, cfg, stage)
            images = counts[b]["images"]
            assert images["forward"] == b * (sel + 4)
            assert images["backward"] == b * (sel + 2)
            assert images["reforward"] == b * (sel + 1)
        assert counts[1]["calls"] == counts[3]["calls"]

    def count_net_work(self, monkeypatch, cfg, stage):
        p = cfg.partition()
        spec = nets.NetSpec(channels=(1, 4, 4, 1), time_embed_dim=4, class_count=3)
        teacher = TeacherModel(net=tiny_net(46, spec), trained_resolutions=[8, 16])
        state = distill.init_distill_state(teacher, cfg)
        counts = {"calls": {"forward": 0, "backward": 0}, "images": {"forward": 0, "backward": 0, "reforward": 0}}
        selected = []

        def counted(name, fn):
            def wrapper(net, x, *args, **kwargs):
                counts["calls"][name] += 1
                counts["images"][name] += len(x)
                if name == "backward" and kwargs.get("cache", args[3] if len(args) > 3 else None) is None:
                    counts["images"]["reforward"] += len(x)
                return fn(net, x, *args, **kwargs)
            return wrapper

        draw = distill.sample_stage_and_sigma
        select = distill.select_state_index
        monkeypatch.setattr(distill, "sample_stage_and_sigma",
                            lambda part, phase, rng: draw(part, phase, SeededRng(seed_on_stage(part, stage, rng.seed))))

        def recording_select(*args):
            selected.append(select(*args))
            return selected[-1]

        monkeypatch.setattr(distill, "select_state_index", recording_select)
        monkeypatch.setattr(nets, "forward", counted("forward", nets.forward))
        monkeypatch.setattr(nets, "backward", counted("backward", nets.backward))
        class_ids = [k % 3 for k in range(cfg.batch_size)]
        rec = distill.train_step(state, teacher.net, p, cfg, class_ids, SeededRng(47))
        monkeypatch.undo()
        assert rec.stage == stage and len(selected) == 1
        return counts, selected[0]

    def read_log(self, path):
        with open(path, newline="") as f:
            return list(csv.reader(f))

    def test_log_header_is_the_record_fields(self, tmp_path):
        cfg = desk_config(steps=2)
        teacher, _ = self.make_state(cfg)
        _, records = distill.train(teacher, cfg, SeededRng(48), log_path=tmp_path / "log.csv")
        rows = self.read_log(tmp_path / "log.csv")
        assert rows[0] == [f.name for f in fields(distill.TrainStepRecord)]
        assert [row[0] for row in rows[1:]] == ["0", "1"] and len(records) == 2

    def test_aborted_run_keeps_the_finished_steps(self, tmp_path, monkeypatch):
        # each row is written as its step finishes: a run that dies at step k leaves k rows
        cfg = desk_config(steps=5)
        teacher, _ = self.make_state(cfg)
        step = distill.train_step

        def failing_step(state, *args):
            if state.step == 3:
                raise RuntimeError("failed at step 3")
            return step(state, *args)

        monkeypatch.setattr(distill, "train_step", failing_step)
        with pytest.raises(RuntimeError, match="failed at step 3"):
            distill.train(teacher, cfg, SeededRng(49), log_path=tmp_path / "log.csv")
        rows = self.read_log(tmp_path / "log.csv")
        assert rows[0] == [f.name for f in fields(distill.TrainStepRecord)]
        assert [row[0] for row in rows[1:]] == ["0", "1", "2"]

    @pytest.mark.slow
    def test_training_smoke_loss_drops(self):
        # 500 steps against a briefly-trained teacher at desk_config's
        # learning rates (2e-4 generator, 1e-3 fake). train_step updates the
        # fake score before the generator, so the generator loss
        # ||x0_fake - x0_teacher|| is already O(1) at step 0; its floor is how
        # closely the online fake tracks the generator. On every stage the
        # loss must not run away: the mean over a stage's last 50 draws stays
        # below 2x the mean over its first 50.
        dcfg = data.DataConfig(n_per_class_low=24, n_per_class_high=24)
        ds = data.generate_samples(dcfg, SeededRng(400))
        tcfg = diffusion.TeacherConfig(
            channels=(1, 12, 12, 1), phase1_steps=300, phase2_steps=300, batch_size=8
        )
        teacher, _ = diffusion.train_teacher(ds, tcfg, SeededRng(401))
        cfg = desk_config(warmup_steps=40, steps=500, batch_size=4)
        state = distill.init_distill_state(teacher, cfg)
        p = cfg.partition()
        rng = SeededRng(402)
        by_stage = {}
        batch_rng = rng.derive("classes")
        for step in range(cfg.steps):
            class_ids = [int(batch_rng.integers(0, 3)) for _ in range(cfg.batch_size)]
            rec = distill.train_step(state, teacher.net, p, cfg, class_ids, rng)
            by_stage.setdefault(rec.stage, []).append(rec.generator_loss)
        window = 50
        assert sorted(by_stage) == list(range(1, p.num_stages + 1))
        for stage, losses in sorted(by_stage.items()):
            first = float(np.mean(losses[:window]))
            last = float(np.mean(losses[-window:]))
            assert last < 2.0 * first, (
                f"stage {stage}: first {window} draws mean {first:.4g}, "
                f"last {window} draws mean {last:.4g}"
            )

    def test_determinism(self):
        cfg = desk_config(steps=3)
        teacher, state_a = self.make_state(cfg)
        _, state_b = self.make_state(cfg)
        p = cfg.partition()
        rng_a, rng_b = SeededRng(44), SeededRng(44)
        for _ in range(3):
            distill.train_step(state_a, teacher.net, p, cfg, [0, 1], rng_a)
            distill.train_step(state_b, teacher.net, p, cfg, [0, 1], rng_b)
        assert np.array_equal(state_a.generator.params, state_b.generator.params)
        assert np.array_equal(state_a.fake.params, state_b.fake.params)
