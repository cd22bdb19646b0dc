"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavy criteria (6, 7, 8) share the session-scoped toy pipeline
fixtures from conftest.
"""
import math

import numpy as np
import pytest

from crossres import cascade, data, distill, evalsuite as ev, net as nets, schedule as sch
from crossres.cli import main as cli
from crossres.grid import SeededRng, bilinear_upsample, bilinear_upsample_t
from numerics import gradient_check, relative_error


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


class TestCriterion01ScheduleGoldens:
    """Resolution-shifted timestep anchors and step grids."""

    def test_table_anchors(self):
        sdxl = sch.build_partition([sch.sigma_to_logsnr(0.502)], [512, 1024], 1.0)
        sd35 = sch.build_partition([-2.5], [512, 1024], 3.0)
        wan = sch.build_partition([sch.sigma_to_logsnr(0.87)], [480, 720], 5.0)
        anchors = [
            (sdxl, 750.0, 857),
            (sd35, 900.0, 947),
            (wan, 962.0, 974),
            (wan, 909.0, 937),
        ]
        for partition, teacher_t, expected in anchors:
            stage = partition.stage_of(teacher_t / sch.T_MAX)
            shifted = sch.T_MAX * stage.shift(teacher_t / sch.T_MAX)
            assert stage.index == 1
            assert abs(round(shifted) - expected) <= 1, (teacher_t, shifted, expected)

        rows = sch.inference_schedule(4, sd35)
        assert [round(sch.T_MAX * r.teacher_sigma) for r in rows] == [1000, 900, 750, 500]

        wan_rows = sch.inference_schedule(6, wan)
        for row, ref in zip(wan_rows, [1000, 962, 909, 834, 716, 505]):
            assert abs(sch.T_MAX * row.teacher_sigma - ref) <= 6.0
        for row, ref in zip(wan_rows[:3], [1000, 974, 937]):
            assert abs(round(sch.T_MAX * row.shifted_sigma) - ref) <= 1
        _report("1", "shift anchors 857/947/974/937 within +-1; grids within stated bands")


class TestCriterion02SpeedupAccounting:
    def test_speedups(self):
        sd35 = ev.cost_model_speedup((40, 1024, 2.0), [(2, 512), (2, 1024)], gamma=1.0)
        assert sd35 == pytest.approx(32.0, abs=1e-9)
        sdxl = ev.cost_model_speedup((40, 1024, 2.0), [(2, 512), (2, 1024)], gamma=1.0)
        sdxl_g2 = ev.cost_model_speedup((40, 1024, 2.0), [(2, 512), (2, 1024)], gamma=2.0)
        assert sdxl <= 33.4 <= sdxl_g2  # paper value inside the gamma bracket
        base = (50, (1280, 720), 2.0)
        method = [(3, (832, 480)), (3, (1280, 720))]
        wan_g1 = ev.cost_model_speedup(base, method, gamma=1.0)
        wan_g2 = ev.cost_model_speedup(base, method, gamma=2.0)
        assert abs(wan_g1 - 23.3) < 0.1
        assert abs(wan_g2 - 28.0) < 0.1
        assert wan_g1 < 25.6 < wan_g2
        _report("2", f"sd35 {sd35:.1f}x exact; wan brackets {wan_g1:.1f}..{wan_g2:.1f}")


class TestCriterion03NumericalCorrectness:
    def test_denoiser_gradients(self):
        spec = nets.NetSpec(channels=(1, 8, 8, 1), time_embed_dim=6, class_count=3)
        net = nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(11)).astype(np.float64))
        assert net.params.size <= 10_000
        report = gradient_check(net, tolerance=1e-4, rng=SeededRng(12), n_param_probes=250)
        assert report.passed, f"denoiser FD error {report.max_rel_error:.2e}"
        _report("3a", f"denoiser FD rel error {report.max_rel_error:.2e} < 1e-4")

    def test_full_chain_gradient(self):
        spec = nets.NetSpec(channels=(1, 4, 1), time_embed_dim=4, class_count=2)
        gen, teacher, fake = (nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(seed)).astype(np.float64))
                              for seed in (13, 14, 15))
        p = sch.build_partition([sch.sigma_to_logsnr(0.6)], [8, 16])
        stage, sigma_stage, sigma_target = distill.sample_stage_and_sigma(p, "full", SeededRng(16))
        class_ids = [0]
        trace = cascade.schedule_trace(p, 4)

        def chain(g):
            run = distill.generate_cascade_states(g, class_ids, trace, [17], 1.0)
            sel = distill.select_state_index(run, stage, sigma_stage)
            src = run.tape[sel]
            tape, _, x_high = distill.upsample_transform(
                g, src.x_in, src.sigma_in, class_ids, sigma_target, 0.2, 16, [SeededRng(18)]
            )
            return run, sel, tape, x_high

        run, sel, tape, x_high = chain(gen)
        _, upstream = distill.generator_loss(x_high, sigma_target, fake, teacher, class_ids)
        grads, d_state = distill.backward_transform(gen, tape, class_ids, upstream)
        grads = grads + distill.cascade_chain_backward(gen, run, sel, class_ids, d_state)

        v_f = nets.forward(fake, x_high, sigma_target, class_ids)
        v_t = nets.forward(teacher, x_high, sigma_target, class_ids)
        y0 = x_high + sigma_target * (v_f - v_t)
        c = distill.pseudo_huber_constant(x_high.size)

        def loss_of(params):
            return distill.pseudo_huber(chain(gen.with_params(params))[-1] - y0, c)[0]

        idx = SeededRng(19).choice(gen.params.size, size=80)
        fd = np.zeros(len(idx))
        h = 1e-4
        for k, i in enumerate(idx):
            up = gen.params.copy()
            up[i] += h
            dn = gen.params.copy()
            dn[i] -= h
            fd[k] = (loss_of(up) - loss_of(dn)) / (2 * h)
        err = relative_error(grads[idx], fd)
        assert err < 1e-3, f"chain FD error {err:.2e}"
        _report("3b", f"cascade->transform->loss chain FD rel error {err:.2e} < 1e-3")

    def test_upsampling_adjoint(self):
        rng = SeededRng(20)
        x = rng.normal((2, 8, 8))
        y = rng.normal((2, 16, 16))
        lhs = float(np.sum(bilinear_upsample(x, 16, 16) * y))
        rhs = float(np.sum(x * bilinear_upsample_t(y, 8, 8)))
        assert abs(lhs - rhs) < 1e-10
        _report("3c", f"adjoint identity gap {abs(lhs - rhs):.2e} < 1e-10")


class TestCriterion04CascadeStateMachine:
    def test_hundred_random_configurations(self):
        rng = SeededRng(21)
        checked = 0
        for trial in range(100):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k, 9))
            shift = float(rng.uniform(1.0, 3.0))
            sigmas = [sch.apply_flow_shift(1.0 - j / n, shift) for j in range(n)]
            # thresholds at sigma-midpoints of K-1 distinct step gaps, so
            # every stage owns at least one step
            gaps = sorted(rng.choice(n - 1, size=k - 1) if k > 1 else [])
            thresholds = []
            for g in gaps:
                mid = 0.5 * (sigmas[g] + sigmas[g + 1])
                thresholds.append(sch.sigma_to_logsnr(mid))
            thresholds = sorted(thresholds)
            resolutions = [16 // (2 ** (k - 1 - i)) for i in range(k)]
            p = sch.build_partition(thresholds, resolutions, shift)
            spec = nets.NetSpec(channels=(1, 4, 1), time_embed_dim=4, class_count=3)
            net = nets.DenoiserNet(spec, nets.init_params(spec, rng.derive(f"net:{trial}")))
            params = cascade.CascadeParams(
                partition=p,
                n_steps=n,
                alpha_inference=float(rng.uniform(0, 1)),
                class_id=int(rng.integers(0, 3)),
                seed=trial,
            )
            out1, trace1 = cascade.infer(net, params)
            out2, trace2 = cascade.infer(net, params)
            assert np.array_equal(out1, out2), "cascade must be bitwise deterministic"
            assert trace1 == trace2
            assert len(trace1.records) == n
            assert trace1.transitions() == k - 1
            trace1.validate(p)
            assert out1.shape[-1] == resolutions[-1]
            checked += 1
        assert checked == 100
        _report("4", "100 random configs: K-1 transitions, monotone logSNR, determinism")


class TestCriterion05NoiseMixContract:
    def test_identities_and_variance(self):
        rng = SeededRng(22)
        p = rng.normal((1, 4, 4))
        g = rng.normal((1, 4, 4))
        assert np.array_equal(cascade.mix_noise(p, g, 0.0), g)
        assert np.array_equal(cascade.mix_noise(p, g, 1.0), p)
        n = 10**6
        pv = rng.normal(n).reshape(1, 1000, 1000)
        gv = rng.normal(n).reshape(1, 1000, 1000)
        for alpha in (0.2, 0.5, 0.9):
            var = float(cascade.mix_noise(pv, gv, alpha).var())
            assert abs(var - 1.0) < 0.01, f"alpha={alpha}: var {var}"
        _report("5", "identity cases exact; 1e6-draw variance within 1% of 1")


@pytest.mark.slow
class TestCriterion06CrossResolutionGap:
    def test_teacher_gap(self, toy_teacher):
        n = 256
        high = ev.sample_teacher_set(toy_teacher.net, 16, 2 * n, 32, 3, SeededRng(23), "high")
        low = ev.sample_teacher_set(toy_teacher.net, 8, n, 32, 3, SeededRng(24), "low")
        low_up = ev.SampleSet(
            np.stack([bilinear_upsample(im, 16, 16) for im in low.images]), "low-up"
        )
        half_a = ev.SampleSet(high.images[0::2], "high-a")
        half_b = ev.SampleSet(high.images[1::2], "high-b")
        bw = ev.median_bandwidth(half_a.flat(), half_b.flat())
        gap = ev.mmd_rbf(low_up, half_a, bw)
        null = ev.mmd_rbf(half_a, half_b, bw)
        null_width = ev.permutation_null(half_a, half_b, 100, SeededRng(25), bw).std()
        assert gap >= 3.0 * null, f"gap {gap:.5f} vs null {null:.5f}"
        assert gap >= 3.0 * null_width, f"gap {gap:.5f} vs null width {null_width:.5f}"
        _report("6", f"cross-res gap {gap:.4f} vs null {null:.5f} (width {null_width:.5f})")


@pytest.mark.slow
class TestCriterion07DistilledCascadeWins:
    def test_student_beats_baselines(self, toy_config, toy_teacher, toy_student, toy_rm_disabled, tmp_path):
        state, _ = toy_student
        d = toy_config.distill
        arms = ev.headline_arms(state.generator, toy_teacher.net, toy_rm_disabled.generator,
                                cascade.schedule_trace(d.partition(), d.n_steps), d.alpha_inference)
        report = ev.evaluate_run(toy_teacher.net, arms, None, toy_config.eval, SeededRng(26), tmp_path / "eval")
        student = report.value("student-cascade", "mmd_to_reference")
        naive = report.value("naive-cascade", "mmd_to_reference")
        rm_off = report.value("rm-disabled-cascade", "mmd_to_reference")
        width = report.null_width
        assert student < naive, f"student {student:.5f} !< naive {naive:.5f}"
        assert student < rm_off, f"student {student:.5f} !< rm-disabled {rm_off:.5f}"
        assert naive - student >= 2.0 * width, (
            f"margin vs naive {naive - student:.5f} < 2x null width {width:.5f}"
        )
        assert rm_off - student >= 2.0 * width, (
            f"margin vs rm-disabled {rm_off - student:.5f} < 2x null width {width:.5f}"
        )
        _report(
            "7",
            f"student {student:.5f} < naive {naive:.5f}, rm-off {rm_off:.5f}; "
            f"margins {(naive - student) / width:.1f}x / {(rm_off - student) / width:.1f}x null width",
        )


@pytest.mark.slow
class TestCriterion08WarmupGatingAudit:
    def test_trace_audit(self, toy_config, toy_student):
        from scipy import stats as sps

        _, records = toy_student
        warmup = toy_config.distill.warmup_steps
        k = toy_config.distill.partition().num_stages
        gate = distill.warmup_stage_count(k)
        for rec in records:
            if rec.step < warmup:
                assert rec.phase == "warmup"
                assert rec.stage <= gate, f"stage {rec.stage} sampled during warm-up"
        post = [rec.stage for rec in records if rec.step >= warmup]
        assert any(s > gate for s in post), "no post-warm-up draws beyond the gate"
        counts = np.bincount(np.array(post) - 1, minlength=k)
        chi = sps.chisquare(counts)
        assert chi.pvalue > 1e-4, f"stage frequencies {counts} off uniform (p={chi.pvalue:.2e})"
        _report("8", f"no gated draws before step {warmup}; post counts {counts.tolist()} (p={chi.pvalue:.3f})")


class TestCriterion09PseudoHuberRegimes:
    def test_regimes(self):
        d = 256
        c = distill.pseudo_huber_constant(d)
        assert c == pytest.approx(0.00054 * math.sqrt(d), rel=1e-12)
        direction = SeededRng(27).normal(d)
        direction /= np.linalg.norm(direction)
        for scale in (c / 10, c / 20, c / 100):
            loss, _ = distill.pseudo_huber(direction * scale, c)
            quadratic = scale * scale / (2 * c)
            assert abs(loss - quadratic) <= 0.01 * quadratic, f"scale {scale}"
        for scale in (100 * c, 300 * c):
            loss_a, _ = distill.pseudo_huber(direction * scale, c)
            loss_b, _ = distill.pseudo_huber(direction * (scale + c), c)
            slope = loss_b - loss_a  # per unit ||r||, measured over one c
            assert abs(slope / c - 1.0) <= 0.01
            grad_norm = np.linalg.norm(distill.pseudo_huber(direction * scale, c)[1])
            assert abs(grad_norm - 1.0) <= 0.01
        _report("9", "quadratic within 1% below c/10; slope 1 within 1% above 100c")


MICRO_OVERRIDES = """
data.n_per_class_low = 6
data.n_per_class_high = 6
teacher.phase1_steps = 15
teacher.phase2_steps = 15
teacher.batch_size = 4
teacher.channels = (1, 6, 1)
distill.steps = 8
distill.warmup_steps = 2
distill.batch_size = 2
eval.n_per_set = 12
eval.teacher_steps = 6
eval.n_permutations = 20
eval.contact_sheet_n = 4
"""


@pytest.mark.slow
class TestCriterion10Reproducibility:
    def test_pipeline_runs_byte_identical(self, tmp_path):
        cfg_file = tmp_path / "micro.cfg"
        cfg_file.write_text(MICRO_OVERRIDES)
        outputs = []
        for run_name in ("one", "two"):
            out = tmp_path / run_name
            common = ["--config", str(cfg_file), "--seed", "9", "--out", str(out)]
            assert cli(["gen-data", *common]) == 0
            assert cli(["train-teacher", *common]) == 0
            assert cli(["distill", *common]) == 0
            assert cli(["sample", *common, "--count", "2"]) == 0
            assert cli(["eval", *common]) == 0
            outputs.append(out)
        # every file but the manifest, which holds wall times
        files = [sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file()) for d in outputs]
        assert files[0] == files[1], "the two runs wrote different files"
        compared = [rel for rel in files[0] if rel.name != "manifest.txt"]
        for rel in compared:
            assert (outputs[0] / rel).read_bytes() == (outputs[1] / rel).read_bytes(), \
                f"{rel} differs between identical runs"
        _report("10", f"two pipeline runs byte-identical across {len(compared)} artifacts")
