"""MMD estimator, summary statistics, and the analytic cost model."""
import numpy as np
import pytest

from crossres import cascade, config as cfgmod, diffusion, evalsuite as ev, net as nets, schedule as sch
from crossres.grid import SeededRng
from numerics import relative_error


def normal_set(seed, n, d=16, shift=0.0):
    imgs = SeededRng(seed).normal((n, 1, d, d // 4)) + shift
    return ev.SampleSet(imgs.reshape(n, 1, 4, d), f"set-{seed}")


class TestMmd:
    def test_symmetry(self):
        a, b = normal_set(1, 32), normal_set(2, 40)
        bw = ev.median_bandwidth(a.flat(), b.flat())
        assert ev.mmd_rbf(a, b, bw) == pytest.approx(ev.mmd_rbf(b, a, bw), abs=1e-12)

    def test_identical_samples_unbiased_boundary(self):
        # unbiased estimator on A == B is <= 0 (the documented boundary case)
        a = normal_set(3, 24)
        b = ev.SampleSet(a.images.copy(), "copy")
        assert ev.mmd_rbf(a, b, 1.0) <= 1e-12

    def test_null_calibration_disjoint_halves(self):
        # oracle: permutation distribution of the estimator under the null
        rng = SeededRng(4)
        pooled = rng.normal((256, 1, 4, 4))
        a = ev.SampleSet(pooled[:128], "a")
        b = ev.SampleSet(pooled[128:], "b")
        bw = ev.median_bandwidth(a.flat(), b.flat())
        null = ev.permutation_null(a, b, 100, SeededRng(5), bw)
        observed = ev.mmd_rbf(a, b, bw)
        assert abs(observed) < 3.0 * max(null.std(), 1e-12)

    def test_separated_distributions_exceed_null(self):
        a, b = normal_set(6, 64), normal_set(7, 64, shift=1.0)
        bw = ev.median_bandwidth(a.flat(), b.flat())
        null = ev.permutation_null(a, b, 60, SeededRng(8), bw)
        assert ev.mmd_rbf(a, b, bw) > 5.0 * null.std()

    def test_rejects_tiny_sets(self):
        with pytest.raises(ValueError):
            ev.mmd_rbf(normal_set(9, 1), normal_set(10, 8), 1.0)


class TestSummaryStats:
    def test_constant_images_zero_edge_energy(self):
        s = ev.SampleSet(np.full((4, 1, 8, 8), 0.5), "const")
        stats = ev.summary_stats(s)
        assert stats["edge_energy"] == 0.0
        assert stats["pixel_variance"] == 0.0
        assert stats["mean_intensity"] == 0.5

    def test_unit_noise_variance(self):
        s = ev.SampleSet(SeededRng(11).normal((200, 1, 16, 16)), "noise")
        assert ev.summary_stats(s)["pixel_variance"] == pytest.approx(1.0, rel=0.02)

    def test_checkerboard_dominates_top_bin(self):
        ii, jj = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        checker = ((ii + jj) % 2).astype(float)
        bins = ev.radial_power_bins(checker)
        assert np.argmax(bins) == len(bins) - 1
        assert bins[-1] > 0.9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ev.summary_stats(ev.SampleSet(np.zeros((0, 1, 4, 4)), "empty"))


class TestCostModel:
    def test_sdxl_paper_bracket(self):
        # 40-step CFG base at 1024^2 vs 2 @ 512^2 + 2 @ 1024^2
        s = ev.cost_model_speedup((40, 1024, 2.0), [(2, 512), (2, 1024)], gamma=1.0)
        assert s == pytest.approx(32.0, abs=1e-12)

    def test_sd35_exact_match(self):
        s = ev.cost_model_speedup((40, 1024, 2.0), [(2, 512), (2, 1024)], gamma=1.0)
        assert round(s, 1) == 32.0

    def test_wan_brackets_paper_value(self):
        base = (50, (1280, 720), 2.0)
        method = [(3, (832, 480)), (3, (1280, 720))]
        g1 = ev.cost_model_speedup(base, method, gamma=1.0)
        g2 = ev.cost_model_speedup(base, method, gamma=2.0)
        assert g1 == pytest.approx(23.2558139534883, rel=1e-10)
        assert g2 == pytest.approx(28.0636108512628, rel=1e-10)
        assert g1 < 25.6 < g2

    def test_scale_invariance(self):
        base = (40, (1000, 1000), 2.0)
        method = [(2, (500, 500)), (2, (1000, 1000))]
        s1 = ev.cost_model_speedup(base, method, gamma=1.0)
        scaled = ev.cost_model_speedup(
            (40, (3000, 3000), 2.0), [(2, (1500, 1500)), (2, (3000, 3000))], gamma=1.0
        )
        assert s1 == pytest.approx(scaled, rel=1e-12)

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            ev.cost_model_speedup((0, 1024, 2.0), [(2, 512)], 1.0)


class TestReport:
    def test_report_rows_and_csv(self, tmp_path):
        ref = normal_set(12, 64)
        cand = normal_set(13, 32)
        report = ev.evaluate_sets(ref, [cand], None, ev.EvalConfig(n_permutations=20), SeededRng(14))
        assert report.value("set-13", "mmd_to_reference") is not None
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,metric,value"
        assert any(line.startswith("set-13,mmd_to_reference") for line in lines)

    def test_teacher_vs_teacher_null_level(self):
        ref = normal_set(15, 128)
        report = ev.evaluate_sets(ref, [], None, ev.EvalConfig(n_permutations=50), SeededRng(16))
        null_mmd = report.value("reference-null", "mmd_to_reference")
        assert abs(null_mmd) < 3.0 * max(report.null_width, 1e-12)


class TestSampleCascadeSet:
    def setup_method(self):
        d = cfgmod.toy_default().distill
        self.partition, self.n_steps = d.partition(), d.n_steps
        self.trace = cascade.schedule_trace(self.partition, self.n_steps)
        spec = nets.NetSpec(channels=(1, 4, 1), time_embed_dim=4, class_count=3)
        self.net = nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(17)))

    def draw(self, n, rng, tag):
        return ev.sample_cascade_set(ev.Arm(tag, self.net, self.trace, 0.5), n, 3, rng)

    def test_image_i_is_the_cascade_of_index_i(self):
        # 70 images: more than one of the net's chunks, and not a multiple of them
        rng = SeededRng(18)
        self.net = self.net.with_params(self.net.params.astype(np.float64))  # the bound is float64's
        s = self.draw(70, rng, "student-cascade")
        assert s.images.shape == (70, 1, 16, 16) and s.tag == "student-cascade"
        for i, image in enumerate(s.images):
            params = cascade.CascadeParams(self.partition, self.n_steps, 0.5, class_id=i % 3,
                                           seed=rng.derive(f"arm:{i}").seed)
            single, _ = cascade.infer(self.net, params)
            assert relative_error(image, single) <= 1e-12, i

    def test_tags_share_the_noise_streams(self):
        a = self.draw(5, SeededRng(19), "student-cascade")
        b = self.draw(5, SeededRng(19), "naive-cascade")
        assert np.array_equal(a.images, b.images)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_one_stage_arm_is_euler_sample(self, alpha):
        # a one-stage trace has no transition, so the arm's alpha never enters
        trace = cascade.schedule_trace(sch.build_partition([], [16]), 6)
        rng = SeededRng(20)
        got = ev.sample_cascade_set(ev.Arm("teacher-euler", self.net, trace, alpha), 7, 3, rng)
        seeds = [rng.derive(f"arm:{i}").seed for i in range(7)]
        want = diffusion.euler_sample(self.net, ev.round_robin(7, 3), 16, 6, seeds)
        assert np.array_equal(got.images, want)

    @pytest.mark.parametrize("rm_disabled", [False, True])
    def test_headline_arms(self, rm_disabled):
        # only the student runs at the configured alpha; both baselines re-noise at 0
        arms = ev.headline_arms(self.net, self.net, self.net if rm_disabled else None, self.trace, 0.7)
        want = [("student-cascade", 0.7), ("naive-cascade", 0.0)] + [("rm-disabled-cascade", 0.0)] * rm_disabled
        assert [(a.tag, a.alpha) for a in arms] == want
        assert all(a.trace is self.trace for a in arms)
