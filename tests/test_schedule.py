"""Schedule arithmetic: conversions, the stage map, partitions, golden timestep tables."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossres import schedule as sch
from crossres.config import PRESETS
from numerics import shift_logsnr

# Closed-form constants (oracle: exact evaluation of the conversion
# formulas; e.g. 2*ln(1/3) for the sigma = 0.75 logSNR).
LOGSNR_075 = 2.0 * math.log(1.0 / 3.0)  # -2.1972245773362196
LOGSNR_090 = 2.0 * math.log(1.0 / 9.0)  # -4.394449154672439


def sdxl_partition():
    # Split placed at the printed low/high boundary t = 502 of the 4-step
    # 512->1024 configuration (the Eq.-style mapping of the quoted -2.5
    # threshold would land at t = 777 instead; see decisions ledger).
    return sch.build_partition([sch.sigma_to_logsnr(0.502)], [512, 1024], flow_shift=1.0)


def sd35_partition():
    return sch.build_partition([-2.5], [512, 1024], flow_shift=3.0)


def wan_partition():
    # Boundary between steps 3 and 4 of the shift-5 six-step grid.
    return sch.build_partition([sch.sigma_to_logsnr(0.87)], [480, 720], flow_shift=5.0)


def stage_map(t, partition):
    """Stage index and shifted timestep of teacher timestep t: the stage
    map stage_of(sigma).shift(sigma) at sigma = t / T_MAX, times T_MAX."""
    stage = partition.stage_of(t / sch.T_MAX)
    return stage.index, sch.T_MAX * stage.shift(t / sch.T_MAX)


class TestConversions:
    def test_logsnr_zero_is_half(self):
        assert sch.logsnr_to_sigma(0.0) == pytest.approx(0.5, abs=0)

    def test_logsnr_derived_point(self):
        assert sch.logsnr_to_sigma(LOGSNR_075) == pytest.approx(0.75, rel=1e-12)

    def test_boundary_limits(self):
        assert sch.logsnr_to_sigma(80.0) == pytest.approx(0.0, abs=1e-12)
        assert sch.logsnr_to_sigma(-80.0) == pytest.approx(1.0, abs=1e-12)

    def test_huge_logsnr_does_not_overflow(self):
        # exp(logsnr / 2) overflows past logsnr ~ 1419.57; sigma stays in
        # [0, 1] and falls through that point down to 0
        values = [1419.0, 1419.5, 1419.6, 1420.0, 2000.0, 1e300]
        sigmas = [sch.logsnr_to_sigma(v) for v in values]
        assert all(0.0 <= s <= 1.0 for s in sigmas)
        assert all(b <= a for a, b in zip(sigmas, sigmas[1:]))
        assert sigmas[-1] == 0.0 and sch.logsnr_to_sigma(-1e300) == 1.0
        assert sigmas[0] == 1.0 / (1.0 + math.exp(709.5))  # the closed form wherever exp is finite

    def test_sigma_to_logsnr_values(self):
        assert sch.sigma_to_logsnr(0.5) == pytest.approx(0.0, abs=0)
        assert sch.sigma_to_logsnr(0.75) == pytest.approx(LOGSNR_075, rel=1e-12)
        assert sch.sigma_to_logsnr(0.9) == pytest.approx(LOGSNR_090, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_sigma_to_logsnr_domain(self, bad):
        with pytest.raises(ValueError):
            sch.sigma_to_logsnr(bad)

    def test_logsnr_rejects_nan(self):
        with pytest.raises(ValueError):
            sch.logsnr_to_sigma(float("nan"))

    @given(st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=200)
    def test_round_trip(self, logsnr):
        back = sch.sigma_to_logsnr(sch.logsnr_to_sigma(logsnr))
        assert back == pytest.approx(logsnr, rel=1e-12, abs=1e-12)

    @given(
        st.floats(min_value=-30.0, max_value=30.0),
        st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(max_examples=100)
    def test_strictly_decreasing(self, logsnr, delta):
        assert sch.logsnr_to_sigma(logsnr + delta) < sch.logsnr_to_sigma(logsnr)


def stage_at(res, final_res):
    """The map of a `res` px stage in a run that ends at `final_res` px."""
    return sch.ResolutionStage(index=1, resolution=res, rho=res / final_res, teacher_interval=(0.0, 1.0))


class TestShift:
    def test_identity_when_same_resolution(self):
        stage = sch.build_partition([], [640]).stages[0]
        assert stage.rho == 1.0
        assert stage.shift(0.37) == 0.37 and stage.unshift(0.37) == 0.37

    def test_derived_shift(self):
        got = sch.sigma_to_logsnr(stage_at(512, 1024).shift(0.75))
        assert got == pytest.approx(LOGSNR_075 + 2.0 * math.log(0.5), rel=1e-12)
        assert got == pytest.approx(-3.58351893845611, rel=1e-9)

    def test_table_anchor_via_sigma(self):
        # teacher t = 750 at 512px of a 1024px run lands at t = 857
        shifted = 1000.0 * stage_at(512, 1024).shift(0.75)
        assert round(shifted) == 857

    @given(
        st.floats(min_value=-15.0, max_value=15.0),
        st.sampled_from([64, 128, 256, 512]),
        st.sampled_from([128, 256, 512, 1024]),
        st.sampled_from([256, 512, 1024, 2048]),
    )
    @settings(max_examples=100)
    def test_shift_composition(self, logsnr, ra, rb, rc):
        sigma = sch.logsnr_to_sigma(logsnr)
        once = stage_at(rb, rc).shift(stage_at(ra, rb).shift(sigma))
        assert once == pytest.approx(stage_at(ra, rc).shift(sigma), rel=1e-12, abs=1e-12)

    @given(st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=100)
    def test_shift_direction(self, sigma):
        # lower resolution carries more noise at the matched state
        assert stage_at(512, 1024).shift(sigma) > sigma

    @given(st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=100)
    def test_closed_form_matches_chain(self, sigma):
        chain = sch.logsnr_to_sigma(shift_logsnr(sch.sigma_to_logsnr(sigma), 480, 720))
        assert stage_at(480, 720).shift(sigma) == pytest.approx(chain, rel=1e-12)

    def test_endpoints_fixed(self):
        stage = stage_at(512, 1024)
        assert stage.shift(0.0) == 0.0 and stage.unshift(0.0) == 0.0
        assert stage.shift(1.0) == 1.0 and stage.unshift(1.0) == 1.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_unshift_inverts(self, sigma):
        stage = stage_at(480, 720)
        assert stage.unshift(stage.shift(sigma)) == pytest.approx(sigma, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_rejects_sigma_outside_unit_interval(self, bad):
        stage = stage_at(480, 720)
        with pytest.raises(ValueError):
            stage.shift(bad)
        with pytest.raises(ValueError):
            stage.unshift(bad)


class TestFlowShift:
    def test_identity(self):
        assert sch.apply_flow_shift(0.37, 1.0) == 0.37

    @pytest.mark.parametrize("bad", [0.5, math.nan, math.inf])
    def test_rejects_shift_that_is_not_finite_and_at_least_one(self, bad):
        with pytest.raises(ValueError, match="flow shift must be finite and >= 1"):
            sch.apply_flow_shift(0.5, bad)

    def test_derived_values(self):
        assert sch.apply_flow_shift(0.75, 3.0) == pytest.approx(0.9, rel=1e-12)
        assert sch.apply_flow_shift(5.0 / 6.0, 5.0) == pytest.approx(0.9615384615384615, rel=1e-12)

    @given(
        st.floats(min_value=0.001, max_value=0.998),
        st.floats(min_value=0.0005, max_value=0.001),
        st.floats(min_value=1.0, max_value=8.0),
    )
    @settings(max_examples=100)
    def test_monotone_in_u(self, u, delta, shift):
        assert sch.apply_flow_shift(u + delta, shift) > sch.apply_flow_shift(u, shift)

    @given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=1.0, max_value=7.0))
    @settings(max_examples=100)
    def test_monotone_in_shift(self, u, shift):
        assert sch.apply_flow_shift(u, shift + 0.5) > sch.apply_flow_shift(u, shift)


class TestPartition:
    def test_single_stage(self):
        p = sch.build_partition([], [1024])
        assert p.num_stages == 1
        assert p.stages[0].teacher_interval == (0.0, 1.0)
        assert p.stages[0].shifted_interval == (0.0, 1.0)

    def test_two_stage_boundary(self):
        p = sch.build_partition([-2.5], [512, 1024])
        lo, hi = p.stages[0].teacher_interval
        # sigma(-2.5) = 1/(1+exp(-1.25)) = 0.7772998611746911
        assert lo == pytest.approx(0.7772998611746911, rel=1e-12)
        assert hi == 1.0
        assert p.stages[1].teacher_interval == (0.0, lo)

    def test_three_stages(self):
        p = sch.build_partition([-6.0, -2.5], [256, 512, 1024])
        assert p.num_stages == 3
        assert [s.resolution for s in p.stages] == [256, 512, 1024]
        bounds = [s.teacher_interval for s in p.stages]
        assert bounds[0][0] == bounds[1][1] and bounds[1][0] == bounds[2][1]
        # intervals tile [0, 1] downward, each with lo < hi
        assert all(lo < hi for lo, hi in bounds)
        assert bounds[0][1] == 1.0 and bounds[2][0] == 0.0
        # the more negative threshold (-6.0, noisier) owns the higher boundary
        assert bounds[0][0] == pytest.approx(sch.logsnr_to_sigma(-6.0), rel=1e-12)
        assert bounds[1][0] == pytest.approx(sch.logsnr_to_sigma(-2.5), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sch.build_partition([-2.5, -6.0], [256, 512, 1024])  # not increasing
        with pytest.raises(ValueError):
            sch.build_partition([-2.5], [1024, 512])
        with pytest.raises(ValueError):
            sch.build_partition([-2.5], [512])
        for resolutions in ([0, 16], [-8, 16]):
            with pytest.raises(ValueError, match="resolutions must be at least 1"):
                sch.build_partition([-2.5], resolutions)

    def test_boundary_belongs_to_earlier_stage(self):
        p = sch.build_partition([-2.5], [512, 1024])
        boundary = p.stages[0].teacher_interval[0]
        assert p.stage_of(boundary).index == 1
        assert p.stage_of(boundary - 1e-12).index == 2

    def test_shifted_interval_is_image_of_teacher(self):
        p = wan_partition()
        assert [stage.rho for stage in p.stages] == [480 / 720, 1.0]
        for stage in p.stages:
            lo, hi = stage.teacher_interval
            assert stage.shifted_interval[0] == pytest.approx(stage.shift(lo), rel=1e-12)
            assert stage.shifted_interval[1] == pytest.approx(stage.shift(hi), rel=1e-12)
            back = [stage.unshift(s) for s in stage.shifted_interval]
            assert back == pytest.approx([lo, hi], rel=1e-12)


class TestMapTimestep:
    def test_final_stage_unchanged(self):
        p = sd35_partition()
        stage, shifted = stage_map(400.0, p)
        assert stage == 2
        assert shifted == pytest.approx(400.0, rel=1e-12)

    def test_sd35_anchor(self):
        stage, shifted = stage_map(900.0, sd35_partition())
        assert stage == 1
        assert round(shifted) == 947

    def test_sdxl_anchor(self):
        stage, shifted = stage_map(750.0, sdxl_partition())
        assert stage == 1
        assert round(shifted) == 857

    def test_wan_anchors(self):
        p = wan_partition()
        stage, shifted = stage_map(962.0, p)
        assert (stage, round(shifted)) == (1, 974)
        stage, shifted = stage_map(909.0, p)
        assert (stage, round(shifted)) == (1, 937)


class TestInferenceSchedule:
    def test_sdxl_row(self):
        rows = sch.inference_schedule(4, sdxl_partition())
        assert [r.stage for r in rows] == [1, 1, 2, 2]
        assert [r.resolution for r in rows] == [512, 512, 1024, 1024]
        got = [round(sch.T_MAX * r.shifted_sigma) for r in rows]
        assert got == [1000, 857, 500, 250]

    def test_sd35_row(self):
        rows = sch.inference_schedule(4, sd35_partition())
        assert [round(sch.T_MAX * r.teacher_sigma) for r in rows] == [1000, 900, 750, 500]
        assert [round(sch.T_MAX * r.shifted_sigma) for r in rows] == [1000, 947, 750, 500]
        assert [r.resolution for r in rows] == [512, 512, 1024, 1024]

    def test_wan_row(self):
        rows = sch.inference_schedule(6, wan_partition())
        assert [r.stage for r in rows] == [1, 1, 1, 2, 2, 2]
        paper_unshifted = [1000, 962, 909, 834, 716, 505]
        for row, ref in zip(rows, paper_unshifted):
            assert abs(sch.T_MAX * row.teacher_sigma - ref) <= 6.0
        paper_shifted_head = [1000, 974, 937]
        for row, ref in zip(rows[:3], paper_shifted_head):
            assert abs(round(sch.T_MAX * row.shifted_sigma) - ref) <= 1

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_rows_follow_the_stage_map(self, name):
        p = PRESETS[name]().distill.partition()
        for n in range(p.num_stages, 13):
            for row in sch.inference_schedule(n, p):
                stage = p.stages[row.stage - 1]
                assert row.shifted_sigma == pytest.approx(stage.shift(row.teacher_sigma), abs=1e-12)
                assert stage.unshift(row.shifted_sigma) == pytest.approx(row.teacher_sigma, abs=1e-12)

    def test_rejects_too_few_steps(self):
        with pytest.raises(ValueError):
            sch.inference_schedule(1, sd35_partition())

    @pytest.mark.parametrize("make", [sdxl_partition, sd35_partition, wan_partition])
    def test_teacher_logsnr_strictly_increasing(self, make):
        rows = sch.inference_schedule(6, make())
        sigmas = [r.teacher_sigma for r in rows]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))
        logsnrs = [sch.sigma_to_logsnr(s) for s in sigmas if 0 < s < 1]
        assert all(b > a for a, b in zip(logsnrs, logsnrs[1:]))
