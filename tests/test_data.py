"""Shape rendering, dataset generation, and the engineered tier gap."""
import itertools
import struct

import numpy as np
import pytest

from crossres import data
from crossres.grid import SeededRng, bilinear_upsample
from numerics import area_downsample

SMALL = data.DataConfig(n_per_class_low=16, n_per_class_high=16)


class TestRenderShape:
    def test_full_canvas_disc_center_pixel(self):
        pose = data.Pose(center=(0.5, 0.5), size=0.5, intensity=1.0)
        img = data.render_shape(data.CLASS_DISC, pose, 16)
        assert img.shape == (1, 16, 16)
        assert img[0, 8, 8] == 1.0

    def test_rectangle_is_axis_aligned_mask(self):
        pose = data.Pose(center=(0.5, 0.5), size=0.3, intensity=1.0)
        img = data.render_shape(data.CLASS_RECT, pose, 32)[0]
        ys, xs = np.nonzero(img > 0.5)
        # interior rows/cols of an axis-aligned box are contiguous runs
        assert xs.min() < xs.max() and ys.min() < ys.max()
        interior = img[ys.min() + 1 : ys.max(), xs.min() + 1 : xs.max()]
        assert np.all(interior == 1.0)
        height = ys.max() - ys.min()
        width = xs.max() - xs.min()
        assert height < width  # aspect 0.6

    def test_cross_resolution_consistency(self):
        pose = data.Pose(center=(0.5, 0.45), size=0.3, intensity=0.8)
        for class_id in range(3):
            hi = data.render_shape(class_id, pose, 16)
            lo = data.render_shape(class_id, pose, 8)
            assert np.max(np.abs(area_downsample(hi, 2) - lo)) < 0.1

    def test_rejects_degenerate_size(self):
        pose = data.Pose(center=(0.5, 0.5), size=0.05, intensity=1.0)
        with pytest.raises(ValueError, match="degenerate"):
            data.render_shape(data.CLASS_DISC, pose, 16)

    def test_rejects_pose_outside_canvas(self):
        pose = data.Pose(center=(0.1, 0.5), size=0.3, intensity=1.0)
        with pytest.raises(ValueError, match="outside"):
            data.render_shape(data.CLASS_DISC, pose, 16)

    def test_intensity_range_on_background_zero(self):
        pose = data.Pose(center=(0.5, 0.5), size=0.25, intensity=0.6)
        img = data.render_shape(data.CLASS_CROSS, pose, 16)[0]
        assert img.min() == 0.0
        assert img.max() == pytest.approx(0.6, abs=1e-12)


class TestGenDataset:
    def test_low_tier_is_the_corrupted_render(self):
        from scipy.ndimage import correlate1d

        cfg = data.DataConfig(n_per_class_low=4, n_per_class_high=2)
        ds = data.generate_samples(cfg, SeededRng(5))
        # rebuild each low-tier sample from its own stream and the constants:
        # dim and jitter the pose, render, maybe blur, add pixel noise
        blurred = 0
        for idx, (class_id, i) in enumerate(itertools.product(range(cfg.n_classes), range(cfg.n_per_class_low))):
            sub = SeededRng(5).derive(f"sample:{data.TIER_LOW}:{class_id}:{i}")
            pose = data.sample_pose(sub)
            jitter = sub.uniform(-data.INTENSITY_JITTER, data.INTENSITY_JITTER)
            dimmed = float(np.clip(pose.intensity - data.INTENSITY_SHIFT + jitter, 0.05, 1.0))
            want = data.render_shape(class_id, data.Pose(pose.center, pose.size, dimmed), data.LOW_RES)
            if sub.uniform() < data.BLUR_PROB:
                blurred += 1
                for axis in (1, 2):
                    want = correlate1d(want, [0.25, 0.5, 0.25], axis=axis, mode="nearest")
            want = want + sub.uniform(0.0, data.NOISE_STD_MAX) * sub.normal(want.shape)
            assert np.allclose(ds.low_images[idx], want, rtol=0.0, atol=1e-12), (class_id, i)
        assert ds.low_images.shape == (12, 1, data.LOW_RES, data.LOW_RES)
        assert 0 < blurred < 12  # both branches ran

    def test_mean_intensity_margin(self):
        # The engineered gap: low tier is systematically dimmer than the
        # area-downsampled high tier (margin measured from the generator's
        # own statistics).
        ds = data.generate_samples(data.DataConfig(n_per_class_low=64, n_per_class_high=64), SeededRng(7))
        down_high = np.stack([area_downsample(img, 2) for img in ds.high_images])
        margin = down_high.mean() - ds.low_images.mean()
        assert margin > 0.02

    def test_fixed_seed_reproduces_bytes(self, tmp_path):
        cfg = data.DataConfig(n_per_class_low=3, n_per_class_high=3)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        data.gen_dataset(cfg, SeededRng(11), a)
        data.gen_dataset(cfg, SeededRng(11), b)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_through_file(self, tmp_path):
        cfg = data.DataConfig(n_per_class_low=3, n_per_class_high=2)
        path = tmp_path / "shapes.bin"
        data.gen_dataset(cfg, SeededRng(13), path)
        loaded = data.load_dataset(path)
        direct = data.generate_samples(cfg, SeededRng(13))
        assert np.array_equal(loaded.low_images, direct.low_images)
        assert np.array_equal(loaded.high_images, direct.high_images)
        assert np.array_equal(loaded.low_classes, direct.low_classes)
        assert np.array_equal(loaded.high_classes, direct.high_classes)

    def test_loaded_config_is_the_generating_config(self, tmp_path):
        cfg = data.DataConfig(n_per_class_low=2, n_per_class_high=1, n_classes=2)
        path = tmp_path / "shapes.bin"
        data.gen_dataset(cfg, SeededRng(23), path)
        loaded = data.load_dataset(path)
        assert loaded.config == cfg
        assert loaded.seed == 23

    def test_rejects_invalid_config(self):
        with pytest.raises(ValueError, match="data.n_per_class_low must be at least 1, got 0"):
            data.DataConfig(n_per_class_low=0).validate()
        with pytest.raises(ValueError, match=r"data.n_classes must lie in \[1, 3\]"):
            data.DataConfig(n_classes=4).validate()


class TestLoadRejectsBadFiles:
    @pytest.mark.parametrize("case", ["truncated", "trailing-bytes", "foreign", "text-header", "version-2"])
    def test_error_names_path_and_reason(self, tmp_path, case):
        path = tmp_path / "shapes.bin"
        data.gen_dataset(data.DataConfig(n_per_class_low=2, n_per_class_high=2), SeededRng(19), path)
        raw = path.read_bytes()
        n = len(raw)
        bad, reason = {
            "truncated": (raw[:-1], f"expected {n} bytes from the header, found {n - 1}"),
            "trailing-bytes": (raw + b"\0", f"expected {n} bytes from the header, found {n + 1}"),
            "foreign": (b"P5\n4 4\n255\n" + bytes(16), "not a crossres dataset"),
            "text-header": (b"format = crossres-shapes-v1\nseed = 19\n---\n" + raw[12:], "not a crossres dataset"),
            # version 2 also recorded the shape family's geometry and corruption
            "version-2": (raw[:4] + struct.pack("<I", 2) + raw[8:], "unsupported crossres dataset version 2"),
        }[case]
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=f"shapes.bin: {reason}"):
            data.load_dataset(path)


class TestEngineeredGap:
    def test_upsampled_low_tier_vs_high_tier_mmd(self):
        # two-sample distance between tiers exceeds the within-tier null
        # by a wide factor; threshold pinned by the acceptance suite at 5x
        from crossres import evalsuite

        ds = data.generate_samples(data.DataConfig(n_per_class_low=64, n_per_class_high=128), SeededRng(17))
        low_up = np.stack([bilinear_upsample(img, 16, 16) for img in ds.low_images])
        # interleaved halves keep the class mixture identical on both sides
        half_a, half_b = ds.high_images[0::2], ds.high_images[1::2]
        bw = evalsuite.median_bandwidth(half_a, half_b)
        gap = evalsuite.mmd_rbf(evalsuite.SampleSet(low_up, "low-up"),
                                evalsuite.SampleSet(half_a, "high"), bw)
        null = evalsuite.mmd_rbf(evalsuite.SampleSet(half_a, "a"),
                                 evalsuite.SampleSet(half_b, "b"), bw)
        assert gap >= 5.0 * abs(null)
