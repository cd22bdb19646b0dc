"""RunConfig parsing/serialization, presets, the CLI surface, and the
pipeline script."""
import csv
import hashlib
import importlib.util
import os
import platform
import re
import struct
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest

import crossres
from crossres import cascade, config as cfgmod, distill, net as nets, schedule
from crossres.cli import main
from crossres.grid import SeededRng


class TestConfig:
    def test_presets_exist(self):
        for name in ("toy-default", "sdxl-like", "sd35-like", "wan-like"):
            cfg = cfgmod.preset(name)
            cfgmod.validate_config(cfg)

    def test_unknown_preset_rejected(self):
        with pytest.raises(cfgmod.ConfigError, match="unknown preset"):
            cfgmod.preset("bogus")

    @pytest.mark.parametrize("name", sorted(cfgmod.PRESETS))
    def test_serialize_round_trip(self, name):
        # the text alone determines the config, whatever preset it is applied to
        cfg = cfgmod.preset(name)
        text = cfgmod.serialize_config(cfg)
        overrides = cfgmod.parse_overrides(text)
        rebuilt = cfgmod.apply_overrides(cfgmod.toy_default(), overrides)
        assert rebuilt == cfg
        assert cfgmod.config_hash(rebuilt) == cfgmod.config_hash(cfg)

    def test_override_types(self):
        cfg = cfgmod.toy_default()
        out = cfgmod.apply_overrides(
            cfg,
            {
                "seed": "7",
                "distill.alpha": "0.5",
                "distill.resolutions": "(4, 8, 16)",
                "eval.n_permutations": "40",
                "data.n_classes": "2",
            },
        )
        assert out.seed == 7
        assert out.distill.alpha == 0.5
        assert out.distill.resolutions == (4, 8, 16)
        assert out.eval.n_permutations == 40
        assert out.data.n_classes == 2

    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        # removed keys: the ablation arm is rm_disabled_config, --preset picks the
        # starting values, and the timestep scale is the constant schedule.T_MAX
        for key in ("distill.bogus", "distill.rm_enabled", "preset", "distill.t_max"):
            with pytest.raises(cfgmod.ConfigError, match=f"unknown config key: {key}"):
                cfgmod.apply_overrides(cfgmod.toy_default(), {key: "1"})
        # the shape family and its corruption are constants of crossres.data
        bad = tmp_path / "bad.cfg"
        for name in REMOVED_DATA_KEYS:
            bad.write_text(f"data.{name} = 1\n")
            assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "run")]) == 2
            assert capsys.readouterr().err == f"error: unknown config key: data.{name}\n"
        # the run directory is --out alone, so it stays out of config_hash
        bad.write_text("out_dir = elsewhere\n")
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "error: unknown config key: out_dir\n"
        assert not (tmp_path / "run").exists()

    def test_settable_value_count(self):
        # a new config key shows up here as a test diff
        assert len(cfgmod._walk(cfgmod.RunConfig())) == 30

    def test_defaults_are_toy_default(self):
        assert cfgmod.toy_default() == cfgmod.RunConfig()

    def test_rm_disabled_is_the_one_stage_partition(self):
        d = distill.rm_disabled_config(cfgmod.toy_default().distill)
        assert d.partition() == schedule.build_partition([], [16])
        assert d.warmup_steps == 0

    def test_invalid_value_names_key_path(self):
        cfg = cfgmod.apply_overrides(cfgmod.toy_default(), {"data.n_per_class_high": "0"})
        with pytest.raises(cfgmod.ConfigError, match="data.n_per_class_high must be at least 1, got 0"):
            cfgmod.validate_config(cfg)

    def test_sections_are_frozen(self):
        cfg = cfgmod.toy_default()
        for section in (cfg.data, cfg.teacher, cfg.distill, cfg.eval):
            name = fields(section)[0].name
            with pytest.raises(FrozenInstanceError):
                setattr(section, name, getattr(section, name))

    def test_hash_changes_with_values(self):
        a = cfgmod.toy_default()
        b = cfgmod.apply_overrides(a, {"seed": "99"})
        assert cfgmod.config_hash(a) != cfgmod.config_hash(b)

    def test_manifest_hash_matches_serialized_config(self, tmp_path):
        cfg = cfgmod.toy_default()
        run = cfgmod.RunDirectory(tmp_path / "run")
        assert not run.path.exists()  # naming the layout writes nothing
        run.start(cfg)
        run.distill.mkdir()
        run.generator().write_bytes(b"abc")
        run.finish("test")
        config_bytes = (tmp_path / "run" / "config.txt").read_bytes()
        manifest = (tmp_path / "run" / "manifest.txt").read_text()
        assert f"config_hash = {hashlib.sha256(config_bytes).hexdigest()}" in manifest
        # every file under the run, by its relative POSIX path
        assert "\nfile.distill/generator-final.ckpt = 3\n" in manifest
        assert re.search(r"^seconds\.test = \d+\.\d{3}$", manifest, re.M)


REMOVED_DATA_KEYS = (
    "low_res", "high_res", "noise_std_max", "blur_prob", "intensity_shift", "intensity_jitter", "size_lo",
    "size_hi", "center_lo", "center_hi", "intensity_lo", "intensity_hi", "supersample",
)


MICRO_OVERRIDES = """
# tiny budgets for the smoke pipeline
data.n_per_class_low = 6
data.n_per_class_high = 6
teacher.phase1_steps = 12
teacher.phase2_steps = 12
teacher.batch_size = 4
teacher.channels = (1, 6, 1)
distill.steps = 6
distill.warmup_steps = 2
distill.batch_size = 2
eval.n_per_set = 12
eval.teacher_steps = 6
eval.n_permutations = 20
eval.contact_sheet_n = 4
"""


@pytest.fixture()
def micro_config(tmp_path):
    cfg_file = tmp_path / "micro.cfg"
    cfg_file.write_text(MICRO_OVERRIDES)
    return cfg_file


class TestCli:
    @pytest.mark.parametrize("preset, config_text", [
        ("sd35-like", None),
        ("toy-default",
         "distill.thresholds = (-2.5,)\ndistill.resolutions = (512, 1024)\ndistill.flow_shift = 3.0\n"),
    ], ids=["preset", "config-file"])
    def test_schedule_prints_sd35_row(self, tmp_path, capsys, preset, config_text):
        argv = ["schedule", "--preset", preset]
        if config_text is not None:
            cfg_file = tmp_path / "sd35.cfg"
            cfg_file.write_text(config_text)
            argv += ["--config", str(cfg_file)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[1000, 947, 750, 500]" in out

    @pytest.mark.parametrize("flag", [["--out", "elsewhere"], ["--seed", "7"]], ids=["out", "seed"])
    def test_schedule_rejects_run_flags(self, tmp_path, capsys, monkeypatch, flag):
        # schedule only prints (and writes --csv), so a run directory or seed would go unused
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["schedule", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_cost_table(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "32.0x" in out

    def test_distill_requires_teacher(self, tmp_path, capsys):
        code = main(["distill", "--out", str(tmp_path / "empty"), "--seed", "1"])
        assert code == 2
        assert "missing prerequisite" in capsys.readouterr().err

    # Every section is checked, and the schedule built, before any command
    # does work: each out-of-range value below used to end in a traceback
    # (some only after sampling or training, or, for the net spec, after the
    # dataset loads), in a nan null width, in a silently skipped teacher
    # phase, in gradient ascent (a negative lr), in clipping silently
    # switched off (a clip_norm <= 0 or inf), in a sigma above 1 (a negative
    # resolution), in an inverted snr_clamp that pins every fake-score
    # weight, or in a 2-channel prediction broadcast against 1-channel
    # targets; a bad partition was reported without its key. The data-*
    # cases other than the counts, and teacher.log_every (the teacher logs
    # every step), set keys that no longer exist, so they are reported as
    # unknown.
    @pytest.mark.parametrize("line, key", [
        ("distill.nonsense = 1", "distill.nonsense"),
        ("distill.n_steps = four", "distill.n_steps"),
        ("distill.resolutions = (8, x)", "distill.resolutions"),
        ("data.n_per_class_low = 0", "data.n_per_class_low"),
        ("data.n_classes = 4", "data.n_classes"),
        ("teacher.phase1_steps = -5", "teacher.phase1_steps"),
        ("teacher.log_every = 50", "teacher.log_every"),
        ("teacher.batch_size = 0", "teacher.batch_size"),
        ("distill.batch_size = 0", "distill.batch_size"),
        ("distill.n_steps = 1", "distill.n_steps"),
        ("distill.thresholds = (5.0,)", "distill.thresholds"),
        ("eval.n_per_set = 3", "eval.n_per_set"),
        ("eval.teacher_steps = 0", "eval.teacher_steps"),
        ("eval.contact_sheet_n = 0", "eval.contact_sheet_n"),
        ("eval.n_permutations = 0", "eval.n_permutations"),
        ("teacher.lr = -1.0", "teacher.lr"),
        ("teacher.lr = 0.0", "teacher.lr"),
        ("distill.lr_generator = -5e-5", "distill.lr_generator"),
        ("distill.lr_fake = 0.0", "distill.lr_fake"),
        ("teacher.channels = (1,)", "teacher.channels"),
        ("teacher.time_embed_dim = 0", "teacher.time_embed_dim"),
        ("distill.resolutions = (8.5, 16)", "distill.resolutions"),
        ("teacher.channels = (1, 24.5, 1)", "teacher.channels"),
        ("data.low_res = 0", "data.low_res"),
        ("data.supersample = 0", "data.supersample"),
        ("data.high_res = 0", "data.high_res"),
        ("data.size_lo = 0.05", "data.size_lo"),
        ("data.center_lo = 0.1", "data.center_lo"),
        ("data.intensity_hi = -1.0", "data.intensity_hi"),
        ("distill.pseudo_huber_scale = 0.0", "distill.pseudo_huber_scale"),
        ("distill.snr_clamp = (20.0, 0.05)", "distill.snr_clamp"),
        ("distill.resolutions = (0, 16)", "distill.resolutions"),
        ("distill.resolutions = (-8, 16)", "distill.resolutions"),
        ("distill.resolutions = (16, 8)", "distill.resolutions"),
        ("distill.flow_shift = 0.5", "distill.flow_shift"),
        ("distill.flow_shift = nan", "distill.flow_shift"),
        ("teacher.clip_norm = 0.0", "teacher.clip_norm"),
        ("distill.clip_norm = -1.0", "distill.clip_norm"),
        ("distill.n_steps = 4\ndistill.n_steps = 40", "distill.n_steps"),
        ("teacher.channels = (1, 0, 1)", "teacher.channels"),
        ("teacher.channels = (1, -3, 1)", "teacher.channels"),
        ("teacher.channels = (2, 8, 1)", "teacher.channels"),
        ("teacher.channels = (1, 8, 2)", "teacher.channels"),
        ("teacher.lr = inf", "teacher.lr"),
        ("teacher.clip_norm = inf", "teacher.clip_norm"),
        ("distill.clip_norm = inf", "distill.clip_norm"),
        ("distill.pseudo_huber_scale = inf", "distill.pseudo_huber_scale"),
        ("distill.snr_clamp = (0.05, inf)", "distill.snr_clamp"),
        ("distill.thresholds = (2000.0,)", "distill.thresholds"),
    ], ids=["unknown-key", "bad-int", "bad-tuple-entry", "data-empty-tier",
            "data-too-many-classes", "teacher-negative-phase", "teacher-log-every", "teacher-batch-size",
            "distill-batch-size", "fewer-steps-than-stages", "stage-without-step", "eval-set-too-small",
            "eval-teacher-steps", "eval-contact-sheet", "eval-permutations", "teacher-negative-lr",
            "teacher-zero-lr", "distill-negative-lr-generator", "distill-zero-lr-fake",
            "teacher-one-channel-entry", "teacher-zero-time-embed", "fractional-resolution",
            "fractional-channel-count", "data-low-res", "data-supersample", "data-zero-high-res",
            "data-degenerate-size", "data-center-off-canvas", "data-inverted-intensity",
            "distill-zero-huber-scale", "distill-inverted-snr-clamp", "zero-resolution",
            "negative-resolution", "decreasing-resolutions", "flow-shift-below-one", "nan-flow-shift",
            "teacher-zero-clip-norm", "distill-negative-clip-norm", "duplicate-key",
            "teacher-zero-width", "teacher-negative-width", "teacher-two-channel-input",
            "teacher-two-channel-output", "teacher-infinite-lr", "teacher-infinite-clip-norm",
            "distill-infinite-clip-norm", "distill-infinite-huber-scale", "distill-infinite-snr-clamp",
            "threshold-past-exp-overflow"])
    def test_bad_config_key_is_reported(self, tmp_path, capsys, line, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        code = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "run").exists()

    def test_duplicate_key_names_both_lines(self):
        with pytest.raises(cfgmod.ConfigError, match="distill.n_steps is set twice, on lines 1 and 3"):
            cfgmod.parse_overrides("distill.n_steps = 4\n# again\ndistill.n_steps = 40\n")

    def test_diverged_distill_names_step_phase_stage(self, tmp_path):
        # in a process of its own, so that numpy's RuntimeWarnings would reach stderr
        out = tmp_path / "run"
        out.mkdir()
        spec = nets.NetSpec()
        nets.save_checkpoint(out / "teacher.ckpt", nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(0))))
        cfg_file = tmp_path / "diverge.cfg"
        cfg_file.write_text(_load_run_pipeline().FAST_OVERRIDES + "distill.lr_generator = 1e300\n")
        env = {**os.environ, "PYTHONPATH": str(Path(crossres.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "crossres", "distill", "--out", str(out), "--config",
                               str(cfg_file)], env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        # the error line is all of stderr: no traceback, no numpy warning;
        # the float32 generator overflows in its first update
        assert re.fullmatch(r"error: non-finite parameters after the generator update at step 0 phase warmup "
                            r"stage 1: tensor stats [^\n]*\n", proc.stderr), proc.stderr
        # the log holds no row: no step finished
        with open(out / "distill-log-final.csv", newline="") as f:
            assert [row[0] for row in csv.reader(f)] == ["step"]

    def test_diverged_teacher_names_step_phase_and_keeps_its_log(self, tmp_path, micro_config):
        out = tmp_path / "run"
        assert main(["gen-data", "--out", str(out), "--config", str(micro_config)]) == 0
        cfg_file = tmp_path / "diverge.cfg"
        cfg_file.write_text(micro_config.read_text() + "teacher.lr = 1e300\n")
        env = {**os.environ, "PYTHONPATH": str(Path(crossres.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "crossres", "train-teacher", "--out", str(out), "--config",
                               str(cfg_file)], env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        # the error line is all of stderr: no traceback, no numpy warning
        failed = re.fullmatch(r"error: non-finite parameters after the teacher update at step (0) phase low: "
                              r"[^\n]*\n", proc.stderr)
        assert failed, proc.stderr
        # the log holds every step that finished before the failing one
        with open(out / "teacher-log.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["phase", "step", "loss"]
        assert [(phase, int(step)) for phase, step, _ in rows[1:]] == [("low", k) for k in range(int(failed[1]))]
        assert not (out / "teacher.ckpt").exists()

    def test_missing_csv_directory_is_one_error_line(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        assert main(["schedule", "--csv", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err

    def test_config_directory_is_rejected(self, tmp_path, capsys):
        assert main(["schedule", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: config file not found: {tmp_path}\n"

    def test_non_finite_checkpoint_is_reported(self, tmp_path, capsys):
        spec = nets.NetSpec(channels=(1, 4, 1))
        params = nets.init_params(spec, SeededRng(0))
        params[5] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        nets.save_checkpoint(ckpt, nets.DenoiserNet(spec, params))
        out = tmp_path / "run"
        assert main(["sample", "--out", str(out), "--checkpoint", str(ckpt), "--count", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and "1 of" in err and "non-finite" in err
        assert not (out / "samples").exists()

    def test_distill_follows_the_teacher_classes(self, tmp_path):
        # the config has 3 classes, the teacher checkpoint 2: class ids follow the teacher
        spec = nets.NetSpec(channels=(1, 4, 1), class_count=2)
        out = tmp_path / "run"
        out.mkdir()
        nets.save_checkpoint(out / "teacher.ckpt", nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(0))))
        cfg_file = tmp_path / "two-steps.cfg"
        cfg_file.write_text("distill.steps = 2\n")
        assert main(["distill", "--out", str(out), "--config", str(cfg_file)]) == 0
        assert (out / "distill" / "generator-final.ckpt").exists()

    @pytest.mark.parametrize("damage", ["foreign", "garbled-header", "truncated"])
    def test_damaged_teacher_checkpoint_is_reported(self, tmp_path, capsys, damage):
        out = tmp_path / "run"
        out.mkdir()
        ckpt = out / "teacher.ckpt"
        spec = nets.NetSpec(channels=(1, 4, 1))
        nets.save_checkpoint(ckpt, nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(0))))
        raw = ckpt.read_bytes()
        header_len = struct.unpack_from("<I", raw, 8)[0]
        ckpt.write_bytes({
            "foreign": b"garbage " * 16,
            "garbled-header": raw[:12] + b"#" * header_len + raw[12 + header_len:],
            "truncated": raw[:-1],
        }[damage])
        assert main(["distill", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ckpt) in err
        assert not (out / "distill").exists()

    # the micro config records 6 samples per class and tier and 3 classes;
    # each edit keeps the header's length
    @pytest.mark.parametrize("edits, named", [
        ([(b'"seed": ', b'"sede": ')], "KeyError: 'seed'"),
        ([(b'"n_classes": 3', b'"n_classes": 0')], "data.n_classes"),
        ([(b'"n_per_class_high": 6', b'"n_per_class_high": 0')], "data.n_per_class_high must be at least 1"),
        ([(b'"n_per_class_low": 6', b'"n_per_class_low": 5')], "bytes from the header"),
    ], ids=["missing-key", "no-classes", "count-off-config", "count-does-not-tile"])
    def test_damaged_dataset_header_is_reported(self, tmp_path, micro_config, capsys, edits, named):
        out = tmp_path / "run"
        common = ["--config", str(micro_config), "--out", str(out)]
        assert main(["gen-data", *common]) == 0
        dataset = out / "dataset.bin"
        raw = dataset.read_bytes()
        for entry, damaged in edits:
            assert entry in raw
            raw = raw.replace(entry, damaged, 1)
        dataset.write_bytes(raw)
        capsys.readouterr()
        assert main(["train-teacher", *common]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(dataset) in err and named in err
        assert not (out / "teacher.ckpt").exists()

    def test_out_of_range_class_id_is_reported(self, tmp_path, micro_config, capsys):
        out = tmp_path / "run"
        common = ["--config", str(micro_config), "--out", str(out)]
        assert main(["gen-data", *common]) == 0
        dataset = out / "dataset.bin"
        raw = bytearray(dataset.read_bytes())
        (header_len,) = struct.unpack_from("<I", raw, 8)
        raw[12 + header_len + 5] = 7  # the class id byte of low-tier sample 5
        dataset.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["train-teacher", *common]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(dataset) in err and "class id 7" in err
        assert not (out / "teacher.ckpt").exists()

    def test_full_micro_pipeline(self, tmp_path, micro_config, capsys):
        out = str(tmp_path / "run")
        common = ["--config", str(micro_config), "--seed", "3", "--out", out]
        assert main(["gen-data", *common]) == 0
        assert main(["train-teacher", *common]) == 0
        # each optimizer's counts, micro config: 12 + 12 teacher steps, 6 distill steps
        assert re.search(r"^teacher optimizer: 24 steps taken, \d+ clipped, 0 skipped$",
                         capsys.readouterr().out, re.M)
        assert main(["distill", *common]) == 0
        out_text = capsys.readouterr().out
        for name in ("generator", "fake score"):
            assert re.search(rf"^{name} optimizer: 6 steps taken, \d+ clipped, 0 skipped$", out_text, re.M)
        assert main(["distill", *common, "--rm-disabled"]) == 0
        assert main(["sample", *common, "--count", "2"]) == 0
        capsys.readouterr()
        assert main(["eval", *common]) == 0
        eval_text = capsys.readouterr().out
        for method in ("student-cascade", "naive-cascade", "rm-disabled-cascade"):
            assert re.search(rf"^{method}: mmd_to_reference = -?\d+\.\d{{6}}$", eval_text, re.M), method
        run = tmp_path / "run"
        files = {p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file()}
        pgms = ["samples/sample-000", "samples/sample-001", "eval/reference", "eval/student-cascade",
                "eval/naive-cascade", "eval/rm-disabled-cascade"]
        assert files == {
            "config.txt", "manifest.txt", "dataset.bin", "teacher.ckpt", "teacher-log.csv",
            "distill-log-final.csv", "distill-log-rm-disabled.csv",
            "distill/generator-final.ckpt", "distill/fake-final.ckpt",
            "distill/generator-rm-disabled.ckpt", "distill/fake-rm-disabled.ckpt",
            "samples/trace.csv", "samples/stats.csv", "eval/report.csv",
            *(f"{name}.pgm" for name in pgms), *(f"{name}.pgm.range.txt" for name in pgms),
        }
        # RunDirectory names every top-level and distill/ file; the rest lie in samples/ and eval/
        layout = cfgmod.RunDirectory(run)
        named = {layout.dataset, layout.teacher, layout.teacher_log, layout.config, layout.manifest,
                 *(path(arm) for arm in ("final", "rm-disabled")
                   for path in (layout.generator, layout.fake, layout.distill_log))}
        placed = {run / f for f in files if (run / f).parent in (run, layout.distill)}
        assert placed == named
        assert {(run / f).parent for f in files} == {run, layout.distill, layout.samples, layout.eval}
        # the last manifest (distill --rm-disabled) lists every file then under the run, by size
        listed = dict(re.findall(r"^file\.(\S+) = (\d+)$", layout.manifest.read_text(), re.M))
        assert listed == {f: str((run / f).stat().st_size) for f in files
                          if f != "manifest.txt" and (run / f).parent not in (layout.samples, layout.eval)}
        assert "distill/generator-rm-disabled.ckpt" in listed and "distill/fake-final.ckpt" in listed

    def test_gen_data_idempotent_bytes(self, tmp_path, micro_config):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["gen-data", "--config", str(micro_config), "--seed", "5", "--out", out]) == 0
        a = (tmp_path / "a" / "dataset.bin").read_bytes()
        b = (tmp_path / "b" / "dataset.bin").read_bytes()
        assert a == b

    def test_sample_many_step_mode(self, tmp_path, micro_config):
        out = str(tmp_path / "run")
        common = ["--config", str(micro_config), "--seed", "3", "--out", out]
        assert main(["gen-data", *common]) == 0
        assert main(["train-teacher", *common]) == 0
        assert (
            main(["sample", *common, "--checkpoint", str(tmp_path / "run" / "teacher.ckpt"),
                  "--count", "2", "--many-step", "4"]) == 0
        )
        assert (tmp_path / "run" / "samples" / "stats.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--many-step", "0"], "--many-step must be at least 1, got 0"),
        (["--many-step", "-2"], "--many-step must be at least 1, got -2"),
        (["--class-id", "9"], "--class-id must be in [0, 3)"),
        (["--class-id", "-1"], "--class-id must be in [0, 3)"),
    ], ids=["many-step-zero", "many-step-negative", "class-id-too-large", "class-id-negative"])
    def test_sample_rejects_bad_flag(self, tmp_path, capsys, flags, message):
        spec = nets.NetSpec(channels=(1, 4, 1))
        ckpt = tmp_path / "net.ckpt"
        nets.save_checkpoint(ckpt, nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(0))))
        out = tmp_path / "run"
        code = main(["sample", "--out", str(out), "--checkpoint", str(ckpt), "--count", "2", *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (out / "samples").exists()

    @pytest.mark.parametrize("flags", [[], ["--many-step", "6"]], ids=["cascade", "many-step"])
    def test_sample_writes_one_trace(self, tmp_path, flags):
        # every sample of the batch runs the same schedule, so one trace describes them all;
        # many-step mode is the one-stage cascade at the final resolution, and its trace
        # replaces the one a cascade run left in the same directory
        spec = nets.NetSpec(channels=(1, 4, 1), class_count=3)
        ckpt = tmp_path / "net.ckpt"
        nets.save_checkpoint(ckpt, nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(0))))
        out = tmp_path / "run"
        common = ["sample", "--out", str(out), "--checkpoint", str(ckpt), "--count", "3"]
        assert main(common) == 0
        assert main([*common, *flags]) == 0
        d = cfgmod.preset("toy-default").distill
        partition, n_steps = (d.partition(), d.n_steps) if not flags else (
            schedule.build_partition([], [d.resolutions[-1]]), 6)
        cascade.schedule_trace(partition, n_steps).write_csv(tmp_path / "expected.csv")
        samples = out / "samples"
        assert (samples / "trace.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        assert not list(samples.glob("trace-*.csv"))

    def test_sample_replaces_an_earlier_run(self, tmp_path):
        # samples/ holds one run: a smaller second run leaves none of the first run's images
        spec = nets.NetSpec(channels=(1, 4, 1), class_count=3)
        ckpt = tmp_path / "net.ckpt"
        nets.save_checkpoint(ckpt, nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(0))))
        out = tmp_path / "run"
        common = ["sample", "--out", str(out), "--checkpoint", str(ckpt)]
        assert main([*common, "--count", "3"]) == 0
        assert main([*common, "--count", "2"]) == 0
        assert sorted(p.name for p in (out / "samples").iterdir()) == [
            "sample-000.pgm", "sample-000.pgm.range.txt", "sample-001.pgm", "sample-001.pgm.range.txt",
            "stats.csv", "trace.csv"]
        with open(out / "samples" / "stats.csv", newline="") as f:
            assert [row["index"] for row in csv.DictReader(f)] == ["0", "1"]

    def test_schedule_csv_is_the_sample_trace(self, tmp_path):
        # one layout for the schedule's rows: ScheduleStep's fields, in order
        spec = nets.NetSpec(channels=(1, 4, 1), class_count=3)
        ckpt = tmp_path / "net.ckpt"
        nets.save_checkpoint(ckpt, nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(0))))
        cfg_file = tmp_path / "five-steps.cfg"
        cfg_file.write_text("distill.n_steps = 5\n")
        out = tmp_path / "run"
        assert main(["schedule", "--config", str(cfg_file), "--csv", str(tmp_path / "schedule.csv")]) == 0
        assert main(["sample", "--config", str(cfg_file), "--out", str(out), "--checkpoint", str(ckpt),
                     "--count", "2"]) == 0
        table = (tmp_path / "schedule.csv").read_bytes()
        assert table == (out / "samples" / "trace.csv").read_bytes()
        assert table.splitlines()[0].decode() == ",".join(f.name for f in fields(schedule.ScheduleStep))

    @pytest.mark.parametrize("flags", [[], ["--many-step", "4"]], ids=["cascade", "many-step"])
    def test_sample_cycles_the_checkpoint_classes(self, tmp_path, flags):
        # the config has 3 classes, the checkpoint 2: the default ids follow the checkpoint
        spec = nets.NetSpec(channels=(1, 4, 1), class_count=2)
        ckpt = tmp_path / "two.ckpt"
        nets.save_checkpoint(ckpt, nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(0))))
        out = tmp_path / "run"
        assert main(["sample", "--out", str(out), "--checkpoint", str(ckpt), "--count", "3", *flags]) == 0
        with open(out / "samples" / "stats.csv", newline="") as f:
            assert [row["class_id"] for row in csv.DictReader(f)] == ["0", "1", "0"]


def _load_run_pipeline():
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline.py"
    spec = importlib.util.spec_from_file_location("run_pipeline", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunPipelineScript:
    @pytest.mark.parametrize("code", [0, 3])
    def test_fast_config_file_removed(self, tmp_path, monkeypatch, code):
        script = _load_run_pipeline()
        seen = []

        def stub_cli(argv):
            cfg_path = Path(argv[argv.index("--config") + 1])
            assert cfg_path.read_text() == script.FAST_OVERRIDES
            seen.append(cfg_path)
            return code

        monkeypatch.setattr(script, "cli", stub_cli)
        assert script.run(["--fast", "--out", str(tmp_path / "run")]) == code
        assert seen and not any(p.exists() for p in seen)

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "full"])
    def test_fast_run_says_its_eval_cannot_rank_the_arms(self, tmp_path, monkeypatch, capsys, fast):
        script = _load_run_pipeline()
        monkeypatch.setattr(script, "cli", lambda argv: 0)
        assert script.run([*(["--fast"] if fast else []), "--out", str(tmp_path / "run")]) == 0
        lines = capsys.readouterr().out.splitlines()
        note = "note: --fast scores 32 images per arm: its eval checks structure only and cannot rank the arms"
        if fast:
            assert lines[-1] == note
        else:
            assert not any("cannot rank" in line for line in lines)


class TestArtifactDigests:
    def test_sorted_digests_skip_the_manifest(self, tmp_path, capsys):
        path = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digests.py"
        spec = importlib.util.spec_from_file_location("artifact_digests", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        run = tmp_path / "run"
        (run / "distill").mkdir(parents=True)
        for rel, body in [("teacher.ckpt", b"t"), ("distill/generator-final.ckpt", b"g"),
                          ("manifest.txt", b"wall times")]:
            (run / rel).write_bytes(body)
        assert script.run([str(run)]) == 0
        sha = {body: hashlib.sha256(body).hexdigest() for body in (b"t", b"g")}
        assert capsys.readouterr().out == (f"{sha[b'g']}  distill/generator-final.ckpt\n"
                                           f"{sha[b't']}  teacher.ckpt\n")


class TestBlasThreadPin:
    THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def pinned(self, **env):
        base = {k: v for k, v in os.environ.items() if k not in self.THREAD_VARS}
        base["PYTHONPATH"] = str(Path(crossres.__file__).resolve().parents[1])
        code = f"import crossres, os; print(*(os.environ[v] for v in {self.THREAD_VARS!r}))"
        out = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                             capture_output=True, text=True, check=True)
        return out.stdout.split()

    def test_import_pins_one_thread(self):
        assert self.pinned() == ["1", "1", "1"]

    def test_explicit_setting_wins(self):
        assert self.pinned(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]


FAULT_PROBE = """
import resource

import crossres
import numpy as np
from crossres import net as nets
from crossres.grid import SeededRng

spec = nets.NetSpec()
net = nets.DenoiserNet(spec, nets.init_params(spec, SeededRng(0)))
x = SeededRng(1).normal((16, 1, 16, 16))
class_ids = [k % spec.class_count for k in range(16)]


def call():
    nets.loss_and_grad(net, x, 0.5, class_ids, lambda sl, out: (float(np.sum(out * out)), 2.0 * out))


call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    call()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc thresholds are glibc's")
class TestSettledHeap:
    """`import crossres` fixes glibc's malloc thresholds, so the batched net
    stops page-faulting its temporaries back in on every call."""

    MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")

    def minor_faults(self, **env):
        base = {k: v for k, v in os.environ.items() if k not in self.MALLOC_VARS}
        base["PYTHONPATH"] = str(Path(crossres.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env={**base, **env},
                             capture_output=True, text=True, check=True)
        return int(out.stdout)

    def test_net_calls_stop_faulting(self):
        assert self.minor_faults() <= 100

    @pytest.mark.parametrize("env", [
        {"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072"},
        {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"},
    ], ids=["malloc-vars", "glibc-tunables"])
    def test_malloc_setting_in_environment_wins(self, env):
        # crossres leaves these small thresholds in place, so the net faults as under glibc's defaults
        assert self.minor_faults(**env) >= 10 * max(self.minor_faults(), 100)
