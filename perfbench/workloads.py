"""The three benchmark workloads and the loop that times them.

Each workload builds its inputs from the seed in its constructor (the
set-up that `setup_s` times) and then runs whole rounds, one at a time,
in a closed loop with a single caller (`measure`). A round records the
timings of its operations, checks the outputs, and counts every failed
check as a failed operation. Round 0 is the fixed amount of work every run
completes, so the output digest is taken from it.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from crossres import cascade, cli, config as cfgmod, diffusion, distill, evalsuite, net as nets
from crossres.grid import SeededRng

perf = time.perf_counter
REPO = Path(__file__).resolve().parent.parent


@dataclass
class Tally:
    """What a run measured: operation and round times, checks, rate."""

    op_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    rate_items: int = 0
    rate_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    digest: str | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


class Null:
    """Stands in for the tracer in untraced runs."""

    request = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _teacher_net(cfg: cfgmod.RunConfig, rng: SeededRng) -> nets.DenoiserNet:
    spec = cfg.teacher.net_spec(cfg.data.n_classes)
    return nets.DenoiserNet(spec, nets.init_params(spec, rng))


def _finite(*values) -> bool:
    return all(bool(np.all(np.isfinite(v))) for v in values)


class DistillTrain:
    """`distill.train_step` on the toy-default distill config.

    An episode is the toy-default run (500 steps, 80 of them warm-up)
    scaled down 20 times: 25 steps from a fresh state, the first 4 in
    warm-up. Every episode therefore crosses the warm-up boundary, with the
    warm-up share of the full run.
    """

    name = "distill-train"
    labels = ("distill_steps_per_s", "distill_step", "distill_episode_s")
    units = ("steps", "steps", "episodes")
    EPISODE = 25

    def __init__(self, seed: int):
        cfg = cfgmod.toy_default()
        full = cfg.distill
        self.config = replace(full, steps=self.EPISODE,
                              warmup_steps=full.warmup_steps * self.EPISODE // full.steps)
        self.partition = self.config.partition()
        self.n_classes = cfg.data.n_classes
        self.rng = SeededRng(seed)
        self.teacher = diffusion.TeacherModel(
            net=_teacher_net(cfg, self.rng.derive("teacher")),
            trained_resolutions=list(full.resolutions),
        )

    def round(self, k: int, tally: Tally, tracer) -> None:
        rng = self.rng.derive(f"episode:{k}")
        class_rng = rng.derive("classes")
        state = distill.init_distill_state(self.teacher, self.config)
        for j in range(self.config.steps):
            class_ids = [int(c) for c in class_rng.integers(0, self.n_classes, self.config.batch_size)]
            tracer.request = f"step:{k}:{j}"
            t0 = perf()
            try:
                rec = distill.train_step(state, self.teacher.net, self.partition, self.config,
                                         class_ids, rng)
            except RuntimeError as err:  # train_step aborts on a non-finite loss
                tally.op_s.append(perf() - t0)
                tally.check(False, f"episode {k} step {j}: {err}")
                state.step += 1
                continue
            dt = perf() - t0
            tally.op_s.append(dt)
            tally.rate_items += 1
            tally.rate_s += dt
            tally.check(
                _finite(rec.generator_loss, rec.fake_loss, state.generator.params, state.fake.params),
                f"episode {k} step {j}: non-finite loss or parameters",
            )
        if k == 0:
            tally.digest = hashlib.sha256(state.generator.params.astype("<f8").tobytes()).hexdigest()


class SampleEval:
    """Forward-only evaluation at toy eval sizes.

    A round draws seed-matched 256-sample cascade sets for the student and
    naive arms (one `cascade.infer` per sample, timed one by one), the
    256-sample 32-step Euler teacher reference set, and runs
    `evalsuite.evaluate_sets`. The sets are built in chunks of 32 indices,
    cascade samples then reference samples, so the timed samples spread over
    the whole round instead of its first quarter and average over the
    machine's speed swings. The nets are seeded initialisations: timing does
    not depend on weights.
    """

    name = "sample-eval"
    labels = ("cascade_samples_per_s", "cascade_sample", "eval_s")
    units = ("samples", "samples", "rounds")
    CHUNK = 32

    def __init__(self, seed: int):
        cfg = cfgmod.toy_default()
        self.cfg = cfg
        self.partition = cfg.distill.partition()
        self.n_classes = cfg.data.n_classes
        self.rng = SeededRng(seed)
        self.teacher = _teacher_net(cfg, self.rng.derive("teacher"))
        self.student = _teacher_net(cfg, self.rng.derive("student"))

    def round(self, k: int, tally: Tally, tracer) -> None:
        rng = self.rng.derive(f"round:{k}")
        d, ev = self.cfg.distill, self.cfg.eval
        res = self.partition.final_resolution
        arms = (("student-cascade", self.student, d.alpha_inference), ("naive-cascade", self.teacher, 0.0))
        outputs, reference_chunks, sample_s = [], [], []
        for start in range(0, ev.n_per_set, self.CHUNK):
            chunk = range(start, min(start + self.CHUNK, ev.n_per_set))
            for tag, net, alpha in arms:
                for i in chunk:
                    params = cascade.CascadeParams(
                        partition=self.partition, n_steps=d.n_steps, alpha_inference=alpha,
                        class_id=i % self.n_classes, seed=rng.derive(f"arm:{i}").seed,
                    )
                    tracer.request = f"{tag}:{k}:{i}"
                    t0 = perf()
                    try:
                        image, trace = cascade.infer(net, params)
                    except (cascade.CascadeError, ValueError) as err:
                        tally.check(False, f"round {k} {tag} sample {i}: {err}")
                        continue
                    sample_s.append(perf() - t0)
                    outputs.append((tag, i, image, trace))
            tracer.request = f"reference:{k}:{start}"
            reference_chunks.append(evalsuite.sample_teacher_set(
                self.teacher, res, len(chunk), ev.teacher_steps, self.n_classes,
                rng.derive(f"reference:{start}"), "teacher-highres",
            ).images)
        tally.op_s += sample_s
        tally.rate_items += len(sample_s)
        tally.rate_s += sum(sample_s)
        for tag, i, image, trace in outputs:
            ok = image.shape == (1, res, res) and _finite(image)
            try:
                trace.validate(self.partition)
            except cascade.CascadeError:
                ok = False
            tally.check(ok, f"round {k} {tag} sample {i}")
        missing = len(arms) * ev.n_per_set - len(outputs)
        if missing:
            tally.check(False, f"round {k}: not evaluated, {missing} samples failed")
            return

        reference = evalsuite.SampleSet(np.concatenate(reference_chunks), "teacher-highres")
        candidates = [
            evalsuite.SampleSet(np.stack([o[2] for o in outputs if o[0] == tag]), tag) for tag, _, _ in arms
        ]
        tracer.request = f"evaluate:{k}"
        report = evalsuite.evaluate_sets(reference, candidates, None, ev, rng.derive("eval"))
        mmd = [v for _, metric, v in report.rows if metric == "mmd_to_reference"]
        tally.check(len(mmd) == 1 + len(arms) and _finite(mmd), f"round {k}: MMD values {mmd}")
        tally.check(report.null_width > 0, f"round {k}: null width {report.null_width}")
        if k == 0:
            h = hashlib.sha256()
            for s in (*candidates, reference):
                h.update(s.images.astype("<f8").tobytes())
            tally.digest = h.hexdigest()


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class PipelineFast:
    """The command sequence of `scripts/run_pipeline.py --fast`, run through
    `crossres.cli.main` into a fresh run directory inside `workdir`.

    Each round runs in a fresh interpreter, as the script does, so every
    round pays the cold start its users pay and no round is warmer than
    another. An operation is one pipeline, timed as the sum of its
    commands; a round adds the interpreter start.
    """

    name = "pipeline-fast"
    labels = ("teacher_steps_per_s", "pipeline", "pipeline_s")
    units = ("teacher steps", "pipelines", "pipelines")
    COMMANDS = (
        ["gen-data"], ["train-teacher"], ["distill"], ["distill", "--rm-disabled"],
        ["sample", "--count", "8"], ["eval"],
    )
    REPORT_ROWS = ("student-cascade", "naive-cascade", "rm-disabled-cascade")

    def __init__(self, seed: int, workdir: Path):
        self.overrides = _load_script("run_pipeline").FAST_OVERRIDES
        cfg = cfgmod.apply_overrides(cfgmod.preset("toy-default"), cfgmod.parse_overrides(self.overrides))
        self.teacher_steps = cfg.teacher.phase1_steps + cfg.teacher.phase2_steps
        self.seed = seed
        self.rng = SeededRng(seed)
        self.workdir = workdir

    def round(self, k: int, tally: Tally, tracer) -> None:
        traced = not isinstance(tracer, Null)
        out = subprocess.run(
            [sys.executable, str(REPO / "perfbench" / "run.py"), "--workload", self.name,
             "--seed", str(self.seed), "--trace", str(int(traced)), "--child-round", str(k)],
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        child = json.loads(out.splitlines()[-1])
        t = child["tally"]
        tally.op_s += t["op_s"]
        tally.rate_items += t["rate_items"]
        tally.rate_s += t["rate_s"]
        tally.attempted += t["attempted"]
        tally.failed += t["failed"]
        tally.digest = tally.digest or t["digest"]
        if traced:
            tracer.absorb(child["spans"], child["counts"])

    def run_in_process(self, k: int, tally: Tally, tracer) -> None:
        run_dir = self.workdir / f"pipeline-{k}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        cfg_path = self.workdir / f"pipeline-{k}.cfg"
        cfg_path.write_text(self.overrides)
        seed = str(self.rng.derive(f"round:{k}").seed)
        common = ["--preset", "toy-default", "--seed", seed, "--out", str(run_dir), "--config", str(cfg_path)]
        try:
            pipeline_s = 0.0
            for cmd in self.COMMANDS:
                argv = [cmd[0], *common, *cmd[1:]]
                tracer.request = " ".join(cmd)
                log = io.StringIO()
                t0 = perf()
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = cli.main(argv)
                dt = perf() - t0
                pipeline_s += dt
                if cmd[0] == "train-teacher":
                    tally.rate_items += self.teacher_steps
                    tally.rate_s += dt
                tally.check(code == 0, f"round {k} `{' '.join(cmd)}` returned {code}:\n{log.getvalue()}")
            tally.op_s.append(pipeline_s)

            report = run_dir / "eval" / "report.csv"
            methods = set()
            if report.exists():
                with open(report, newline="") as f:
                    methods = {row["method"] for row in csv.DictReader(f)}
            tally.check(all(m in methods for m in self.REPORT_ROWS), f"round {k}: report rows {sorted(methods)}")
            if k == 0:
                h = hashlib.sha256()
                for path in [*sorted(run_dir.rglob("*.ckpt")), report]:
                    h.update(path.relative_to(run_dir).as_posix().encode())
                    h.update(path.read_bytes() if path.exists() else b"")
                tally.digest = h.hexdigest()
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
            cfg_path.unlink(missing_ok=True)


def measure(workload, seconds: float, arms) -> float:
    """Run whole rounds while the next one is expected to end within
    `seconds` of the start; always at least one.

    Each round index runs once per (tally, tracer) arm, back to back, so a
    traced round and its untraced twin see the same inputs and nearly the
    same machine state. Returns the peak RSS in MB, read after the first
    round, a fixed amount of work, so it does not depend on how many rounds
    fit.
    """
    start = perf()
    costs = []
    k = 0
    while True:
        t_k = perf()
        for tally, tracer in arms:
            t0 = perf()
            with tracer:
                workload.round(k, tally, tracer)
            tally.round_s.append(perf() - t0)
        if not costs:
            # a round run in a child process leaves its peak in RUSAGE_CHILDREN
            peak_rss_mb = max(resource.getrusage(who).ru_maxrss
                                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
        costs.append(perf() - t_k)
        k += 1
        if perf() - start + statistics.median(costs) > seconds:
            return peak_rss_mb


WORKLOADS = {w.name: w for w in (DistillTrain, SampleEval, PipelineFast)}


def build(name: str, seed: int, workdir: Path):
    cls = WORKLOADS[name]
    return cls(seed, workdir) if cls is PipelineFast else cls(seed)
