"""Command-line surface tying the pipeline together.

Subcommands: gen-data, train-teacher, distill, sample, eval, schedule,
cost. Each but cost resolves a RunConfig (preset + config file + flags).
gen-data, train-teacher and distill write into the run directory and
leave a config copy and manifest there; sample and eval write under it;
schedule prints its table (--csv also writes it). All randomness derives
from the single root seed, so rerunning a command with the same config
reproduces its outputs byte for byte.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import cascade, config as cfgmod, data, diffusion, distill, evalsuite, net as nets
from .grid import SeededRng, write_csv, write_pgm
from .schedule import T_MAX, sigma_to_logsnr


class PrerequisiteError(RuntimeError):
    pass


def _resolve_config(args) -> cfgmod.RunConfig:
    cfg = cfgmod.preset(args.preset)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise PrerequisiteError(f"config file not found: {path}")
        cfg = cfgmod.apply_overrides(cfg, cfgmod.parse_overrides(path.read_text()))
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    cfgmod.validate_config(cfg)
    return cfg


def _root_rng(cfg: cfgmod.RunConfig) -> SeededRng:
    return SeededRng(cfg.seed)


def _dataset_path(args) -> Path:
    return Path(args.out) / "dataset.bin"


def _teacher_path(args) -> Path:
    return Path(args.out) / "teacher.ckpt"


def _generator_path(args) -> Path:
    return Path(args.out) / "distill" / "generator-final.ckpt"


def _load(loader, path: Path, hint: str):
    """loader(path); a missing or damaged file is a PrerequisiteError naming it."""
    if not path.exists():
        raise PrerequisiteError(f"missing prerequisite: {path} (run `crossres {hint}` first)")
    try:
        return loader(path)
    except ValueError as err:  # the loaders' messages start with the path
        raise PrerequisiteError(str(err)) from err


def _print_optimizer(name: str, opt: nets.AdamW) -> None:
    print(f"{name} optimizer: {opt.step_count} steps taken, {opt.clipped} clipped, "
          f"{opt.skipped} skipped")


def cmd_gen_data(args) -> int:
    cfg = _resolve_config(args)
    run = cfgmod.RunDirectory(args.out, cfg)
    data.gen_dataset(cfg.data, _root_rng(cfg).derive("dataset"), run.file("dataset.bin"))
    run.record_time("gen-data")
    run.finalize()
    print(f"dataset written to {run.file('dataset.bin')}")
    return 0


def cmd_train_teacher(args) -> int:
    cfg = _resolve_config(args)
    ds = _load(data.load_dataset, _dataset_path(args), "gen-data")
    run = cfgmod.RunDirectory(args.out, cfg)
    model, _ = diffusion.train_teacher(
        ds, cfg.teacher, _root_rng(cfg).derive("teacher"), log_path=run.file("teacher-log.csv"),
    )
    nets.save_checkpoint(run.file("teacher.ckpt"), model.net)
    run.record_time("train-teacher")
    run.finalize()
    print(f"teacher checkpoint at {run.file('teacher.ckpt')}")
    _print_optimizer("teacher", model.opt)
    return 0


def cmd_distill(args) -> int:
    cfg = _resolve_config(args)
    teacher_net = _load(nets.load_checkpoint, _teacher_path(args), "train-teacher")
    teacher = diffusion.TeacherModel(net=teacher_net)
    run = cfgmod.RunDirectory(args.out, cfg)
    ckpt_dir = run.file("distill")
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    arm = "rm-disabled" if args.rm_disabled else "final"
    dcfg = cfg.distill if not args.rm_disabled else distill.rm_disabled_config(cfg.distill)
    state, _ = distill.train(
        teacher, dcfg, _root_rng(cfg).derive("distill"), log_path=run.file(f"distill-log-{arm}.csv"),
    )
    nets.save_checkpoint(ckpt_dir / f"generator-{arm}.ckpt", state.generator)
    nets.save_checkpoint(ckpt_dir / f"fake-{arm}.ckpt", state.fake)
    run.record_time("distill")
    run.finalize()
    print(f"distilled checkpoints in {ckpt_dir}")
    _print_optimizer("generator", state.opt_generator)
    _print_optimizer("fake score", state.opt_fake)
    return 0


def cmd_sample(args) -> int:
    cfg = _resolve_config(args)
    if args.count < 1:
        raise cfgmod.ConfigError(f"--count must be at least 1, got {args.count}")
    if args.many_step is not None and args.many_step < 1:
        raise cfgmod.ConfigError(f"--many-step must be at least 1, got {args.many_step}")
    ckpt = Path(args.checkpoint) if args.checkpoint else _generator_path(args)
    net = _load(nets.load_checkpoint, ckpt, "distill")
    n_classes = net.spec.class_count
    if args.class_id is not None and not 0 <= args.class_id < n_classes:
        raise cfgmod.ConfigError(
            f"--class-id must be in [0, {n_classes}) for {ckpt}, got {args.class_id}")
    out_dir = Path(args.out) / "samples"
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = _root_rng(cfg)
    class_ids = ([args.class_id] * args.count if args.class_id is not None
                 else evalsuite.round_robin(args.count, n_classes))
    if args.many_step is not None:
        res = cfg.distill.resolutions[-1]
        seeds = [rng.derive(f"euler:{i}").seed for i in range(args.count)]
        images = diffusion.euler_sample(net, class_ids, res, args.many_step, seeds)
    else:
        d = cfg.distill
        seeds = [rng.derive(f"cascade:{i}").seed for i in range(args.count)]
        trace = cascade.schedule_trace(d.partition(), d.n_steps)
        images = cascade.run_cascade(net, trace, d.alpha_inference, class_ids, seeds).final
        trace.write_csv(out_dir / "trace.csv")  # every sample of the batch shares it
    for i, img in enumerate(images):
        write_pgm(out_dir / f"sample-{i:03d}.pgm", img, lo=-0.25, hi=1.25)
    write_csv(out_dir / "stats.csv", ["index", "class_id", "mean", "variance"],
              ((i, c, img.mean(), img.var()) for i, (c, img) in enumerate(zip(class_ids, images))))
    print(f"{args.count} samples in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    teacher = _load(nets.load_checkpoint, _teacher_path(args), "train-teacher")
    student = _load(nets.load_checkpoint, _generator_path(args), "distill")
    rm_path = Path(args.out) / "distill" / "generator-rm-disabled.ckpt"
    rm_net = _load(nets.load_checkpoint, rm_path, "distill --rm-disabled") if rm_path.exists() else None
    ds_path = _dataset_path(args)
    ds = _load(data.load_dataset, ds_path, "gen-data") if ds_path.exists() else None
    report = evalsuite.evaluate_run(
        student=student,
        teacher=teacher,
        rm_disabled=rm_net,
        dataset=ds,
        partition=cfg.distill.partition(),
        n_steps=cfg.distill.n_steps,
        alpha_inference=cfg.distill.alpha_inference,
        cfg=cfg.eval,
        rng=_root_rng(cfg).derive("eval"),
        out_dir=Path(args.out) / "eval",
    )
    for method, metric, value in report.rows:
        if metric == "mmd_to_reference" and method != "reference-null":
            print(f"{method}: mmd_to_reference = {value:.6f}")
    print(f"null width = {report.null_width:.6f}")
    print(f"report at {Path(args.out) / 'eval' / 'report.csv'}")
    return 0


def cmd_schedule(args) -> int:
    cfg = _resolve_config(args)
    trace = cascade.schedule_trace(cfg.distill.partition(), cfg.distill.n_steps)
    rows = trace.records
    header = f"{'step':>4} {'stage':>5} {'res':>5} {'timestep':>9} {'sigma':>8} {'logsnr':>9}"
    print(header)
    for r in rows:
        logsnr = sigma_to_logsnr(r.shifted_sigma) if 0 < r.shifted_sigma < 1 else float("-inf")
        print(
            f"{r.step:>4} {r.stage:>5} {r.resolution:>5} {T_MAX * r.shifted_sigma:>9.1f} "
            f"{r.shifted_sigma:>8.4f} {logsnr:>9.3f}"
        )
    print("timesteps:", "[" + ", ".join(str(round(T_MAX * r.shifted_sigma)) for r in rows) + "]")
    if args.csv:
        trace.write_csv(args.csv)
        print(f"csv written to {args.csv}")
    return 0


COST_CONFIGS = [
    # (label, base steps, base res, cfg multiplier, method stages)
    ("sdxl-like", 40, 1024, 2.0, [(2, 512), (2, 1024)]),
    ("sd35-like", 40, 1024, 2.0, [(2, 512), (2, 1024)]),
    ("wan-like", 50, (1280, 720), 2.0, [(3, (832, 480)), (3, (1280, 720))]),
]


def cmd_cost(args) -> int:
    print(f"{'config':<12} {'gamma=1':>9} {'gamma=2':>9}")
    for label, steps, res, cfg_mult, method in COST_CONFIGS:
        g1 = evalsuite.cost_model_speedup((steps, res, cfg_mult), method, gamma=1.0)
        g2 = evalsuite.cost_model_speedup((steps, res, cfg_mult), method, gamma=2.0)
        print(f"{label:<12} {g1:>8.1f}x {g2:>8.1f}x")
    print("per-step cost = pixels^gamma; gamma=1 token-linear, gamma=2 attention-quadratic")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossres",
        description="Desk-scale cross-resolution few-step diffusion distillation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run=True):  # schedule takes no seed and writes no run directory
        p.add_argument("--preset", default="toy-default", choices=sorted(cfgmod.PRESETS))
        p.add_argument("--config", help="key-path = value override file")
        if run:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--out", default="runs/toy", help="run directory")

    p = sub.add_parser("gen-data", help="generate the two-tier shape dataset")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-teacher", help="curriculum-train the multi-step teacher")
    common(p)
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("distill", help="distill the teacher into a few-step cascaded generator")
    common(p)
    p.add_argument("--rm-disabled", action="store_true",
                   help="ablation arm: single-resolution matching only")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("sample", help="sample from a checkpoint (cascade or many-step)")
    common(p)
    p.add_argument("--checkpoint", help="net checkpoint (default: distilled generator)")
    p.add_argument("--class-id", type=int, default=None)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--many-step", type=int, default=None,
                   help="plain Euler sampling with this many steps instead of the cascade")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="score the distilled cascade against baselines")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("schedule", help="print a timestep/resolution schedule table")
    common(p, run=False)
    p.add_argument("--csv", help="also write the table to this CSV path")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("cost", help="analytic speedup table of the cascade schedules")
    p.set_defaults(func=cmd_cost)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PrerequisiteError, cfgmod.ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
