#!/usr/bin/env python3
"""End-to-end toy pipeline: data -> teacher -> distill (both arms) -> eval.

Runs the full desk-scale experiment into one run directory and prints the
headline comparison. At the default budgets it took 36-42 seconds (four
runs, seed 0) on one core of a 2-vCPU Xeon VM; pass --fast for a quick
structural smoke run.
"""
import argparse
import os
import sys
import tempfile
import time

# importing crossres (before numpy) pins BLAS to one thread and settles the heap
from crossres.cli import main as cli
from crossres.config import parse_overrides


FAST_OVERRIDES = """
data.n_per_class_low = 16
data.n_per_class_high = 16
teacher.phase1_steps = 120
teacher.phase2_steps = 120
distill.steps = 60
distill.warmup_steps = 10
distill.batch_size = 4
eval.n_per_set = 32
eval.teacher_steps = 8
eval.n_permutations = 40
"""


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/toy")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fast", action="store_true", help="tiny budgets, structure only")
    args = parser.parse_args(argv)

    common = ["--preset", "toy-default", "--seed", str(args.seed), "--out", args.out]
    if not args.fast:
        return _run_steps(common)
    with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as cfg_file:
        cfg_file.write(FAST_OVERRIDES)
    try:
        code = _run_steps([*common, "--config", cfg_file.name])
    finally:
        os.unlink(cfg_file.name)
    if code == 0:
        n = parse_overrides(FAST_OVERRIDES)["eval.n_per_set"]
        print(f"\nnote: --fast scores {n} images per arm: its eval checks structure only and "
              f"cannot rank the arms")
    return code


def _run_steps(common: list[str]) -> int:
    t0 = time.time()
    for step in (
        ["gen-data", *common],
        ["train-teacher", *common],
        ["distill", *common],
        ["distill", *common, "--rm-disabled"],
        ["sample", *common, "--count", "8"],
        ["eval", *common],
    ):
        print(f"\n=== crossres {step[0]} {'(rm-disabled)' if '--rm-disabled' in step else ''} ===")
        code = cli(step)
        if code != 0:
            return code
        print(f"[{time.time() - t0:.0f}s elapsed]")
    return 0


if __name__ == "__main__":
    sys.exit(run())
