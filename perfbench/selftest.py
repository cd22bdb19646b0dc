#!/usr/bin/env python3
"""Benchmark self-test.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics, with the units, that
the benchmark reports, and that each workload's output digest is the same
twice for one seed and differs for another seed. Exits 1 on a failure.
"""
import json
import shutil
import sys

import run

workloads, tracing = run.import_program()
SEEDS = (11, 11, 12)


def digest(name: str, seed: int, workdir) -> str:
    tally = workloads.Tally()
    workloads.build(name, seed, workdir).round(0, tally, workloads.Null())
    if tally.failed:
        raise SystemExit(f"{name} seed {seed}: {tally.failed} of {tally.attempted} checks failed")
    return tally.digest


def spec_problems() -> list[str]:
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text())
    reported = {
        "end_to_end": set(run.END_TO_END_UNITS),
        "per_layer": {*tracing.layer_metrics([], {}, 1.0), "trace.overhead_s", "trace.overhead_share"},
    }
    problems = []
    for kind, names in reported.items():
        listed = {m["name"]: m["unit"] for m in spec[kind]}
        if set(listed) != names:
            problems.append(f"{kind}: BENCHMARK.json lists {sorted(set(listed) - names)} that are not "
                            f"reported and misses {sorted(names - set(listed))}")
        problems += [f"{kind}: {name} has unit {unit}, the benchmark reports {run.unit_of(name)}"
                     for name, unit in listed.items() if name in names and unit != run.unit_of(name)]
    return problems


def main() -> int:
    problems = spec_problems()
    workdir = run.OUT / "selftest"
    try:
        for name in run.WORKLOAD_NAMES:
            a, b, c = (digest(name, seed, workdir) for seed in SEEDS)
            print(f"{name}: seed {SEEDS[0]} {a[:16]} {b[:16]}, seed {SEEDS[2]} {c[:16]}", flush=True)
            if a != b:
                problems.append(f"{name}: seed {SEEDS[0]} gave two digests")
            if a == c:
                problems.append(f"{name}: seeds {SEEDS[0]} and {SEEDS[2]} gave the same digest")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
