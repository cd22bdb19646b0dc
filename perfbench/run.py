#!/usr/bin/env python3
"""crossres benchmark: training, few-step sampling and the CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is distill-train, sample-eval, pipeline-fast, or `all` (each workload
in its own process, one after the other). With --trace 0 the run measures
the end-to-end metrics with nothing wrapped; with --trace 1 it runs every
round twice, untraced then traced, and reports the per-layer metrics. The
last line of standard output is one JSON object; the lines before it name
every metric with its unit and sample count. Results, the environment and
the spans go to perfbench/out/. See perfbench/README.md.
"""
import os

# The documented target is one core: pin BLAS before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("distill-train", "sample-eval", "pipeline-fast")
# pipeline-fast runs each round in a fresh interpreter with glibc's defaults
COLD_START = ("pipeline-fast",)
SETUP_REPEATS = 11
# glibc mallopt parameters
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def import_program():
    """Import crossres from the checkout's src/, or exit 2 if it is not there."""
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import crossres
        import tracing
        import workloads
    except ImportError as err:
        print(f"perfbench: cannot import the program from {REPO / 'src'}: {err}", file=sys.stderr)
        sys.exit(2)
    if not Path(crossres.__file__).resolve().is_relative_to(REPO / "src"):
        print(f"perfbench: crossres was imported from {crossres.__file__}, not {REPO / 'src'}", file=sys.stderr)
        sys.exit(2)
    return workloads, tracing


def steady_heap() -> bool:
    """Fix glibc's malloc thresholds at the values they settle to.

    A fresh process page-faults on every large numpy temporary until glibc
    has raised its mmap and trim thresholds: for the first ~70 distill steps
    or the first sample-eval round (about 400k minor faults a round, 1.5
    times slower), then hardly at all. A training or evaluation run spends
    most of its time past that point; fixing the thresholds before numpy
    loads measures that state from the first round on.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 and mallopt(M_TRIM_THRESHOLD, 512 << 20) == 1


def blas_threads():
    """Thread count OpenBLAS reports, read through its C API."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor()


def cpu_probe(seconds: float = 0.25) -> float:
    """Fixed-size GEMMs per second: how fast this core is right now. The load
    average does not show a neighbour busy on the same host; this does."""
    import numpy as np

    a, b = np.ones((256, 216)), np.ones((216, 24))
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for _ in range(50):
            a @ b
        n += 50
    return n / (time.perf_counter() - t0)


def steal_s() -> float:
    """CPU seconds the hypervisor gave to other guests, summed over all CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; q = 0.5 is the median."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def block_median(values, size: int = 32) -> float:
    """Median of each block of `size` consecutive values, averaged over the
    blocks (weighted by their length).

    On a shared host a core can switch between two speeds, about 1.7 times
    apart every second or so on a 2-vCPU VM, as other tenants come and go.
    The pooled median of uniform operations then jumps between the two
    speeds' latencies from run to run; the block average follows the share
    of time spent at each speed.
    """
    blocks = [values[i:i + size] for i in range(0, len(values), size)]
    return sum(len(b) * quantile(b, 0.5) for b in blocks) / len(values)


def setup_times(args) -> list[float]:
    """Wall time of fresh processes that import the program and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def line(name: str, value, unit: str, n) -> str:
    return f"{name:<34} {value:>14.6g} {unit:<8} n={n}"


def run_child_round(args, workloads, tracing, workdir) -> int:
    """One round in this fresh process; prints its tally (and spans) as JSON."""
    wl = workloads.build(args.workload, args.seed, workdir)
    tally = workloads.Tally()
    tracer = tracing.Tracer() if args.trace else workloads.Null()
    try:
        with tracer:
            wl.run_in_process(args.child_round, tally, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    child = {"tally": dataclasses.asdict(tally), "spans": [], "counts": {}}
    if args.trace:
        child["spans"], child["counts"] = tracer.spans, dict(tracer.counts)
    print(json.dumps(child))
    return 0


def run_one(args) -> int:
    heap = args.workload not in COLD_START and steady_heap()
    workloads, tracing = import_program()
    workdir = OUT / f"work-{os.getpid()}"
    if args.setup_only:
        workloads.build(args.workload, args.seed, workdir)
        return 0
    if args.child_round is not None:
        return run_child_round(args, workloads, tracing, workdir)

    load_before, probe_before, steal_before = os.getloadavg(), cpu_probe(), steal_s()
    setup = None if args.trace else setup_times(args)
    wl = workloads.build(args.workload, args.seed, workdir)
    tally = workloads.Tally()
    report: list[str] = [f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}"]
    try:
        if args.trace:
            untraced, tracer = workloads.Tally(), tracing.Tracer()
            peak_rss_mb = workloads.measure(wl, args.seconds, [(untraced, workloads.Null()), (tally, tracer)])
            metrics = tracing.layer_metrics(tracer.spans, tracer.counts, sum(tally.round_s))
            base = statistics.median(untraced.round_s)
            overhead = statistics.median(t - u for u, t in zip(untraced.round_s, tally.round_s))
            metrics["trace.overhead_s"] = overhead
            metrics["trace.overhead_share"] = overhead / base
            OUT.mkdir(exist_ok=True)
            tracer.write_jsonl(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
            shares = sorted(((metrics[f"{L}.self_share"], L) for L in tracing.LAYERS), reverse=True)
            report.append("self-time share of traced wall time (the most a faster layer can save):")
            report += [f"  {L:<10} {share:7.2%}" for share, L in shares]
            report.append(f"  {'uncovered':<10} {metrics['trace.uncovered_share']:7.2%}")
            report.append(f"trace overhead per round: {overhead:.4f} s ({overhead / base:+.2%}) "
                          f"over untraced median {base:.4f} s")
            report += [f"{k:<40} {v:>14.6g} {unit_of(k)}" for k, v in metrics.items()]
            checked = (untraced, tally)
        else:
            peak_rss_mb = workloads.measure(wl, args.seconds, [(tally, workloads.Null())])
            metrics = {
                "rate_per_s": tally.rate_items / tally.rate_s,
                "op_p50_ms": block_median(tally.op_s) * 1e3,
                "op_p90_ms": quantile(tally.op_s, 0.9) * 1e3,
                "round_s": statistics.median(tally.round_s),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb,
            }
            rate_label, op_label, round_label = wl.labels
            rate_unit, op_unit, round_unit = wl.units
            n_ops = f"{len(tally.op_s)} {op_unit}"
            report.append(line(rate_label, metrics["rate_per_s"], "1/s", f"{tally.rate_items} {rate_unit}"))
            if len(tally.op_s) > 1:
                report += [line(f"{op_label}_p50_ms", metrics["op_p50_ms"], "ms", f"{n_ops}, median per block of 32"),
                           line(f"{op_label}_p90_ms", metrics["op_p90_ms"], "ms", n_ops)]
            else:
                report.append(line(f"{op_label}_ms", metrics["op_p50_ms"], "ms",
                                   f"{n_ops}: one sample, not a percentile; op_p50_ms and op_p90_ms both hold it"))
            report += [
                line(round_label, metrics["round_s"], "s", f"{len(tally.round_s)} {round_unit}"),
                line("setup_s", metrics["setup_s"], "s", f"{len(setup)} set-ups"),
                line("peak_rss_mb", metrics["peak_rss_mb"], "MB", "1 reading"),
            ]
            checked = (tally,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in checked)
    failed = sum(t.failed for t in checked)
    digest = tally.digest
    report.append(line("failed_ratio", failed / attempted, "ratio",
                       f"{failed}/{attempted} operations"))
    report.append(f"attempted {attempted} failed {failed}")
    report.append(f"digest sha256:{digest}")
    env = environment()
    env["steady_heap"] = heap
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    env["gemm_per_s_before"] = probe_before
    env["gemm_per_s_after"] = cpu_probe()
    env["steal_s"] = steal_s() - steal_before
    report.append("env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({**result, "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "digest": digest, "env": env, "op_s": tally.op_s, "round_s": tally.round_s,
                   "setup_s": setup}, f, indent=1)
    print("\n".join(report))
    print(json.dumps(result))
    return 0


END_TO_END_UNITS = {"rate_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "round_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    """Unit of a reported metric, from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if "ratio" in name or "share" in name:
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout.rstrip("\n").rsplit("\n", 1)[0] if proc.stdout else "", flush=True)
        print(flush=True)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child-round", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
