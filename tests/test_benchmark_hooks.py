"""The benchmark calls the package by name: the traced run wraps functions
listed in `perfbench/tracing.py`, and the workloads in `perfbench/workloads.py`
call the package's API. A break in either must show here, not first as a
failed benchmark run."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


tracing = load_perfbench("tracing")
HOOKS = [(m, a) for m, a, *_ in tracing.TARGETS] + [(m, a) for m, a, _ in tracing.COUNTED]


@pytest.mark.parametrize("module_name, attr", HOOKS, ids=[f"{m}:{a}" for m, a in HOOKS])
def test_traced_hook_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_workloads_build_and_run_a_round(tmp_path):
    workloads = load_perfbench("workloads")
    built = {name: workloads.build(name, 11, tmp_path) for name in workloads.WORKLOADS}
    # pipeline-fast runs its rounds in child interpreters; building it loads the script it mirrors
    for name in ("distill-train", "sample-eval"):
        tally = workloads.Tally()
        built[name].round(0, tally, workloads.Null())
        assert tally.attempted > 0 and tally.failed == 0, name
        assert tally.digest, name



# the span attrs `run.py --trace 1` reads off the package's arguments and return values
TRACED_ATTRS = {
    "distill-train": {"cascade.run": {"steps", "transitions"}, "distill.select": {"selected", "tape"}},
    "sample-eval": {"cascade.run": {"steps", "transitions"}},
}


@pytest.mark.parametrize("name", sorted(TRACED_ATTRS))
def test_traced_round_records_span_attrs(tmp_path, name):
    workloads = load_perfbench("workloads")
    workload = workloads.build(name, 11, tmp_path)
    tally, tracer = workloads.Tally(), tracing.Tracer()
    with tracer:
        workload.round(0, tally, tracer)
    assert tally.attempted > 0 and tally.failed == 0
    for span, keys in TRACED_ATTRS[name].items():
        attrs = [s[5] for s in tracer.spans if s[0] == span]
        assert attrs, span
        assert all(keys <= set(a) for a in attrs), span
