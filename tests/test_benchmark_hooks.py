"""The traced benchmark run wraps package functions by name; every name it
lists must exist, or only a traced run finds out (with an AttributeError)."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
HOOKS = [(m, a) for m, a, *_ in tracing.TARGETS] + [(m, a) for m, a, _ in tracing.COUNTED]


@pytest.mark.parametrize("module_name, attr", HOOKS, ids=[f"{m}:{a}" for m, a in HOOKS])
def test_traced_hook_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
