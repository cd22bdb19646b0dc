"""Shared heavy fixtures: the toy pipeline trained once per session.

The acceptance suite and the training smoke tests reuse these artifacts;
everything derives from one root seed so reruns are identical.
"""
import os

# one core is the documented target: pin BLAS before numpy loads; a value
# set in the environment wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from crossres import config as cfgmod, data, diffusion, distill  # noqa: E402
from crossres.grid import SeededRng  # noqa: E402

ROOT_SEED = 0


@pytest.fixture(scope="session")
def toy_config():
    return cfgmod.toy_default()


@pytest.fixture(scope="session")
def toy_dataset(toy_config):
    return data.generate_samples(toy_config.data, SeededRng(ROOT_SEED).derive("dataset"))


@pytest.fixture(scope="session")
def toy_teacher(toy_config, toy_dataset):
    model, _ = diffusion.train_teacher(
        toy_dataset, toy_config.teacher, SeededRng(ROOT_SEED).derive("teacher")
    )
    return model


@pytest.fixture(scope="session")
def toy_student(toy_config, toy_teacher):
    """Full distillation run; returns (state, step records)."""
    state, records = distill.train(
        toy_teacher, toy_config.distill, SeededRng(ROOT_SEED).derive("distill")
    )
    return state, records


@pytest.fixture(scope="session")
def toy_rm_disabled(toy_config, toy_teacher):
    """Ablation arm: single-resolution distillation at matched budgets."""
    cfg = distill.rm_disabled_config(toy_config.distill)
    state, _ = distill.train(toy_teacher, cfg, SeededRng(ROOT_SEED).derive("distill-rm"))
    return state
