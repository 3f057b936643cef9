"""The benchmark pins the first training losses of `train_detect` and
`train_orient` at its reference seed (`perfbench/reference.py`). Replaying
them here makes a change to the losses fail the test suite as well as the
benchmark's smoke check."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["train_detect", "train_orient"])
def test_training_losses_match_reference(workload):
    reference = load("reference")
    workloads = load("workloads")
    assert workload in reference.TRAINING
    w = workloads.WORKLOADS[workload](reference.REFERENCE_SEED)
    assert reference.check(w) is None
