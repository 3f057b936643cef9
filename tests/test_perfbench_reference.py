"""The benchmark pins the first training losses of `train_detect` and
`train_orient` at its reference seed (`perfbench/reference.py`). Replaying
them here makes a change to the losses fail the test suite as well as the
benchmark's smoke check. The `detect` workload's own output check runs here
too, on its holdout seed, against a freshly built network."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from oriconv import networks

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


def test_detect_workload_repeats_fresh_network_detections():
    workloads = load("workloads")
    w = workloads.Detect(7919)

    def key(d):
        return (d.class_id, repr(d.score), d.hbox.as_array().tobytes(),
                d.obox.as_array().tobytes())

    results = [w.op(i) for i in range(2 * w.pool_images)]
    assert [w.check(r) for r in results] == [None] * len(results)
    fresh = networks.Detector(
        networks.NetworkSpec(n_rotations=workloads.N_ROTATIONS), rng=np.random.default_rng(0)
    )
    for index, dets in results:
        want = fresh.detect_image(w.images[index], score_threshold=workloads.SCORE_THRESHOLD,
                                  max_per_image=workloads.MAX_PER_IMAGE)
        assert [key(d) for d in dets] == [key(d) for d in want]
