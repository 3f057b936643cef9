"""Loss reference for the training workloads.

The first STEPS step losses of each training workload at REFERENCE_SEED are
stored in reference_losses.json. `check` replays them from a fresh set-up
and compares within a relative tolerance of 1e-4 (about 800 float32 ulps):
wide enough for a BLAS kernel or thread count that sums in another order,
narrow enough to catch a gradient or weight update that went missing, such as
a stale cache of expanded filters.

Regenerate the file, only when a change is meant to alter the losses, with

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import math
import os

TRAINING = ("train_detect", "train_orient")
REFERENCE_SEED = 0
STEPS = 3
REL_TOL = 1e-4
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_losses.json")


def replay(workload):
    """Losses of the first STEPS steps of a freshly set-up workload (its
    warm-up step is the first)."""
    for i in range(len(workload.losses), STEPS):
        workload.op(i)
    return workload.losses[:STEPS]


def check(workload):
    """None if the replayed losses match the stored reference, else a
    description of the mismatch. `workload` must be set up at
    REFERENCE_SEED and not yet stepped past its warm-up."""
    with open(PATH) as fh:
        ref = json.load(fh)[workload.name]
    got = replay(workload)
    if len(ref) != STEPS:
        return f"reference holds {len(ref)} losses, expected {STEPS}"
    for step, (a, b) in enumerate(zip(got, ref)):
        if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0):
            return f"step {step} loss {a!r} differs from reference {b!r} by more than {REL_TOL:g} relative"
    return None


def main():
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(PATH)), "src"))
    from workloads import WORKLOADS

    out = {"seed": REFERENCE_SEED, "steps": STEPS, "rel_tol": REL_TOL}
    for name in TRAINING:
        out[name] = replay(WORKLOADS[name](REFERENCE_SEED))
    with open(PATH, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
