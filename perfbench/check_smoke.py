"""Smoke test of the benchmark itself.

    python3 perfbench/check_smoke.py

Checks that
- a one-second run of every workload, untraced and traced, exits 0 and ends
  with the result line carrying every metric BENCHMARK.json names for that
  mode, each with its unit;
- in a traced run the self times plus the untraced remainder add up to the
  traced op time;
- the loss-reference check passes on a fresh set-up and fails when a weight
  is perturbed after set-up;
- without the package next to it the command fails without a result line.

The file is not named test_*.py so the package's test suite does not run
the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "results", "smoke")


def run_bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_runs(spec):
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            proc = run_bench(ROOT, w, trace)
            assert proc.returncode == 0, f"{w} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == expected[trace], f"{w} trace={trace}: metrics {sorted(got)}"
            for k, m in result["metrics"].items():
                assert math.isfinite(m["value"]), f"{w}: {k} = {m['value']}"
            if trace:
                check_balance(w)
            print(f"ok   {w} trace={trace}: {result['attempted']} ops")


def check_balance(workload):
    with open(os.path.join(HERE, "results", f"{workload}-seed3-trace1.json")) as fh:
        summary = json.load(fh)["span_summary"]
    total = sum(summary["self_s"].values()) + summary["untraced_s"]
    assert math.isclose(total, summary["op_s"], rel_tol=1e-9), (total, summary["op_s"])
    assert summary["untraced_s"] >= -1e-9, summary["untraced_s"]


def check_loss_reference():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import reference
    from workloads import WORKLOADS

    for name in reference.TRAINING:
        cls = WORKLOADS[name]
        problem = reference.check(cls(reference.REFERENCE_SEED))
        assert problem is None, f"{name}: {problem}"
        w = cls(reference.REFERENCE_SEED)
        first = next(iter(w.net.params().values()))
        first.flat[first.size // 2] += 0.05
        problem = reference.check(w)
        assert problem is not None, f"{name}: perturbed weight passed the loss reference"
        print(f"ok   {name}: perturbed weight caught ({problem})")


def check_bare_directory():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for f in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, f)):
            shutil.copy(os.path.join(HERE, f), os.path.join(bare, "perfbench"))
    try:
        proc = run_bench(bare, "detect", 0)
        assert proc.returncode != 0, "bare directory run exited 0"
        assert not proc.stdout.strip(), f"bare directory run printed {proc.stdout!r}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   bare directory: exit", proc.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_runs(spec)
    check_loss_reference()
    check_bare_directory()
    print("smoke test passed")


if __name__ == "__main__":
    main()
