"""Alternating benchmark pairs of a parent commit and the working tree, for
the before/after numbers of a performance change.

    python3 tools/bench_pairs.py --parent <commit> --tag <tag> [--seed 1000]

For each workload of BENCHMARK.json it runs `perfbench/run.py` 10 times on
each side for BENCHMARK.json's `run_seconds`, alternating: pair i runs both
sides at seed --seed + i (pick fresh seeds for each measured change), the
parent first in even pairs and the working tree first in odd ones, so drift
in the host's load falls on both sides alike. Each side runs from a temporary copy: the parent's `src/` and
`perfbench/` from `git archive`, the working tree's from its files. Nothing
under the repository's `perfbench/` is written and `.git` is only read.

It writes BENCH_<tag>.json at the repository root: every run's result
object (the last line `perfbench/run.py` prints) with its seed, side and
exit code, and per workload and end-to-end metric of BENCHMARK.json both
sides' values, medians and quartiles, and the pairs in which the working
tree was better.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
COPIED = ("src", "perfbench")
PAIRS = 10


def parse_result(stdout: str):
    """The result object of a `perfbench/run.py` run: its last stdout line
    as JSON, or None when that line is missing or not a JSON object."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def _spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) < 2:
        q1 = q3 = values[0] if values else None
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": statistics.median(values) if values else None,
        "q1": q1,
        "q3": q3,
        "values": values,
    }


def aggregate(runs: list, metrics: list) -> dict:
    """Per workload: each end-to-end metric's values on both sides, their
    medians and quartiles, and the number of complete pairs (both results
    present) in which the change was better, plus per side the runs that
    gave no result or were not correct.

    runs: dicts with "workload", "pair", "side" ("parent" or "change") and
    "result" (a `parse_result` object or None). metrics: BENCHMARK.json's
    "end_to_end" entries, each with "name" and "better" ("lower" or
    "higher")."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        summary = {
            "bad_runs": {
                side: sum(
                    1 for r in mine
                    if r["side"] == side and not (r["result"] or {}).get("correct")
                )
                for side in SIDES
            }
        }
        for spec in metrics:
            name, lower = spec["name"], spec["better"] == "lower"
            values = {side: [] for side in SIDES}
            wins = pairs = 0
            for pair in sorted(by_pair):
                got = {
                    side: ((by_pair[pair].get(side) or {}).get("metrics") or {})
                    .get(name, {}).get("value")
                    for side in SIDES
                }
                for side in SIDES:
                    if got[side] is not None:
                        values[side].append(got[side])
                if None not in got.values():
                    pairs += 1
                    parent, change = got["parent"], got["change"]
                    wins += change < parent if lower else change > parent
            summary[name] = {
                "better": spec["better"],
                **{side: _spread(values[side]) for side in SIDES},
                "change_wins": wins,
                "pairs": pairs,
            }
        out[workload] = summary
    return out


def _export_commit(commit: str, dest: str) -> None:
    tar = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", commit, *COPIED],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def _export_working_tree(dest: str) -> None:
    skip = shutil.ignore_patterns("results", "__pycache__", "*.pyc")
    for part in COPIED:
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part), ignore=skip)


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tree)
    return {"exit_code": proc.returncode, "result": parse_result(proc.stdout),
            "stderr_tail": proc.stderr.strip().splitlines()[-5:]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="commit to compare the working tree with")
    p.add_argument("--tag", required=True, help="output name: BENCH_<tag>.json")
    p.add_argument("--seed", type=int, default=1000, help="seed of pair 0")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parent = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", args.parent + "^{commit}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        _export_commit(parent, trees["parent"])
        _export_working_tree(trees["change"])
        for workload in workloads:
            for pair in range(PAIRS):
                seed = args.seed + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = _run(trees[side], workload, seed, seconds)
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                                 "first": side == order[0], **run})
                    value = ((run["result"] or {}).get("metrics") or {}).get("op_min_ms", {})
                    print(f"{workload} pair {pair} {side}: exit {run['exit_code']}, "
                          f"op_min_ms {value.get('value')}", flush=True)

    report = {
        "tag": args.tag,
        "parent": parent,
        "change": f"working tree on {head}",
        "pairs": PAIRS,
        "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "summary": aggregate(runs, bench["end_to_end"]),
        "runs": runs,
    }
    out = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for workload, summary in report["summary"].items():
        for name, m in summary.items():
            if name == "bad_runs":
                continue
            print(f"{workload} {name}: parent {m['parent']['median']} change "
                  f"{m['change']['median']} (median), change better in "
                  f"{m['change_wins']}/{m['pairs']} pairs")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
