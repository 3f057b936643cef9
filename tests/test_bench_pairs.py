"""`tools/bench_pairs.py`'s reading and aggregation of benchmark runs, on
canned result lines: no benchmark runs here."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "op_min_ms", "unit": "ms", "better": "lower", "bound": 0.24},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def line(op_min_ms, rate, correct=True):
    return json.dumps({"correct": correct, "attempted": 5, "failed": 0 if correct else 1,
                       "metrics": {"op_min_ms": {"value": op_min_ms, "unit": "ms"},
                                   "rate": {"value": rate, "unit": "1/s"}}})


def stdout(*lines):
    return "\n".join(["stamp: workload=x", "op_min_ms = 1 ms", *lines]) + "\n"


def test_parse_result_reads_the_last_line():
    assert bench_pairs.parse_result(stdout(line(2.0, 5.0)))["metrics"]["op_min_ms"]["value"] == 2.0
    assert bench_pairs.parse_result("") is None
    assert bench_pairs.parse_result(stdout("Traceback (most recent call last):")) is None
    assert bench_pairs.parse_result(stdout("[1, 2]")) is None


def runs_of(workload, pairs):
    """Runs from (parent stdout, change stdout) per pair."""
    return [
        {"workload": workload, "pair": i, "side": side,
         "result": bench_pairs.parse_result(text)}
        for i, texts in enumerate(pairs)
        for side, text in zip(("parent", "change"), texts)
    ]


def test_aggregate_medians_quartiles_and_wins():
    pairs = [
        (stdout(line(20.0, 1.0)), stdout(line(19.0, 2.0))),
        (stdout(line(21.0, 1.0)), stdout(line(19.5, 0.5))),
        (stdout(line(22.0, 3.0)), stdout(line(22.5, 3.0))),
        (stdout(line(23.0, 1.0)), stdout(line(20.0, 4.0))),
        (stdout(line(24.0, 1.0)), stdout(line(21.0, 1.5))),
    ]
    runs = runs_of("train_detect", pairs) + runs_of("detect", pairs[:1])
    summary = bench_pairs.aggregate(runs, METRICS)
    assert list(summary) == ["train_detect", "detect"]
    op = summary["train_detect"]["op_min_ms"]
    assert op["parent"] == {"median": 22.0, "q1": 21.0, "q3": 23.0,
                            "values": [20.0, 21.0, 22.0, 23.0, 24.0]}
    assert op["change"]["median"] == 20.0
    assert (op["change"]["q1"], op["change"]["q3"]) == (19.5, 21.0)
    assert (op["change_wins"], op["pairs"]) == (4, 5)
    # "higher" is better: equal values are no win
    rate = summary["train_detect"]["rate"]
    assert (rate["change_wins"], rate["pairs"]) == (3, 5)
    one = summary["detect"]["op_min_ms"]
    assert one["parent"]["median"] == one["parent"]["q1"] == one["parent"]["q3"] == 20.0
    assert summary["train_detect"]["bad_runs"] == {"parent": 0, "change": 0}


def test_aggregate_counts_runs_without_a_correct_result():
    pairs = [
        (stdout(line(20.0, 1.0)), "Traceback (most recent call last):\n"),
        (stdout(line(21.0, 1.0, correct=False)), stdout(line(19.0, 2.0))),
    ]
    summary = bench_pairs.aggregate(runs_of("detect", pairs), METRICS)["detect"]
    assert summary["bad_runs"] == {"parent": 1, "change": 1}
    op = summary["op_min_ms"]
    # a pair counts only with a result on both sides
    assert op["parent"]["values"] == [20.0, 21.0]
    assert op["change"]["values"] == [19.0]
    assert (op["change_wins"], op["pairs"]) == (1, 1)

