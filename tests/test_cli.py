"""Exit codes of the command line: 0 success, 2 bad usage or config, 3
numerical failure, never an uncaught exception."""

import csv
import json
import shutil

import numpy as np
import pytest

from oriconv.cli import _build_specs, _load_training_data, cli
from oriconv.networks import DEFAULT_BACKBONE
from oriconv.synthdata import load_dataset


def run(capfd, *argv):
    code = cli([str(a) for a in argv])
    err = capfd.readouterr().err
    assert "Traceback" not in err
    return code, err


def envelope_area(recall, precision):
    """All-point interpolated AP, summed in rank order as `metrics` sums it."""
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap, prev_r = 0.0, 0.0
    for r, p in zip(recall, env):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return path


@pytest.fixture(scope="module")
def detection_run(tmp_path_factory):
    """A scene dataset and a 2-step detection run trained on it."""
    root = tmp_path_factory.mktemp("detection")
    data, run_dir = root / "data", root / "run"
    assert cli(["gen-data", "--out", str(data), "--count", "4", "--seed", "0"]) == 0
    cfg = write_json(root / "cfg.json", {"train": {"task": "detection", "batch_size": 2}})
    argv = ["train", "--config", cfg, "--out", run_dir, "--data", data, "--steps", "2"]
    assert cli([str(a) for a in argv]) == 0
    return data, run_dir


@pytest.fixture(scope="module")
def orientation_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("orientation")
    cfg = write_json(root / "cfg.json", {
        "train": {"task": "orientation", "batch_size": 2}, "data": {"count": 4},
    })
    assert cli(["train", "--config", str(cfg), "--out", str(root / "run"), "--steps", "1"]) == 0
    return root / "run"


def test_eval_writes_pr_curves_that_integrate_to_ap(detection_run, tmp_path, capfd):
    # with no score threshold every image has detections next to objects of
    # their class, the case the PR rows must take from the AP's own match
    data, run_dir = detection_run
    code, _ = run(capfd, "eval", "--run", run_dir, "--data", data, "--out", tmp_path,
                  "--score-threshold", "0.0")
    assert code == 0
    report = json.loads((tmp_path / "eval.json").read_text())
    gt_classes = {o.class_id for s in load_dataset(str(data)) for o in s.objects}
    assert {int(c) for c in report["per_class_ap"]} == gt_classes
    for c in gt_classes:
        with open(tmp_path / f"pr_class{c}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        recall = np.array([float(r["recall"]) for r in rows])
        precision = np.array([float(r["precision"]) for r in rows])
        assert envelope_area(recall, precision) == report["per_class_ap"][str(c)]


CONFIG_CASES = {
    "invalid_json": "{not json",
    "not_an_object": "[1, 2]",
    "unknown_train_key": json.dumps({"train": {"learning_rat": 0.1}}),
    "unknown_network_key": json.dumps({"network": {"n_rotation": 4}}),
    "empty_backbone": json.dumps({"network": {"task": "orientation", "backbone": []}}),
    "zero_rotations": json.dumps({"train": {"n_rotations": 0}}),
    "unknown_data_key": json.dumps({"train": {"task": "detection"}, "data": {"bogus": 1}}),
    "string_rotations": json.dumps({"train": {"n_rotations": "8"}}),
    "string_data_count": json.dumps({"train": {"task": "detection"}, "data": {"count": "abc"}}),
    "numeric_data_kind": json.dumps({"train": {"task": "detection"}, "data": {"kind": 5}}),
    "string_stage_size": json.dumps({"network": {"backbone": [
        {**DEFAULT_BACKBONE[0], "size": "5"}, *DEFAULT_BACKBONE[1:]]}}),
    "zero_stage_filters": json.dumps({"network": {"backbone": [
        {**DEFAULT_BACKBONE[0], "filters": 0}, *DEFAULT_BACKBONE[1:]]}}),
    "negative_stage_size": json.dumps({"network": {"backbone": [
        {**DEFAULT_BACKBONE[0], "size": -1}, *DEFAULT_BACKBONE[1:]]}}),
    "even_stage_size": json.dumps({"network": {"backbone": [
        {**DEFAULT_BACKBONE[0], "size": 4}, *DEFAULT_BACKBONE[1:]]}}),
    "zero_stage_pool": json.dumps({"network": {"backbone": [
        {**DEFAULT_BACKBONE[0], "pool": 0}, *DEFAULT_BACKBONE[1:]]}}),
    "unknown_stage_key": json.dumps({"network": {"backbone": [
        {**DEFAULT_BACKBONE[0], "bogus": 1}, *DEFAULT_BACKBONE[1:]]}}),
    "string_anchor_ratio": json.dumps({"train": {"task": "detection"},
                                       "network": {"anchor_ratios": ["1"]}}),
    "string_anchor_scale": json.dumps({"train": {"task": "detection"},
                                       "network": {"anchor_scales": [["12", 18.0], [24.0, 32.0]]}}),
    "flat_anchor_scales": json.dumps({"train": {"task": "detection"},
                                      "network": {"anchor_scales": [12.0, 24.0]}}),
    "zero_anchor_ratio": json.dumps({"train": {"task": "detection"},
                                     "network": {"anchor_ratios": [0.0, 1.0]}}),
    "empty_anchor_ratios": json.dumps({"train": {"task": "detection"},
                                       "network": {"anchor_ratios": []}}),
    "two_lambdas": json.dumps({"train": {"task": "detection", "lambdas": [1.0, 1.0]}}),
    "two_phase_fractions": json.dumps({"train": {"task": "detection",
                                                 "phase_fractions": [0.5, 0.5]}}),
    "zero_classes": json.dumps({"train": {"task": "detection"}, "network": {"n_classes": 0}}),
    "zero_merge_channels": json.dumps({"train": {"task": "detection"},
                                       "network": {"merge_channels": 0}}),
    "unknown_task": json.dumps({"train": {"task": "segmentation"}}),
    "mismatched_tasks": json.dumps({"train": {"task": "detection"},
                                    "network": {"task": "orientation"}}),
    "mismatched_rotations": json.dumps({"train": {"n_rotations": 4},
                                        "network": {"n_rotations": 8}}),
    "unknown_parametrization": json.dumps({"train": {"task": "detection"},
                                           "network": {"parametrization": "bogus"}}),
    "zero_batch_size": json.dumps({"train": {"task": "detection", "batch_size": 0}}),
    "zero_input_size": json.dumps({"train": {"task": "detection"}, "network": {"input_size": 0}}),
    "zero_input_channels": json.dumps({"train": {"task": "detection"},
                                       "network": {"input_channels": 0}}),
    "zero_head_window": json.dumps({"train": {"task": "orientation", "max_steps": 1},
                                    "network": {"head_window": 0}}),
    "negative_rpn_top_k": json.dumps({"train": {"task": "detection", "max_steps": 1},
                                      "network": {"rpn_top_k": -1}}),
    "negative_max_steps": json.dumps({"train": {"task": "detection", "max_steps": -3}}),
    # not a spec key: the attention merge always concatenates
    "attention_mode_product": json.dumps({"train": {"task": "detection"},
                                          "network": {"attention_mode": "product"}}),
    "attention_mode_concat": json.dumps({"train": {"task": "detection"},
                                         "network": {"attention_mode": "concat"}}),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_bad_train_config_exits_2(case, tmp_path, capfd):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(CONFIG_CASES[case])
    code, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")
    assert code == 2
    assert err.startswith("config error:")


def test_unknown_key_is_named(tmp_path, capfd):
    cfg = write_json(tmp_path / "cfg.json", {"network": {"n_rotation": 4}})
    _, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")
    assert "n_rotation" in err


def test_usage_errors_exit_2(tmp_path, capfd):
    assert run(capfd, "frobnicate")[0] == 2
    assert run(capfd, "train", "--config", tmp_path / "missing.json", "--out", tmp_path)[0] == 2
    assert run(capfd, "verify", "--rotations", "0", "--out", tmp_path / "v")[0] == 2
    assert run(capfd, "bench", "--sweep", "0", "--count", "1", "--out", tmp_path / "b")[0] == 2


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_verify_report(tmp_path, capfd):
    code, _ = run(capfd, "verify", "--sweep", "1,8", "--image-size", "32", "--out", tmp_path)
    assert code == 0
    exact = read_csv(tmp_path / "exact90.csv")
    assert exact and all(r["exact"] == "True" and float(r["max_abs_discrepancy"]) == 0.0
                         for r in exact)
    cov = read_csv(tmp_path / "covariance.csv")
    assert [float(r["angle_deg"]) for r in cov] == [0.0, 90.0, 180.0, 270.0]
    assert all(float(r["angular_error_deg"]) == 0.0 for r in cov)
    # a single filter orientation pins every field vector to angle 0, so the
    # n=1 control is off by exactly the probe angle
    sweep = {int(r["n_rotations"]): float(r["angular_error_45deg"])
             for r in read_csv(tmp_path / "sweep.csv")}
    assert set(sweep) == {1, 8}
    assert sweep[1] == 45.0


@pytest.mark.parametrize("config_text", [None, "{not json"])
def test_run_dir_without_valid_config_exits_2(config_text, detection_run, tmp_path, capfd):
    data, run_dir = detection_run
    broken = tmp_path / "run"
    broken.mkdir()
    shutil.copy(run_dir / "checkpoint.ckpt", broken / "checkpoint.ckpt")
    if config_text is not None:
        (broken / "config.json").write_text(config_text)
    image = sorted((data / "images").iterdir())[0]
    assert run(capfd, "eval", "--run", broken, "--data", data, "--out", tmp_path / "e")[0] == 2
    code, _ = run(capfd, "dump-features", "--run", broken, "--image", image, "--out", tmp_path / "f")
    assert code == 2


def test_run_dir_with_attention_mode_exits_2(detection_run, tmp_path, capfd):
    # run directories written while the spec had an attention_mode key
    data, run_dir = detection_run
    old = tmp_path / "run"
    shutil.copytree(run_dir, old)
    cfg = json.loads((old / "config.json").read_text())
    cfg["network"]["attention_mode"] = "concat"
    write_json(old / "config.json", cfg)
    code, err = run(capfd, "eval", "--run", old, "--data", data, "--out", tmp_path / "e")
    assert code == 2
    assert "attention_mode" in err


@pytest.mark.parametrize("flag", ["--score-threshold", "--nms-iou"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.1", "1.5", "abc"])
def test_eval_threshold_outside_unit_interval_exits_2(flag, value, detection_run, tmp_path, capfd):
    # a NaN NMS threshold would suppress nothing, since every IoU > NaN is False
    data, run_dir = detection_run
    code, err = run(capfd, "eval", "--run", run_dir, "--data", data, "--out", tmp_path,
                    f"{flag}={value}")
    assert code == 2
    assert f"argument {flag}: must be a number in [0, 1]" in err
    assert not (tmp_path / "eval.json").exists()


def test_eval_of_orientation_run_exits_2(orientation_run, detection_run, tmp_path, capfd):
    data, _ = detection_run
    code, err = run(capfd, "eval", "--run", orientation_run, "--data", data, "--out", tmp_path)
    assert code == 2
    assert "detection" in err


def test_scenes_of_another_size_than_the_network_exit_2(tmp_path, capfd):
    cfg = write_json(tmp_path / "cfg.json", {
        "train": {"task": "detection", "max_steps": 1},
        "data": {"count": 4, "image_size": 32},
    })
    code, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")
    assert code == 2
    assert err.startswith("error: detector input must be [B, 64, 64, 1]")


def test_generated_scenes_take_the_network_input_size(tmp_path, capfd):
    cfg = write_json(tmp_path / "cfg.json", {
        "train": {"task": "detection", "max_steps": 1, "batch_size": 2},
        "data": {"count": 2},
        "network": {"input_size": 32},
    })
    assert run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")[0] == 0


def test_multichannel_detection_trains(tmp_path, capfd):
    # the pyramid branch reads the image's channels, as the backbone does
    cfg = write_json(tmp_path / "cfg.json", {
        "train": {"task": "detection", "max_steps": 1, "batch_size": 2},
        "data": {"count": 2},
        "network": {"input_channels": 3},
    })
    assert run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")[0] == 0


def first_generated_image(train_seed, data):
    cfg = {"train": {"task": "detection", "seed": train_seed}, "network": {},
           "data": {"count": 1, **data}}
    tc, ns = _build_specs(cfg)
    return _load_training_data(cfg, tc, ns)[0].image


@pytest.mark.parametrize("data", [{}, {"min_objects": 1}], ids=["no_scene_key", "scene_key"])
def test_generated_scenes_follow_the_train_seed(data):
    a, b = (first_generated_image(seed, data) for seed in (1, 2))
    assert not np.array_equal(a, b)


def test_data_seed_wins_over_the_train_seed():
    a, b = (first_generated_image(seed, {"seed": 3}) for seed in (1, 2))
    assert np.array_equal(a, b)
    assert np.array_equal(a, first_generated_image(0, {"seed": 3}))


def test_diverging_training_exits_3(tmp_path, capfd):
    cfg = write_json(tmp_path / "cfg.json", {
        "train": {"task": "orientation", "batch_size": 2, "learning_rate": 1e30},
        "data": {"count": 8},
    })
    with np.errstate(all="ignore"):
        code, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run", "--steps", "4")
    assert code == 3
    assert err.startswith("numerical failure:")
