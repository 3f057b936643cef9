"""Exit codes of the command line: 0 success, 2 bad usage or config, 3
numerical failure, never an uncaught exception."""

import csv
import json
import shutil

import numpy as np
import pytest

from oriconv.checkpoint import load_checkpoint, save_checkpoint
from oriconv.cli import _build_specs, _load_training_data, _restore_run, cli
from oriconv.errors import ConfigError
from oriconv.metrics import mean_average_precision
from oriconv.networks import DEFAULT_BACKBONE, NetworkSpec
from oriconv.synthdata import load_dataset
from oriconv.trainer import TrainConfig

from conftest import huge_checkpoint_header


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
    cfg = write_json(root / "cfg.json", {"network": {"task": "detection"},
                                         "train": {"batch_size": 2}})
    argv = ["train", "--config", cfg, "--out", run_dir, "--data", data, "--steps", "2"]
    assert cli([str(a) for a in argv]) == 0
    return data, run_dir


@pytest.fixture(scope="module")
def orientation_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("orientation")
    cfg = write_json(root / "cfg.json", {
        "network": {"task": "orientation"}, "train": {"batch_size": 2}, "data": {"count": 4},
    })
    assert cli(["train", "--config", str(cfg), "--out", str(root / "run"), "--steps", "1"]) == 0
    return root / "run"


def test_eval_writes_pr_curves_that_integrate_to_ap(detection_run, tmp_path, capfd):
    # with no score threshold every image has detections next to objects of
    # their class, the case the PR rows must take from the AP's own match
    data, run_dir = detection_run
    argv = ["eval", "--run", run_dir, "--data", data, "--out", tmp_path, "--score-threshold", "0.0"]
    assert cli([str(a) for a in argv]) == 0
    out = capfd.readouterr().out
    report = json.loads((tmp_path / "eval.json").read_text())
    scenes = load_dataset(str(data))
    gt_classes = {o.class_id for s in scenes for o in s.objects}
    assert {int(c) for c in report["per_class_ap"]} == gt_classes
    # the OBB mAP matches the same detections on their oriented boxes
    net = _restore_run(str(run_dir))
    per_dets = [net.detect_image(s.image, score_threshold=0.0) for s in scenes]
    per_gts = [s.ground_truth() for s in scenes]
    _, obb_map50 = mean_average_precision(per_dets, per_gts, sorted(gt_classes), oriented=True)
    assert report["obb_map50"] == obb_map50
    assert f"OBB mAP@0.5 = {obb_map50:.4f}" in out
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
    "numeric_train_section": json.dumps({"train": 5}),
    "list_data_section": json.dumps({"data": [1]}),
    "unknown_train_key": json.dumps({"train": {"learning_rat": 0.1}}),
    "unknown_network_key": json.dumps({"network": {"n_rotation": 4}}),
    "empty_backbone": json.dumps({"network": {"task": "orientation", "backbone": []}}),
    "zero_rotations": json.dumps({"network": {"n_rotations": 0}}),
    "unknown_data_key": json.dumps({"network": {"task": "detection"}, "data": {"bogus": 1}}),
    "string_rotations": json.dumps({"network": {"n_rotations": "8"}}),
    "string_data_count": json.dumps({"network": {"task": "detection"}, "data": {"count": "abc"}}),
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
    "string_anchor_ratio": json.dumps({"network": {"task": "detection",
                                                   "anchor_ratios": ["1"]}}),
    "string_anchor_scale": json.dumps({"network": {
        "task": "detection", "anchor_scales": [["12", 18.0], [24.0, 32.0]]}}),
    "flat_anchor_scales": json.dumps({"network": {"task": "detection",
                                                  "anchor_scales": [12.0, 24.0]}}),
    "zero_anchor_ratio": json.dumps({"network": {"task": "detection",
                                                 "anchor_ratios": [0.0, 1.0]}}),
    "empty_anchor_ratios": json.dumps({"network": {"task": "detection", "anchor_ratios": []}}),
    "two_lambdas": json.dumps({"network": {"task": "detection"},
                               "train": {"lambdas": [1.0, 1.0]}}),
    "two_phase_fractions": json.dumps({"network": {"task": "detection"},
                                       "train": {"phase_fractions": [0.5, 0.5]}}),
    # list elements that are not finite numbers
    "string_lambda": json.dumps({"train": {"lambdas": ["a", 1, 1, 1, 1]}}),
    "null_lambda": json.dumps({"train": {"lambdas": [1, 1, 1, 1, None]}}),
    "bool_lambda": json.dumps({"train": {"lambdas": [True, 1, 1, 1, 1]}}),
    "nan_lambda": json.dumps({"train": {"lambdas": [float("nan"), 1, 1, 1, 1]}}),
    "string_phase_fraction": json.dumps({"train": {"phase_fractions": ["a", 0.5, 0.5]}}),
    "negative_phase_fraction": json.dumps({"train": {"phase_fractions": [-0.5, 0.75, 0.75]}}),
    "zero_classes": json.dumps({"network": {"task": "detection", "n_classes": 0}}),
    "zero_merge_channels": json.dumps({"network": {"task": "detection", "merge_channels": 0}}),
    "unknown_task": json.dumps({"network": {"task": "segmentation"}}),
    "zero_batch_size": json.dumps({"network": {"task": "detection"}, "train": {"batch_size": 0}}),
    "zero_input_size": json.dumps({"network": {"task": "detection", "input_size": 0}}),
    "zero_input_channels": json.dumps({"network": {"task": "detection", "input_channels": 0}}),
    "zero_head_window": json.dumps({"network": {"task": "orientation", "head_window": 0},
                                    "train": {"max_steps": 1}}),
    # the default backbone pools a 64 px input to an 8x8 map
    "wide_head_window": json.dumps({"network": {"task": "orientation", "head_window": 16},
                                    "train": {"max_steps": 1}}),
    "negative_rpn_top_k": json.dumps({"network": {"task": "detection", "rpn_top_k": -1},
                                      "train": {"max_steps": 1}}),
    "negative_max_steps": json.dumps({"network": {"task": "detection"},
                                      "train": {"max_steps": -3}}),
    "negative_seed": json.dumps({"network": {"task": "detection"}, "train": {"seed": -1}}),
    # optimizer settings that would train to non-finite weights
    "negative_weight_decay": json.dumps({"train": {"weight_decay": -1e9}}),
    "infinite_weight_decay": json.dumps({"train": {"weight_decay": float("inf")}}),
    "nan_momentum": json.dumps({"train": {"momentum": float("nan")}}),
    "negative_momentum": json.dumps({"train": {"momentum": -0.1}}),
    "momentum_one": json.dumps({"train": {"momentum": 1.0}}),
    "infinite_learning_rate": json.dumps({"train": {"learning_rate": float("inf"),
                                                    "lr_second": float("inf"),
                                                    "lr_third": float("inf")}}),
    # rates that keep their order: only the finiteness check stops them
    "infinite_first_learning_rate": json.dumps({"train": {"learning_rate": float("inf")}}),
    "infinite_first_two_learning_rates": json.dumps({"train": {"learning_rate": float("inf"),
                                                               "lr_second": float("inf")}}),
    "nan_learning_rate": json.dumps({"train": {"learning_rate": float("nan")}}),
    "negative_infinite_last_learning_rate": json.dumps({"train": {"lr_third": float("-inf")}}),
    # not a spec key: the attention merge always concatenates
    "attention_mode_product": json.dumps({"network": {"task": "detection",
                                                      "attention_mode": "product"}}),
    "attention_mode_concat": json.dumps({"network": {"task": "detection",
                                                     "attention_mode": "concat"}}),
    # not a spec key: every RConv layer learns free filters
    "parametrization_free": json.dumps({"network": {"task": "detection",
                                                    "parametrization": "free"}}),
    "parametrization_steerable": json.dumps({"network": {"task": "detection",
                                                         "parametrization": "steerable"}}),
    # not train or data keys: the network spec alone sets the task, the
    # rotation count and the input shape, and the images follow it
    "train_task": json.dumps({"train": {"task": "detection"}}),
    "train_n_rotations": json.dumps({"train": {"n_rotations": 8}}),
    "data_kind": json.dumps({"network": {"task": "orientation"}, "data": {"kind": "scenes"}}),
    "data_patch_size": json.dumps({"network": {"task": "orientation"},
                                   "data": {"patch_size": 48}}),
    "data_image_size": json.dumps({"network": {"task": "orientation"},
                                   "data": {"image_size": 128}}),
    "data_channels": json.dumps({"data": {"channels": 3}}),
    "unknown_section": json.dumps({"trian": {"max_steps": 1}}),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_bad_train_config_exits_2(case, tmp_path, capfd):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(CONFIG_CASES[case])
    code, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")
    assert code == 2
    assert err.startswith("config error:")


@pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize("rate", ["learning_rate", "lr_second", "lr_third"])
def test_non_finite_learning_rate_rejected(rate, value):
    # each rate alone fails the finiteness check, before the order check
    with pytest.raises(ConfigError, match="learning rates must be finite and positive"):
        TrainConfig(**{rate: value})


def unknown_network_keys(text):
    """The keys of a config's network section that are not spec fields."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError:
        return []
    network = cfg.get("network", {}) if isinstance(cfg, dict) else {}
    return sorted(set(network) - set(NetworkSpec.__dataclass_fields__))


@pytest.mark.parametrize(
    "case", sorted(c for c, text in CONFIG_CASES.items() if unknown_network_keys(text))
)
def test_unknown_network_key_is_named(case, tmp_path, capfd):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(CONFIG_CASES[case])
    _, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")
    keys = ", ".join(unknown_network_keys(CONFIG_CASES[case]))
    assert err == f"config error: unknown key(s) in 'network' config: {keys}\n"


def test_unknown_key_is_named(tmp_path, capfd):
    cfg = write_json(tmp_path / "cfg.json", {"network": {"n_rotation": 4}})
    _, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")
    assert "n_rotation" in err


@pytest.mark.parametrize("case", ["train_task", "train_n_rotations", "data_kind",
                                  "data_patch_size", "data_image_size", "data_channels"])
def test_removed_key_is_named(case, tmp_path, capfd):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(CONFIG_CASES[case])
    _, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")
    section, key = case.split("_", 1)
    assert err == f"config error: unknown key(s) in {section!r} config: {key}\n"


def test_unknown_section_is_named(tmp_path, capfd):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(CONFIG_CASES["unknown_section"])
    _, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")
    assert err == "config error: unknown config section(s): trian\n"


def test_non_utf8_config_exits_2(tmp_path, capfd):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{}")
    code, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")
    assert code == 2
    assert err.startswith("config error: config is not UTF-8 text:")
    assert not (tmp_path / "run").exists()


DETECTION_ONLY = {
    "hflip_augment": {"train": {"hflip_augment": True}},
    "min_objects": {"data": {"min_objects": 3}},
    "max_objects": {"data": {"max_objects": 3}},
    "classes": {"data": {"classes": ["arrow"]}},
    "min_size": {"data": {"min_size": 10.0}},
    "max_size": {"data": {"max_size": 20.0}},
    "overlap_iou": {"data": {"overlap_iou": 0.1}},
}


@pytest.mark.parametrize("key", sorted(DETECTION_ONLY))
def test_orientation_run_refuses_detection_only_keys(key, tmp_path, capfd):
    # generated orientation patches read none of these, so a silent default
    # would train something else than the config says
    cfg = write_json(tmp_path / "cfg.json", {
        "network": {"task": "orientation"}, "train": {"max_steps": 1},
        **DETECTION_ONLY[key]})
    code, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")
    assert code == 2
    assert err.startswith("config error:") and key in err and "detection network" in err
    assert not (tmp_path / "run").exists()


def test_usage_errors_exit_2(tmp_path, capfd):
    assert run(capfd, "frobnicate")[0] == 2
    assert run(capfd, "train", "--config", tmp_path / "missing.json", "--out", tmp_path)[0] == 2
    assert run(capfd, "verify", "--rotations", "0", "--out", tmp_path / "v")[0] == 2
    assert run(capfd, "gen-data", "--count", "-3", "--out", tmp_path / "g")[0] == 2
    # np.random.default_rng takes only seeds >= 0; gen-data keys its Philox
    # streams through a mask and takes any whole number
    cfg = write_json(tmp_path / "cfg.json", {"train": {"max_steps": 1}, "data": {"count": 2}})
    assert run(capfd, "train", "--config", cfg, "--seed", "-1", "--out", tmp_path / "t")[0] == 2
    assert run(capfd, "verify", "--seed", "-1", "--out", tmp_path / "v")[0] == 2
    assert run(capfd, "verify", "--seed", "x", "--out", tmp_path / "v")[0] == 2
    # list flags are parsed before any work starts
    for argv in (["verify", "--angles", "x"], ["verify", "--angles", "nan"],
                 ["verify", "--angles", "0,inf"], ["verify", "--sweep", "4,x"],
                 ["verify", "--sweep", "0"], ["verify", "--sweep", ""]):
        code, err = run(capfd, *argv, "--out", tmp_path / "v")
        assert code == 2 and "must be a comma list" in err
    for out in ("g", "t", "v"):
        assert not (tmp_path / out).exists()


SCENE_RANGES = {
    "reversed_angles": {"angle_range": [10.0, 5.0]},
    "nan_angle": {"angle_range": [float("nan"), 5.0]},
    "reversed_sizes": {"min_size": 30.0, "max_size": 12.0},
    "infinite_size": {"max_size": float("inf")},
    "reversed_foreground": {"foreground": [0.9, 0.7]},
    "reversed_background": {"background": [0.45, 0.15]},
    "three_numbers": {"background": [0.1, 0.2, 0.3]},
    "empty_classes": {"classes": []},
    "nan_overlap": {"overlap_iou": float("nan")},
    "negative_overlap": {"overlap_iou": -1.0},
    "overlap_above_one": {"overlap_iou": 1.5},
    "bright_background": {"background": [0.5, 3.0]},
    "dark_foreground": {"foreground": [-0.2, 0.5]},
    "zero_min_size": {"min_size": 0.0},
    "negative_min_size": {"min_size": -5.0},
    "sub_pixel_min_size": {"min_size": 0.1, "max_size": 0.2},
}
# what the error names, where it is not the word "finite": the key, for the
# values that pass the finiteness and order checks
SCENE_RANGE_ERRORS = {
    "empty_classes": "at least one class",
    "nan_overlap": "overlap_iou",
    "negative_overlap": "overlap_iou",
    "overlap_above_one": "overlap_iou",
    "bright_background": "background must lie in [0, 1]",
    "dark_foreground": "foreground must lie in [0, 1]",
    "zero_min_size": "0.25 <= min_size",
    "negative_min_size": "0.25 <= min_size",
    "sub_pixel_min_size": "0.25 <= min_size",
}
# gen-data sets only the angle range
SCENE_RANGE_RUNS = [("train", case) for case in sorted(SCENE_RANGES)] + [
    ("gen-data", "nan_angle"), ("gen-data", "reversed_angles"),
]


@pytest.mark.parametrize("command, case", SCENE_RANGE_RUNS)
def test_bad_scene_range_exits_2(command, case, tmp_path, capfd):
    data = SCENE_RANGES[case]
    if command == "gen-data":
        lo, hi = data["angle_range"]
        argv = ["gen-data", "--angle-min", lo, "--angle-max", hi]
    else:
        cfg = write_json(tmp_path / "cfg.json", {"train": {"max_steps": 1},
                                                 "data": {"count": 2, **data}})
        argv = ["train", "--config", cfg]
    code, err = run(capfd, *argv, "--out", tmp_path / "out")
    assert code == 2
    assert err.startswith("error: ") and SCENE_RANGE_ERRORS.get(case, "finite") in err
    assert not (tmp_path / "out").exists()


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


def written_files(root):
    """{relative path: bytes} of every file under `root`."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_eval_and_verify_write_the_same_bytes_twice(detection_run, tmp_path, capfd):
    # the reports hold no clock reading, so a second run rewrites every byte
    data, run_dir = detection_run
    for command in (
        ["eval", "--run", run_dir, "--data", data, "--score-threshold", "0.0"],
        ["verify", "--sweep", "1,8", "--image-size", "32"],
    ):
        first, second = tmp_path / f"{command[0]}1", tmp_path / f"{command[0]}2"
        assert run(capfd, *command, "--out", first)[0] == 0
        assert run(capfd, *command, "--out", second)[0] == 0
        files = written_files(first)
        assert files and files == written_files(second)


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


@pytest.mark.parametrize("section,key,value", [
    ("network", "attention_mode", "concat"),  # while the spec had that switch
    ("train", "task", "detection"),  # while the train section repeated the task
])
def test_run_dir_with_a_removed_key_exits_2(section, key, value, detection_run, tmp_path, capfd):
    data, run_dir = detection_run
    old = tmp_path / "run"
    shutil.copytree(run_dir, old)
    cfg = json.loads((old / "config.json").read_text())
    cfg[section][key] = value
    write_json(old / "config.json", cfg)
    code, err = run(capfd, "eval", "--run", old, "--data", data, "--out", tmp_path / "e")
    assert code == 2
    assert err == f"config error: unknown key(s) in {section!r} config: {key}\n"


def test_run_dir_whose_checkpoint_does_not_fit_the_network_exits_2(detection_run, tmp_path, capfd):
    # a use_lipm=False run written while that switch still built the pyramid
    # stages and a 32-plane attention conv3: the default spec's tensors
    # under a use_lipm=False config
    data, run_dir = detection_run
    old = tmp_path / "run"
    shutil.copytree(run_dir, old)
    cfg = json.loads((old / "config.json").read_text())
    cfg["network"]["use_lipm"] = False
    write_json(old / "config.json", cfg)
    tensors, step, _ = load_checkpoint(str(old / "checkpoint.ckpt"))
    save_checkpoint(str(old / "checkpoint.ckpt"), tensors, step, cfg)
    image = sorted((data / "images").iterdir())[0]
    for argv in (["eval", "--data", data], ["dump-features", "--image", image]):
        code, err = run(capfd, *argv, "--run", old, "--out", tmp_path / "out")
        assert code == 2
        assert err.startswith("config error: checkpoint does not fit the network")
        assert "param/lipm0/0.weights" in err
    # without those tensors the attention conv3 is still misshaped
    for name in [k for k in tensors if "lipm" in k]:
        del tensors[name]
    save_checkpoint(str(old / "checkpoint.ckpt"), tensors, step, cfg)
    code, err = run(capfd, "eval", "--run", old, "--data", data, "--out", tmp_path / "out")
    assert code == 2
    assert "param/attention0/conv3.weights has shape (3, 3, 32, 8)" in err


def test_eval_of_a_checkpoint_header_larger_than_the_file_exits_2(tmp_path, capfd):
    (tmp_path / "checkpoint.ckpt").write_bytes(huge_checkpoint_header())
    write_json(tmp_path / "config.json", {"train": {}, "network": {}})
    code, err = run(capfd, "eval", "--run", tmp_path, "--data", tmp_path, "--out", tmp_path / "e")
    assert code == 2
    assert err.startswith(f"config error: {tmp_path / 'checkpoint.ckpt'} is truncated")


IMAGE_DEFECTS = {
    "truncated": lambda b: b[:-10],
    "maxval_0": lambda b: b.replace(b"\n255\n", b"\n0\n", 1),
    "maxval_65535": lambda b: b.replace(b"\n255\n", b"\n65535\n", 1),
    "bad_size": lambda b: b.replace(b"64 64", b"64 x", 1),
    "one_dim": lambda b: b.replace(b"64 64", b"64", 1),
    "empty_size": lambda b: b.replace(b"64 64", b"0 64", 1),
}


@pytest.mark.parametrize("defect", sorted(IMAGE_DEFECTS))
def test_dataset_with_a_broken_image_exits_2(defect, tmp_path, capfd):
    data = tmp_path / "data"
    assert run(capfd, "gen-data", "--out", data, "--count", "2")[0] == 0
    image = sorted((data / "images").iterdir())[1]
    image.write_bytes(IMAGE_DEFECTS[defect](image.read_bytes()))
    cfg = write_json(tmp_path / "cfg.json", {"network": {"task": "detection"},
                                             "train": {"max_steps": 1}})
    code, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run", "--data", data)
    assert code == 2
    assert err.startswith(f"error: {image}")


def _drop_labels(data):
    (data / "labels.jsonl").unlink()


def _first_label(edit):
    def apply(data):
        labels = data / "labels.jsonl"
        first, *rest = labels.read_text().splitlines()
        labels.write_text("\n".join([edit(json.loads(first)), *rest]) + "\n")
    return apply


LABEL_DEFECTS = {
    "no_labels_file": _drop_labels,
    "missing_image": _first_label(lambda r: json.dumps({**r, "file": "images/gone.pgm"})),
    "malformed_json": _first_label(lambda r: json.dumps(r)[:-5]),
    "no_file_key": _first_label(lambda r: json.dumps({"objects": r["objects"]})),
    "no_objects_key": _first_label(lambda r: json.dumps({"file": r["file"]})),
    "not_an_object": _first_label(lambda r: json.dumps([r["file"]])),
    "numeric_file": _first_label(lambda r: json.dumps({**r, "file": 7})),
    "not_utf8": lambda data: (data / "labels.jsonl").write_bytes(b"\xff\xfe{}\n"),
    "object_without_box": _first_label(lambda r: json.dumps({**r, "objects": [{"class": 1}]})),
    "unknown_class": _first_label(lambda r: json.dumps(
        {**r, "objects": [{**r["objects"][0], "class": "bogus"}]})),
}


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("defect", sorted(LABEL_DEFECTS))
def test_dataset_with_broken_labels_exits_2(command, defect, detection_run, tmp_path, capfd):
    data = tmp_path / "data"
    shutil.copytree(detection_run[0], data)
    LABEL_DEFECTS[defect](data)
    if command == "train":
        cfg = write_json(tmp_path / "cfg.json", {"network": {"task": "detection"},
                                                 "train": {"max_steps": 1}})
        argv = ["train", "--config", cfg, "--out", tmp_path / "run", "--data", data]
    else:
        argv = ["eval", "--run", detection_run[1], "--data", data, "--out", tmp_path / "e"]
    code, err = run(capfd, *argv)
    assert code == 2
    assert err.startswith("config error: ") and str(data / "labels.jsonl") in err


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


def test_generated_scenes_take_the_network_input_size(tmp_path, capfd):
    cfg = write_json(tmp_path / "cfg.json", {
        "train": {"max_steps": 1, "batch_size": 2},
        "data": {"count": 2},
        "network": {"task": "detection", "input_size": 32},
    })
    assert run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")[0] == 0


@pytest.mark.parametrize("task", ["detection", "orientation"])
def test_generated_images_take_the_network_input_shape(task):
    cfg = {"train": {}, "network": {"task": task, "input_size": 48, "input_channels": 3},
           "data": {"count": 2}}
    tc, ns = _build_specs(cfg)
    images = [s.image if task == "detection" else s[0] for s in _load_training_data(cfg, tc, ns)]
    assert [im.shape for im in images] == [(48, 48, 3)] * 2


def test_default_task_is_detection(tmp_path, capfd):
    cfg = write_json(tmp_path / "cfg.json", {"train": {"max_steps": 1, "batch_size": 2},
                                             "data": {"count": 2}})
    assert run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")[0] == 0
    saved = json.loads((tmp_path / "run" / "config.json").read_text())
    assert saved["network"]["task"] == "detection"


def test_dataset_directory_for_an_orientation_network_exits_2(detection_run, tmp_path, capfd):
    # orientation patches are generated; a dataset directory holds scenes
    data, _ = detection_run
    cfg = write_json(tmp_path / "cfg.json", {"network": {"task": "orientation"},
                                             "train": {"max_steps": 1}})
    code, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run", "--data", data)
    assert code == 2
    assert err.startswith("config error: --data needs a detection network")


def test_rotations_flag_sets_the_network(tmp_path, capfd):
    cfg = write_json(tmp_path / "cfg.json", {"network": {"task": "orientation"},
                                             "train": {"batch_size": 2}, "data": {"count": 2}})
    argv = ["train", "--config", cfg, "--out", tmp_path / "run", "--steps", "1"]
    assert run(capfd, *argv, "--rotations", "4")[0] == 0
    saved = json.loads((tmp_path / "run" / "config.json").read_text())
    assert saved["network"]["n_rotations"] == 4 and "n_rotations" not in saved["train"]
    assert run(capfd, *argv, "--lambda", "4")[0] == 2


def test_multichannel_detection_trains(tmp_path, capfd):
    # the pyramid branch reads the image's channels, as the backbone does
    cfg = write_json(tmp_path / "cfg.json", {
        "train": {"max_steps": 1, "batch_size": 2},
        "data": {"count": 2},
        "network": {"task": "detection", "input_channels": 3},
    })
    assert run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")[0] == 0


def first_generated_image(train_seed, data):
    cfg = {"train": {"seed": train_seed}, "network": {"task": "detection"},
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


@pytest.mark.parametrize("n_classes", [1, 2])
def test_scene_classes_beyond_n_classes_exit_2(n_classes, tmp_path, capfd):
    # generated scenes carry class ids 1..3
    cfg = write_json(tmp_path / "cfg.json", {
        "network": {"n_classes": n_classes},
        "train": {"max_steps": 2, "batch_size": 2},
        "data": {"count": 4},
    })
    code, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run")
    assert code == 2
    assert err.startswith("error: ground truth of image ")
    assert f"is outside 1..{n_classes} (n_classes)" in err


def test_diverging_training_exits_3(tmp_path, capfd):
    cfg = write_json(tmp_path / "cfg.json", {
        "network": {"task": "orientation"},
        "train": {"batch_size": 2, "learning_rate": 1e30},
        "data": {"count": 8},
    })
    with np.errstate(all="ignore"):
        code, err = run(capfd, "train", "--config", cfg, "--out", tmp_path / "run", "--steps", "4")
    assert code == 3
    assert err.startswith("numerical failure:")
