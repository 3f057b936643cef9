"""Command-line surface.

Subcommands: gen-data, train, eval, verify, dump-features. Config is a
JSON file with three sections. "network" (a `NetworkSpec`) alone says what is
trained: the task (detection by default), rotation count and input shape.
"train" (a `TrainConfig`) says how. "data" holds `count` and the `SceneSpec`
keys of the generated images, which take the network's input shape; an
orientation network takes none of the keys that only detection scenes use.
Any other top-level key, and a file that is not UTF-8 JSON, is a config
error. Any matching CLI flag overrides the config value (flags win). Exit
codes: 0 success, 2 bad usage or config, 3 numerical failure.

`train` and `eval` hand the loss and the metrics the same ground-truth
record per image, `Sample.ground_truth`.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import metrics
from .errors import ConfigError, NumericalError, OriconvError, check_section
from .networks import NetworkSpec
from .synthdata import (
    SceneSpec,
    generate_orientation_patches,
    generate_scene,
    load_dataset,
    read_image,
    write_dataset,
)
from .trainer import (
    TrainConfig,
    TrainResult,
    build_network,
    save_training_checkpoint,
    train,
    verify_equivariance,
    write_loss_log,
)


SECTIONS = ("train", "network", "data")

# SceneSpec keys that only shape detection scenes; orientation patches ignore them
SCENE_ONLY_KEYS = ("min_objects", "max_objects", "classes", "min_size", "max_size", "overlap_iou")


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config is not UTF-8 text: {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object: {path}")
    unknown = sorted(str(k) for k in cfg if k not in SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(unknown)}")
    for section in SECTIONS:
        if not isinstance(cfg.setdefault(section, {}), dict):
            raise ConfigError(f"config section {section!r} must be a JSON object")
    return cfg


def _apply_overrides(cfg: dict, args) -> dict:
    over = {
        "seed": ("train", "seed"),
        "steps": ("train", "max_steps"),
        "batch_size": ("train", "batch_size"),
        "rotations": ("network", "n_rotations"),
    }
    for flag, (section, key) in over.items():
        v = getattr(args, flag, None)
        if v is not None:
            cfg[section][key] = v
    return cfg


def _build_specs(cfg: dict):
    return TrainConfig.from_dict(cfg["train"]), NetworkSpec.from_dict(cfg["network"])


def _load_training_data(cfg: dict, tc: TrainConfig, ns: NetworkSpec, data_dir=None):
    """The dataset at `data_dir` (detection only), or `data.count` generated
    images. An orientation network refuses what only detection scenes use:
    `--data`, `train.hflip_augment` and the scene-only `data` keys."""
    if ns.task == "orientation":
        if data_dir:
            raise ConfigError("--data needs a detection network")
        if tc.hflip_augment:
            raise ConfigError("train.hflip_augment needs a detection network")
        scene_only = [k for k in SCENE_ONLY_KEYS if k in cfg["data"]]
        if scene_only:
            raise ConfigError(
                f"data key(s) {', '.join(scene_only)} need a detection network"
            )
    if data_dir:
        return load_dataset(data_dir)
    d = dict(cfg["data"])
    count = d.pop("count", 256)
    if isinstance(count, bool) or not isinstance(count, int):
        raise ConfigError(f"data.count must be int, got {count!r}")
    check_section("data", d, SceneSpec, owned_elsewhere=("image_size", "channels"))
    d.setdefault("seed", tc.seed)
    scene = SceneSpec(**d, image_size=ns.input_size, channels=ns.input_channels)
    if ns.task == "orientation":
        return generate_orientation_patches(scene, count, patch_size=ns.input_size)
    return [generate_scene(scene, i) for i in range(count)]


def _run_dir_paths(run_dir: str):
    return (
        os.path.join(run_dir, "checkpoint.ckpt"),
        os.path.join(run_dir, "config.json"),
        os.path.join(run_dir, "loss_log.csv"),
    )


def _restore_run(run_dir: str):
    ck_path, cfg_path, _ = _run_dir_paths(run_dir)
    if not os.path.exists(ck_path):
        raise ConfigError(f"no checkpoint at {ck_path}")
    tc, ns = _build_specs(load_config(cfg_path))
    tensors, _, h = ckpt.load_checkpoint(ck_path)
    expect = ckpt.config_hash({"train": tc.to_dict(), "network": ns.to_dict()})
    if h != expect:
        raise ConfigError("checkpoint/config hash mismatch; run directory is stale")
    net = build_network(ns, tc.seed)
    ckpt.restore_network(net, tensors)
    return net


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    spec = SceneSpec(
        image_size=args.size,
        min_objects=args.min_objects,
        max_objects=args.max_objects,
        angle_range=(args.angle_min, args.angle_max),
        channels=args.channels,
        seed=args.seed,
    )
    write_dataset(args.out, spec, args.count)
    print(f"wrote {args.count} scenes to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    cfg = _apply_overrides(cfg, args)
    tc, ns = _build_specs(cfg)
    data = _load_training_data(cfg, tc, ns, args.data)
    net = build_network(ns, tc.seed)
    result = train(tc, data, net)
    os.makedirs(args.out, exist_ok=True)
    ck_path, cfg_path, log_path = _run_dir_paths(args.out)
    save_training_checkpoint(ck_path, result, tc, ns)
    with open(cfg_path, "w") as fh:
        json.dump({"train": tc.to_dict(), "network": ns.to_dict()}, fh, indent=2)
    write_loss_log(log_path, result)
    last = result.log_rows[-1][2] if result.log_rows else float("nan")
    print(f"trained {tc.max_steps} steps; final loss {last:.6f}; run dir {args.out}")
    return 0


def cmd_eval(args) -> int:
    net = _restore_run(args.run)
    if net.spec.task != "detection":
        raise ConfigError("eval requires a detection run directory")
    data = load_dataset(args.data)
    per_dets = [
        net.detect_image(s.image, score_threshold=args.score_threshold, nms_iou=args.nms_iou)
        for s in data
    ]
    result, pr_rows = metrics.evaluate(per_dets, [s.ground_truth() for s in data])
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "eval.json"), "w") as fh:
        fh.write(result.to_json())
    for cls, rows in pr_rows.items():
        with open(os.path.join(args.out, f"pr_class{cls}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("rank", "score", "precision", "recall"))
            w.writerows(rows)
    print(f"mAP@0.5 = {result.map50:.4f}, OBB mAP@0.5 = {result.obb_map50:.4f} "
          f"over {len(data)} images; report in {args.out}")
    return 0


def cmd_verify(args) -> int:
    ns = NetworkSpec(task="orientation", n_rotations=args.rotations)
    rows, sweep = verify_equivariance(
        ns, args.angles, args.out, rotation_counts=args.sweep,
        image_size=args.image_size, seed=args.seed,
    )
    exact = all(r[2] for r in rows) if args.rotations % 4 == 0 else None
    print(f"wrote equivariance report to {args.out}; exact-90 pass: {exact}")
    return 0


def cmd_dump_features(args) -> int:
    net = _restore_run(args.run)
    img = read_image(args.image)
    os.makedirs(args.out, exist_ok=True)
    if net.spec.task == "detection":
        stacks = []
        x = img[None]
        for i, seg in enumerate(net.segments):
            x = seg.forward(x, False)
            stacks.append((f"level{i}", x[0]))
    else:
        stacks = [("trunk", net.trunk.forward(img[None], False)[0])]
    from .fieldops import field_magnitudes, split_stack

    for name, stack in stacks:
        p, q = split_stack(stack)
        rho = field_magnitudes(stack)
        theta = np.where(rho > 0, np.arctan2(q, p), 0.0)
        for c in range(rho.shape[2]):
            np.savetxt(
                os.path.join(args.out, f"{name}_c{c}_rho.csv"), rho[:, :, c],
                delimiter=",", fmt="%.6g",
            )
            np.savetxt(
                os.path.join(args.out, f"{name}_c{c}_theta.csv"), theta[:, :, c],
                delimiter=",", fmt="%.6g",
            )
    print(f"wrote feature maps for {len(stacks)} level(s) to {args.out}")
    return 0


# ---------------------------------------------------------------------------


def _unit_interval(text: str) -> float:
    """argparse type of a probability or IoU threshold: a number in [0, 1].
    NaN is rejected too: every comparison with it is False, so a NaN NMS
    threshold would suppress nothing."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of a random seed: a whole number >= 0, as
    `np.random.default_rng` takes it."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 0, got {text!r}")
    return value


def _comma_list(cast, valid, what: str):
    """argparse type of a comma list of `what`: `cast` items that pass `valid`."""
    def parse(text: str) -> tuple:
        try:
            values = tuple(cast(x) for x in text.split(","))
            ok = all(valid(v) for v in values)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"must be a comma list of {what}, got {text!r}")
        return values
    return parse


_finite_numbers = _comma_list(float, np.isfinite, "finite numbers")
_counts = _comma_list(int, lambda v: v >= 1, "whole numbers >= 1")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oriconv",
        description="rotation-equivariant convolution toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic scene dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--count", type=int, default=64)
    g.add_argument("--size", type=int, default=64)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--min-objects", type=int, default=1)
    g.add_argument("--max-objects", type=int, default=3)
    g.add_argument("--angle-min", type=float, default=0.0)
    g.add_argument("--angle-max", type=float, default=360.0)
    g.add_argument("--channels", type=int, default=1)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train from a JSON config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--data", help="pre-generated dataset directory (detection only)")
    t.add_argument("--seed", type=int)
    t.add_argument("--steps", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--rotations", type=int)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a trained detection run")
    e.add_argument("--run", required=True, help="run directory from train")
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.add_argument(
        "--score-threshold", type=_unit_interval, default=0.3,
        help="lowest class probability kept as a detection (default 0.3); an "
        "under-trained model can score below it everywhere and report mAP 0: "
        "after 600 steps of the default schedule mAP@0.5 was 0.000 at 0.3 "
        "and 0.091 at 0.1",
    )
    e.add_argument(
        "--nms-iou", type=_unit_interval, default=0.45,
        help="IoU above which a lower-scored detection of the same class is "
        "suppressed (default 0.45)",
    )
    e.set_defaults(fn=cmd_eval)

    v = sub.add_parser("verify", help="equivariance verification report")
    v.add_argument("--rotations", type=int, default=8)
    v.add_argument("--angles", type=_finite_numbers, default="0,90,180,270")
    v.add_argument("--sweep", type=_counts, default="1,2,4,8,17,24")
    v.add_argument("--image-size", type=int, default=64)
    v.add_argument("--seed", type=_seed, default=0)
    v.add_argument("--out", required=True)
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("dump-features", help="write per-level magnitude/angle maps")
    d.add_argument("--run", required=True)
    d.add_argument("--image", required=True)
    d.add_argument("--out", required=True)
    d.set_defaults(fn=cmd_dump_features)
    return p


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except OriconvError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
