"""Command-line surface.

Subcommands: gen-data, train, eval, verify, bench, dump-features. Config is a
JSON file with "train", "network" and "data" sections; any matching CLI flag
overrides the config value (flags win). Exit codes: 0 success, 2 bad usage or
config, 3 numerical failure.

The ORICONV_THREADS environment variable caps worker threads for data
generation; training itself is single-threaded for determinism.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

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


def worker_threads() -> int:
    try:
        return max(int(os.environ.get("ORICONV_THREADS", "1")), 1)
    except ValueError:
        return 1


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object: {path}")
    cfg.setdefault("train", {})
    cfg.setdefault("network", {})
    cfg.setdefault("data", {})
    return cfg


def _apply_overrides(cfg: dict, args) -> dict:
    over = {
        "seed": ("train", "seed"),
        "steps": ("train", "max_steps"),
        "batch_size": ("train", "batch_size"),
        "rotations": ("train", "n_rotations"),
    }
    for flag, (section, key) in over.items():
        v = getattr(args, flag, None)
        if v is not None:
            cfg[section][key] = v
    if getattr(args, "rotations", None) is not None:
        cfg["network"]["n_rotations"] = args.rotations
    return cfg


def _build_specs(cfg: dict):
    tc = TrainConfig.from_dict(cfg["train"]) if cfg["train"] else TrainConfig()
    nd = dict(cfg["network"])
    nd.setdefault("task", tc.task)
    nd.setdefault("n_rotations", tc.n_rotations)
    ns = NetworkSpec.from_dict(nd)
    for key in ("task", "n_rotations"):
        got, want = getattr(ns, key), getattr(tc, key)
        if got != want:
            raise ConfigError(f"network.{key} {got!r} differs from train.{key} {want!r}")
    return tc, ns


def _load_training_data(cfg: dict, tc: TrainConfig, ns: NetworkSpec, data_dir=None):
    if data_dir:
        return load_dataset(data_dir)
    d = dict(cfg.get("data", {}))
    count = d.pop("count", 256)
    kind = d.pop("kind", "patches" if tc.task == "orientation" else "scenes")
    patch = d.pop("patch_size", ns.input_size)
    for key, value in (("count", count), ("patch_size", patch)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"data.{key} must be int, got {value!r}")
    if kind not in ("patches", "scenes"):
        raise ConfigError(f"data.kind must be 'patches' or 'scenes', got {kind!r}")
    check_section("data", d, SceneSpec)
    # the images take the run's seed and the network's input shape unless
    # the config sets them
    d.setdefault("seed", tc.seed)
    d.setdefault("channels", ns.input_channels)
    if kind == "scenes":
        d.setdefault("image_size", ns.input_size)
    scene = SceneSpec(**d)
    if kind == "patches":
        return generate_orientation_patches(scene, count, patch_size=patch)
    n = worker_threads()
    if n > 1:
        with ThreadPoolExecutor(max_workers=n) as ex:
            return list(ex.map(lambda i: generate_scene(scene, i), range(count)))
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
    tensors, step, h = ckpt.load_checkpoint(ck_path)
    expect = ckpt.config_hash({"train": tc.to_dict(), "network": ns.to_dict()})
    if h != expect:
        raise ConfigError("checkpoint/config hash mismatch; run directory is stale")
    net = build_network(ns, tc)
    ckpt.restore_network(net, tensors)
    return net, tc, ns, step


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
    net = build_network(ns, tc)
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
    net, tc, ns, step = _restore_run(args.run)
    if ns.task != "detection":
        raise ConfigError("eval requires a detection run directory")
    data = load_dataset(args.data)
    t0 = time.perf_counter()
    per_dets = [
        net.detect_image(s.image, score_threshold=args.score_threshold, nms_iou=args.nms_iou)
        for s in data
    ]
    dt = time.perf_counter() - t0
    per_gts = [[(o.class_id, (o.hbox, o.obox)) for o in s.objects] for s in data]
    result, pr_rows = metrics.evaluate(per_dets, per_gts, len(data) / max(dt, 1e-9))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "eval.json"), "w") as fh:
        fh.write(result.to_json())
    for cls, rows in pr_rows.items():
        with open(os.path.join(args.out, f"pr_class{cls}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("rank", "score", "precision", "recall"))
            w.writerows(rows)
    print(f"mAP@0.5 = {result.map50:.4f} over {len(data)} images; report in {args.out}")
    return 0


def cmd_verify(args) -> int:
    angles = [float(a) for a in args.angles.split(",")]
    ns = NetworkSpec(task="orientation", n_rotations=args.rotations)
    rows, sweep = verify_equivariance(
        ns, angles, args.out,
        rotation_counts=tuple(int(x) for x in args.sweep.split(",")),
        image_size=args.image_size, seed=args.seed or 0,
    )
    exact = all(r[2] for r in rows) if args.rotations % 4 == 0 else None
    print(f"wrote equivariance report to {args.out}; exact-90 pass: {exact}")
    return 0


def cmd_bench(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    scene = SceneSpec(seed=args.seed or 0, image_size=args.size)
    images = [generate_scene(scene, i).image for i in range(args.count)]
    rows = []
    for n_rot in (int(x) for x in args.sweep.split(",")):
        ns = NetworkSpec(
            task="orientation", n_rotations=n_rot, input_size=args.size,
            backbone=(
                {"size": 5, "filters": 4, "pool": 2},
                {"size": 3, "filters": 4, "pool": 2},
            ), head_window=4,
        )
        net = build_network(ns, TrainConfig(n_rotations=n_rot, seed=0))
        ips = metrics.throughput(lambda im: net.forward(im[None], training=False), images, warmup=1)
        rows.append((n_rot, ips))
        print(f"rotations={n_rot}: {ips:.2f} images/s")
    with open(os.path.join(args.out, "throughput.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("n_rotations", "images_per_second"))
        for r in rows:
            w.writerow((r[0], repr(r[1])))
    return 0


def cmd_dump_features(args) -> int:
    net, tc, ns, _ = _restore_run(args.run)
    img = read_image(args.image)
    os.makedirs(args.out, exist_ok=True)
    if ns.task == "detection":
        stacks = []
        x = img[None]
        for i, seg in enumerate(net.segments):
            x = seg.forward(x, False)
            stacks.append((f"level{i}", x[0]))
    else:
        stacks = [("trunk", net.trunk.forward(img[None], False)[0])]
    from .fieldops import split_stack

    for name, stack in stacks:
        p, q = split_stack(stack)
        rho = np.hypot(p, q)
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
    t.add_argument("--data", help="pre-generated dataset directory (detection)")
    t.add_argument("--seed", type=int)
    t.add_argument("--steps", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--rotations", "--lambda", dest="rotations", type=int)
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
    v.add_argument("--rotations", "--lambda", dest="rotations", type=int, default=8)
    v.add_argument("--angles", default="0,90,180,270")
    v.add_argument("--sweep", default="1,2,4,8,17,24")
    v.add_argument("--image-size", type=int, default=64)
    v.add_argument("--seed", type=int)
    v.add_argument("--out", required=True)
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench", help="throughput table over rotation counts")
    b.add_argument("--out", required=True)
    b.add_argument("--count", type=int, default=8)
    b.add_argument("--size", type=int, default=64)
    b.add_argument("--sweep", default="1,2,4,8")
    b.add_argument("--seed", type=int)
    b.set_defaults(fn=cmd_bench)

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
