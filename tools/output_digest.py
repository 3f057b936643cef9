"""SHA-256 digests of what the benchmark workloads compute, for checking that
a change keeps every output byte-identical.

    python3 tools/output_digest.py [--steps 4] [--images 16]

Prints five lines, `train_detect <sha256>`, `train_variants <sha256>`,
`detect <sha256>`, `verify <sha256>` and `eval <sha256>`:

- train_detect: `--steps` training steps of `perfbench/workloads.py`'s
  `TrainDetect` at seeds 0 and 5 (its warm-up step is the first), hashing
  each step's loss and, after the last step, every parameter, gradient and
  state array of the network by name, dtype, shape and bytes;
- train_variants: the same for `--steps` steps on `TrainDetect`'s seed-0
  scenes of two detectors the workloads do not run, whose filter expansion
  takes the paths the default n=8 one skips: n=6 (every angle resampled,
  no quarter-turn fold) and n=12 (a quarter-turn fold over three base
  angles);
- detect: `Detect.op` on the first `--images` pool images at seeds 3 and
  7919, hashing each detection's class, `repr(score)`, the bytes of both
  boxes' `as_array()` and the types of every box field;
- verify: the CSV files `trainer.verify_equivariance` writes for an n=8
  probe at 32 px with rotation counts 4 and 8 (the `oriconv verify`
  angles), plus the `repr` of the rows of the workloads'
  `Verify` at seeds 0 and 5;
- eval: one CLI round trip through `oriconv.cli.cli` in a temporary
  directory: `gen-data` of 8 scenes at seed 3, `train` on them from a config
  of empty sections for 2 steps at batch size 4, and `eval` at score
  threshold 0.0 on 8 held-out scenes at seed 11, hashing every file those
  commands write (images, `labels.jsonl`, `meta.json`, the run's
  `config.json`, `loss_log.csv` and `checkpoint.ckpt`, `eval.json` and each
  `pr_class*.csv`) by path and bytes.

The workloads are imported read-only and run with one BLAS thread unless
OPENBLAS_NUM_THREADS says otherwise, as the benchmark runs them. Compare the
lines printed at two commits: equal digests mean equal outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True  # leave perfbench/ as it is
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as perfbench/run.py runs them

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from oriconv import cli, networks, trainer  # noqa: E402

TRAIN_SEEDS = (0, 5)
DETECT_SEEDS = (3, 7919)
VERIFY_SEEDS = (0, 5)


def _add_arrays(h, arrays: dict) -> None:
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name} {a.dtype} {a.shape}".encode())
        h.update(a.tobytes())


def _add_training(h, w) -> None:
    """A training workload's step losses and its network's arrays."""
    h.update(repr(w.losses).encode())
    _add_arrays(h, w.net.params())
    _add_arrays(h, w.net.grads())
    _add_arrays(h, w.net.state())


def train_detect_digest(steps: int) -> str:
    h = hashlib.sha256()
    for seed in TRAIN_SEEDS:
        w = workloads.TrainDetect(seed)  # runs step 0 as its warm-up
        for i in range(1, steps):
            w.op(i)
        _add_training(h, w)
    return h.hexdigest()


VARIANT_SPECS = (
    networks.NetworkSpec(n_rotations=6),
    networks.NetworkSpec(n_rotations=12),
)


def train_variants_digest(steps: int) -> str:
    h = hashlib.sha256()
    w = workloads.TrainDetect(TRAIN_SEEDS[0])  # for its scenes
    for spec in VARIANT_SPECS:
        # the workloads' initialisation: the same weights on every run
        w.net = networks.Detector(spec, rng=np.random.default_rng(0))
        w.opt = trainer.SGD(w.net)
        w.losses = []
        for i in range(steps):
            w.op(i)
        _add_training(h, w)
    return h.hexdigest()


def _box_fields(box) -> str:
    return repr([(k, type(v).__name__) for k, v in vars(box).items()])


def detect_digest(images: int) -> str:
    h = hashlib.sha256()
    for seed in DETECT_SEEDS:
        w = workloads.Detect(seed)
        for i in range(images):
            _, dets = w.op(i)
            h.update(f"image {i}: {len(dets)}".encode())
            for d in dets:
                h.update(f"{d.class_id} {d.score!r}".encode())
                for box in (d.hbox, d.obox):
                    h.update(box.as_array().tobytes())
                    h.update(_box_fields(box).encode())
    return h.hexdigest()


VERIFY_SPECS = (networks.NetworkSpec(task="orientation", n_rotations=8),)


def verify_digest() -> str:
    h = hashlib.sha256()
    for spec in VERIFY_SPECS:
        with tempfile.TemporaryDirectory() as out:
            trainer.verify_equivariance(spec, (0.0, 90.0, 180.0, 270.0), out,
                                        rotation_counts=(4, 8), image_size=32)
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    h.update(name.encode())
                    h.update(fh.read())
    for seed in VERIFY_SEEDS:
        h.update(repr(workloads.Verify(seed).op(0)).encode())
    return h.hexdigest()


def eval_digest() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump({"train": {}, "network": {}, "data": {}}, fh)
        train, held_out, run, report = (os.path.join(tmp, d) for d in ("train", "held_out", "run", "eval"))
        commands = (
            ["gen-data", "--out", train, "--count", "8", "--seed", "3"],
            ["gen-data", "--out", held_out, "--count", "8", "--seed", "11"],
            ["train", "--config", config, "--data", train, "--out", run,
             "--steps", "2", "--batch-size", "4"],
            ["eval", "--run", run, "--data", held_out, "--out", report, "--score-threshold", "0.0"],
        )
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):  # its lines name the temp dir
                code = cli.cli(argv)
            if code != 0:
                raise SystemExit(f"oriconv {argv[0]} exited {code}")
        for d in (train, held_out, run, report):
            for base, _, files in sorted(os.walk(d)):
                for name in sorted(files):
                    path = os.path.join(base, name)
                    with open(path, "rb") as fh:
                        h.update(os.path.relpath(path, tmp).encode())
                        h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--steps", type=int, default=4, help="training steps per seed (>= 1)")
    p.add_argument("--images", type=int, default=workloads.Detect.pool_images,
                   help="detect_image calls per seed")
    args = p.parse_args(argv)
    if args.steps < 1 or args.images < 0:
        p.error("--steps must be >= 1 and --images >= 0")
    print("train_detect", train_detect_digest(args.steps))
    print("train_variants", train_variants_digest(args.steps))
    print("detect", detect_digest(args.images))
    print("verify", verify_digest())
    print("eval", eval_digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
