"""The benchmark's four workloads.

Each workload is closed loop with one caller. Constructing one is its set-up:
it makes its inputs with `synthdata` from the workload seed alone, builds the
network with the package's default initialisation (so every seed runs the same
weights), and runs one untimed warm-up op. `op(i)` is one timed op and
`check(result)` returns None or a description of a wrong output.

All calls into the package go through module attributes or methods, so the
traced mode's patches see them.
"""

from __future__ import annotations

import math

import numpy as np

from oriconv import networks, synthdata, trainer

N_ROTATIONS = 8
BATCH = 8
# The detector trains at B=2, not 8: its step time grows linearly with B
# (about 55 ms per image), and on a shared host the fastest of many short
# steps is far steadier than the fastest of a few long ones (see README.md).
# Two images still show batch-level changes such as expanding filters once
# per batch or one GEMM over the batch.
DETECT_BATCH = 2
LEARNING_RATE = trainer.TrainConfig().learning_rate
# Below the untrained per-class probability of about 1/(k+1) = 0.25, so
# decode and the final NMS run at their cap of 4 * MAX_PER_IMAGE candidates;
# at the CLI default of 0.3 the untrained detector returns nothing.
SCORE_THRESHOLD = 0.2
MAX_PER_IMAGE = 40


def _init_rng():
    return np.random.default_rng(0)


class TrainDetect:
    """One detector training step: zero_grads, loss_and_grads, SGD.step."""

    name = "train_detect"
    images_per_op = DETECT_BATCH
    pool_batches = 8

    def __init__(self, seed):
        spec = synthdata.SceneSpec(seed=seed, image_size=64, min_objects=1, max_objects=3)
        n = self.images_per_op
        samples = [synthdata.generate_scene(spec, i) for i in range(self.pool_batches * n)]
        self.batches = []
        for b in range(self.pool_batches):
            chunk = samples[b * n : (b + 1) * n]
            gts = [
                ([o.class_id for o in s.objects], [(o.hbox, o.obox) for o in s.objects])
                for s in chunk
            ]
            self.batches.append((np.stack([s.image for s in chunk]), gts))
        self.net = networks.Detector(
            networks.NetworkSpec(n_rotations=N_ROTATIONS), rng=_init_rng()
        )
        self.opt = trainer.SGD(self.net)
        self.losses = []
        self.op(0)

    def op(self, i):
        images, gts = self.batches[i % len(self.batches)]
        self.net.zero_grads()
        loss, _ = self.net.loss_and_grads(images, gts)
        self.opt.step(LEARNING_RATE)
        self.losses.append(loss)
        return loss

    def check(self, loss):
        return None if math.isfinite(loss) else f"non-finite loss {loss}"


class TrainOrient:
    """One orientation-estimator training step: forward,
    orientation_loss_and_grad, backward, SGD.step."""

    name = "train_orient"
    images_per_op = BATCH
    pool_batches = 4
    patch_size = 80

    def __init__(self, seed):
        patches = synthdata.generate_orientation_patches(
            synthdata.SceneSpec(seed=seed), self.pool_batches * BATCH, self.patch_size
        )
        self.batches = []
        for b in range(self.pool_batches):
            chunk = patches[b * BATCH : (b + 1) * BATCH]
            self.batches.append(
                (
                    np.stack([p[0] for p in chunk]),
                    networks.angle_targets(np.array([p[1] for p in chunk])),
                )
            )
        spec = networks.NetworkSpec(
            task="orientation", n_rotations=N_ROTATIONS, input_size=self.patch_size,
            backbone=networks.ORIENT_BACKBONE,
        )
        self.net = networks.OrientationEstimator(spec, rng=_init_rng())
        self.opt = trainer.SGD(self.net)
        self.losses = []
        self.op(0)

    def op(self, i):
        images, targets = self.batches[i % len(self.batches)]
        self.net.zero_grads()
        pred, _ = self.net.forward(images, training=True)
        loss, grad = networks.orientation_loss_and_grad(pred, targets)
        self.net.backward(grad)
        self.opt.step(LEARNING_RATE)
        self.losses.append(loss)
        return loss

    def check(self, loss):
        return None if math.isfinite(loss) else f"non-finite loss {loss}"


def _detection_key(d):
    return (d.class_id, d.score, tuple(d.hbox.as_array()), tuple(d.obox.as_array()))


class Detect:
    """Detector.detect_image on one 64 px scene at a time, untrained weights."""

    name = "detect"
    images_per_op = 1
    pool_images = 16

    def __init__(self, seed):
        spec = synthdata.SceneSpec(seed=seed, image_size=64, min_objects=1, max_objects=3)
        self.images = [synthdata.generate_scene(spec, i).image for i in range(self.pool_images)]
        self.net = networks.Detector(
            networks.NetworkSpec(n_rotations=N_ROTATIONS), rng=_init_rng()
        )
        # first result per pool image, to check that a repeated call agrees
        self.first = {}
        self.op(0)

    def op(self, i):
        index = i % len(self.images)
        dets = self.net.detect_image(
            self.images[index], score_threshold=SCORE_THRESHOLD,
            max_per_image=MAX_PER_IMAGE,
        )
        return index, dets

    def check(self, result):
        index, dets = result
        if len(dets) > MAX_PER_IMAGE:
            return f"{len(dets)} detections exceed max_per_image={MAX_PER_IMAGE}"
        for d in dets:
            if not (0.0 <= d.score <= 1.0):
                return f"score {d.score} outside [0, 1]"
            if not (np.all(np.isfinite(d.hbox.as_array())) and np.all(np.isfinite(d.obox.as_array()))):
                return "non-finite box"
        scores = [d.score for d in dets]
        if any(a < b for a, b in zip(scores, scores[1:])):
            return "detections not sorted by descending score"
        keys = [_detection_key(d) for d in dets]
        if self.first.setdefault(index, keys) != keys:
            return f"repeated call on image {index} gave different detections"
        return None


VERIFY_SPEC = dict(
    task="orientation", n_rotations=N_ROTATIONS, input_size=64,
    backbone=({"size": 7, "filters": 4, "pool": 2}, {"size": 3, "filters": 4, "pool": 2}),
)


class Verify:
    """trainer.exact_quarter_turn_report on a float64 OrientationEstimator
    with the spec of the `oriconv verify` probe."""

    name = "verify"
    images_per_op = 2  # the probe image and its quarter turn
    n_stages = len(VERIFY_SPEC["backbone"])

    def __init__(self, seed):
        self.image = trainer.make_test_image(64, 1, seed=seed)
        self.net = networks.OrientationEstimator(
            networks.NetworkSpec(**VERIFY_SPEC), rng=_init_rng(), dtype=np.float64
        )
        self.op(0)

    def op(self, i):
        return trainer.exact_quarter_turn_report(self.net, self.image)

    def check(self, rows):
        if len(rows) != self.n_stages:
            return f"expected {self.n_stages} stages, got {len(rows)}"
        for stage, diff, _ in rows:
            if diff != 0.0:
                return f"{stage}: quarter-turn discrepancy {diff!r} is not exactly 0.0"
        return None


WORKLOADS = {w.name: w for w in (TrainDetect, Detect, TrainOrient, Verify)}
