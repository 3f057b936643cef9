"""Training loop, optimizer, schedule, and the equivariance verification
harness.

Optimization is SGD with momentum and decoupled weight decay, with no pass
over the weights after a step: canonical filter weights outside the inscribed
circle start at zero and get zero gradient from the adjoint of the RConv
expansion, so momentum and decay leave them at zero (see `rconv`). Given the
same config and seed, runs are deterministic: data order, initialization and
reduction order are all fixed.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import checkpoint as ckpt
from .errors import ConfigError, NumericalError, check_section
from .fieldops import rotate_stack_90, split_stack
from .netblocks import RConvLayer
from .networks import (
    Detector,
    NetworkSpec,
    OrientationEstimator,
    angle_targets,
    orientation_loss_and_grad,
)
from .synthdata import SceneSpec, augment, generate_scene
from .tensor import Tensor, rotate_grid


@dataclass
class TrainConfig:
    """How to train. What is trained, its task, rotation count and input
    shape, is the network's `NetworkSpec` alone."""

    learning_rate: float = 2e-2
    lr_second: float = 1e-3
    lr_third: float = 1e-4
    phase_fractions: tuple = (0.7, 0.15, 0.15)
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 8
    seed: int = 0
    max_steps: int = 500
    lambdas: tuple = (1.0, 1.0, 1.0, 1.0, 1.0)
    hflip_augment: bool = False  # detection-task augmentation only

    def __post_init__(self):
        if len(self.lambdas) != 5 or len(self.phase_fractions) != 3:
            raise ConfigError(
                f"need 5 lambdas and 3 phase fractions, got {len(self.lambdas)} "
                f"and {len(self.phase_fractions)}"
            )
        for name, values in (("lambdas", self.lambdas), ("phase_fractions", self.phase_fractions)):
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       and math.isfinite(v) for v in values):
                raise ConfigError(f"{name} must be finite numbers, got {list(values)}")
        if min(self.phase_fractions) < 0:
            raise ConfigError(f"phase fractions must be >= 0, got {list(self.phase_fractions)}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not (math.isfinite(self.momentum) and 0 <= self.momentum < 1):
            raise ConfigError(f"momentum must be finite and in [0, 1), got {self.momentum}")
        rates = (self.learning_rate, self.lr_second, self.lr_third)
        if not all(math.isfinite(r) and r > 0 for r in rates):
            raise ConfigError(f"learning rates must be finite and positive, got {rates}")
        if not rates[0] >= rates[1] >= rates[2]:
            raise ConfigError(f"learning rates must be non-increasing, got {rates}")
        if abs(sum(self.phase_fractions) - 1.0) > 1e-9:
            raise ConfigError("phase fractions must sum to 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        check_section("train", d, cls)
        d = dict(d)
        if "phase_fractions" in d:
            d["phase_fractions"] = tuple(d["phase_fractions"])
        if "lambdas" in d:
            d["lambdas"] = tuple(d["lambdas"])
        return cls(**d)

    def lr_at(self, step: int) -> float:
        f1, f2, _ = self.phase_fractions
        b1 = int(self.max_steps * f1)
        b2 = int(self.max_steps * (f1 + f2))
        if step < b1:
            return self.learning_rate
        if step < b2:
            return self.lr_second
        return self.lr_third


class SGD:
    """Momentum SGD with decoupled weight decay over a network's named
    parameters, written in place. A step writes nothing else: a weight
    outside a filter's circle has zero gradient and stays at zero. Running
    statistics are state, not parameters, and are never decayed."""

    def __init__(self, network, momentum: float = 0.9, weight_decay: float = 5e-4):
        self.network = network
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {
            k: np.zeros_like(v) for k, v in network.params().items()
        }

    def step(self, lr: float) -> None:
        params = self.network.params()
        grads = self.network.grads()
        for k in sorted(params):
            v = self.velocity[k]
            v *= self.momentum
            v += grads[k]
            params[k] -= lr * v
            if self.weight_decay:
                params[k] -= lr * self.weight_decay * params[k]


def build_network(net_spec: NetworkSpec, seed: int):
    rng = np.random.default_rng(seed)
    if net_spec.task == "detection":
        return Detector(net_spec, rng=rng)
    return OrientationEstimator(net_spec, rng=rng)


@dataclass
class TrainResult:
    network: object
    momenta: dict
    log_rows: list  # (step, lr, total, *components)
    log_header: tuple


def train(config: TrainConfig, dataset, network) -> TrainResult:
    """Run the SGD loop over a frozen in-memory dataset; the network's spec
    sets the task. dataset: list of (image, alpha) pairs for an orientation
    estimator, or list of synthdata.Sample for a detector, at the spec's
    input shape. A non-finite loss aborts with the offending step in the
    message. Returns the trained network, optimizer momenta and the per-step
    loss log."""
    if config.max_steps > 0 and not dataset:
        raise ConfigError("dataset is empty")
    opt = SGD(network, config.momentum, config.weight_decay)
    order_rng = np.random.default_rng(config.seed ^ 0x5EED)
    # the hflip coin flips have their own stream, so the flag leaves the data
    # order alone
    flip_rng = np.random.default_rng(config.seed ^ 0xF11B)
    rows = []
    orientation = network.spec.task == "orientation"
    components = () if orientation else ("rpn_cls", "rpn_reg", "head_cls", "head_hbb", "head_obb")

    n = len(dataset)
    perm = []
    for step in range(config.max_steps):
        if len(perm) < config.batch_size:
            perm = list(order_rng.permutation(n))
        idx = [perm.pop() for _ in range(min(config.batch_size, n))]
        lr = config.lr_at(step)
        network.zero_grads()

        if orientation:
            imgs = np.stack([dataset[i][0] for i in idx])
            alphas = np.array([dataset[i][1] for i in idx])
            pred, _ = network.forward(imgs, training=True)
            loss, g = orientation_loss_and_grad(pred, angle_targets(alphas))
            network.backward(g)
            rows.append((step, lr, loss))
        else:
            batch = [dataset[i] for i in idx]
            if config.hflip_augment:
                flip = flip_rng.random(len(batch)) < 0.5
                batch = [
                    augment(s, {"hflip": True}) if f else s
                    for s, f in zip(batch, flip)
                ]
            imgs = np.stack([s.image for s in batch])
            gts = [s.ground_truth() for s in batch]
            loss, comps = network.loss_and_grads(imgs, gts, config.lambdas)
            rows.append((step, lr, loss, *(comps[k] for k in components)))

        if not math.isfinite(rows[-1][2]):
            raise NumericalError(
                f"non-finite loss {rows[-1][2]} at step {step}; aborting"
            )
        opt.step(lr)

    return TrainResult(network, opt.velocity, rows, ("step", "lr", "loss") + components)


def write_loss_log(path: str, result: TrainResult) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(result.log_header)
        for row in result.log_rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])


def save_training_checkpoint(path: str, result: TrainResult, config: TrainConfig, net_spec: NetworkSpec):
    tensors = ckpt.network_tensors(result.network, result.momenta)
    cfg = {"train": config.to_dict(), "network": net_spec.to_dict()}
    ckpt.save_checkpoint(path, tensors, len(result.log_rows), cfg)


# ---------------------------------------------------------------------------
# equivariance verification harness


def rotate_field_stack(stack: Tensor, angle: float) -> Tensor:
    """Reference transform of a field stack under image rotation by `angle`:
    rotate each component plane spatially, then rotate every vector by the
    same angle (2x2 mixing). Exact quarter turns use the permutation path,
    which takes a batch [..., H, W, 2C]; the off-grid path (`rotate_grid`)
    takes one square image [H, H, 2C]."""
    k = angle / (0.5 * math.pi)
    if abs(k - round(k)) < 1e-12:
        return rotate_stack_90(stack, int(round(k)))
    spatial = rotate_grid(stack, angle)
    p, q = split_stack(spatial)
    ca, sa = math.cos(angle), math.sin(angle)
    out = np.empty_like(spatial)
    out[..., 0::2] = ca * p - sa * q
    out[..., 1::2] = sa * p + ca * q
    return out


def _gaussian_blur(img: Tensor, sigma: float) -> Tensor:
    """Separable Gaussian blur with edge clamping (spatial axes only)."""
    radius = max(int(math.ceil(3 * sigma)), 1)
    xs = np.arange(-radius, radius + 1)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    k /= k.sum()
    pad = np.pad(img, ((radius, radius), (0, 0), (0, 0)), mode="edge")
    out = sum(k[i] * pad[i : i + img.shape[0]] for i in range(len(k)))
    pad = np.pad(out, ((0, 0), (radius, radius), (0, 0)), mode="edge")
    return sum(k[i] * pad[:, i : i + img.shape[1]] for i in range(len(k)))


def make_test_image(size: int, channels: int = 1, seed: int = 7) -> Tensor:
    """Band-limited, zero-mean, edge-rich test image for equivariance
    measurements: a blurred synthetic scene (rotation by resampling is only
    meaningful below the Nyquist limit, so the probe must be smooth)."""
    spec = SceneSpec(
        seed=seed, image_size=size, min_objects=3, max_objects=3,
        min_size=max(8, size // 5), max_size=max(10, size // 3),
        channels=channels,
    )
    img = generate_scene(spec, 0).image.astype(np.float64)
    img = _gaussian_blur(img, 1.2)
    return img - img.mean()


def _first_pooled_fields(network, image: Tensor) -> Tensor:
    """Run the trunk up to and including the first (pooling) RConv layer."""
    x = image[None]
    for layer in network.trunk.layers:
        x = layer.forward(x, False)
        if isinstance(layer, RConvLayer):
            return x[0]
    raise ConfigError("network has no orientation pooling stage")


def covariance_error(network, image: Tensor, angle: float) -> float:
    """Rotation-covariance error in degrees: the magnitude-weighted angular
    deviation between the first pooled field of the rotated image and the
    rotated-and-remixed reference field, over the interior (rotation fill
    corrupts a border of width size/6, which is excluded).

    A 1-rotation network pins every vector to angle 0, so its error equals
    the probe angle itself. Finer orientation sampling lowers it, but it
    levels off far above zero: the default `oriconv verify` probe (free
    filters, 64 px) measures 43.5, 30.9, 30.4 and 28.3 degrees at 45 degrees
    for n = 4, 8, 16 and 32.
    """
    f_ref = _first_pooled_fields(network, image)
    f_rot = _first_pooled_fields(network, rotate_grid(image, angle))
    expected = rotate_field_stack(f_ref, angle)
    crop = max(image.shape[0] // 6, 2)
    act = f_rot[crop:-crop, crop:-crop]
    exp = expected[crop:-crop, crop:-crop]
    pa, qa = split_stack(act)
    pe, qe = split_stack(exp)
    weight = np.hypot(pa, qa) * np.hypot(pe, qe)
    positive = weight[weight > 0]
    if positive.size == 0:
        return 0.0
    # strongest quartile only: weak responses carry no orientation signal
    mask = weight >= np.quantile(positive, 0.75)
    diff = np.angle(np.exp(1j * (np.arctan2(qa, pa) - np.arctan2(qe, pe))))
    total = float(weight[mask].sum())
    if total <= 0:
        return 0.0
    return float((weight[mask] * np.abs(np.degrees(diff))[mask]).sum() / total)


def exact_quarter_turn_report(network, image: Tensor):
    """Per-stage max abs discrepancy of the quarter-turn identity (expected
    to be exactly zero in float64 when the rotation count is divisible by 4)."""
    rows = []
    x_ref = image[None]
    x_rot = np.rot90(image).copy()[None]
    stage = 0
    for layer in network.trunk.layers:
        x_ref = layer.forward(x_ref, False)
        x_rot = layer.forward(x_rot, False)
        if isinstance(layer, RConvLayer):
            expected = rotate_stack_90(x_ref[0], 1)
            diff = float(np.abs(x_rot[0] - expected).max())
            rows.append((f"stage{stage}", diff, diff == 0.0))
            stage += 1
    return rows


def verify_equivariance(
    net_spec: NetworkSpec,
    angles_deg,
    out_dir: str,
    rotation_counts=(1, 2, 4, 8, 17, 24),
    image_size: int = 64,
    seed: int = 0,
):
    """Write the three-part equivariance report as CSV files, each a function
    of the arguments alone.

    exact90.csv: per-stage quarter-turn discrepancy (float64, bit-exact when
    4 divides the rotation count). covariance.csv: angular error of the
    rotate-input identity per requested angle. sweep.csv: `n_rotations` and
    `angular_error_45deg`, the covariance error at 45 degrees, per rotation
    count.
    """
    os.makedirs(out_dir, exist_ok=True)
    size = image_size
    image = make_test_image(size, net_spec.input_channels, seed=seed + 7)

    def make_net(n_rot):
        spec = NetworkSpec(
            task="orientation",
            n_rotations=n_rot,
            input_size=size,
            input_channels=net_spec.input_channels,
            backbone=(
                {"size": 7, "filters": 4, "pool": 2},
                {"size": 3, "filters": 4, "pool": 2},
            ),
            head_window=net_spec.head_window,
        )
        net = OrientationEstimator(spec, rng=np.random.default_rng(seed), dtype=np.float64)
        # band-limit the random filters: rotating kernels with content at the
        # pixel Nyquist limit is meaningless, so the probe network uses
        # smooth ones. The weight that the blur spreads outside a filter's
        # circle is never read: the expansion masks it out.
        for layer in net.trunk.layers:
            if isinstance(layer, RConvLayer):
                w = layer.bank.weights
                flat = w.reshape(w.shape[0], w.shape[1], -1, 1)
                sm = np.stack(
                    [_gaussian_blur(flat[:, :, i], 1.0) for i in range(flat.shape[2])],
                    axis=2,
                )[..., 0]
                layer.bank.weights = sm.reshape(w.shape)
        return net

    probes = [image] + [
        make_test_image(size, net_spec.input_channels, seed=seed + 11 + i)
        for i in range(2)
    ]

    net = make_net(net_spec.n_rotations)
    rows = exact_quarter_turn_report(net, image)
    with open(os.path.join(out_dir, "exact90.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("layer", "max_abs_discrepancy", "exact"))
        w.writerows(rows)

    with open(os.path.join(out_dir, "covariance.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("angle_deg", "angular_error_deg"))
        for a in angles_deg:
            errs = [covariance_error(net, p, math.radians(a)) for p in probes]
            w.writerow((a, repr(float(np.mean(errs)))))

    sweep = []
    for n_rot in rotation_counts:
        net_n = make_net(n_rot)
        err = float(
            np.mean([covariance_error(net_n, p, math.radians(45.0)) for p in probes])
        )
        sweep.append((n_rot, err))
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("n_rotations", "angular_error_45deg"))
        for r in sweep:
            w.writerow((r[0], repr(r[1])))
    return rows, sweep
