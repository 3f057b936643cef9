"""Composite network blocks: backbone, image-pyramid feature extractor,
attention merge, level fusion, and the prediction heads.

Layers follow a hand-derived-backward protocol: `forward(x, training)` caches
what the adjoint needs, `backward(gy)` returns the input gradient and
accumulates parameter gradients. `RConvLayer`, the largest cache, keeps it
only when `training` is true; its `backward` after an inference forward
raises `StateError`, and a layer fed by the network input returns no input
gradient. Apart from that, each `RConvLayer` keeps its expanded rotated
filter across calls, keyed on the bytes of its canonical weights, because
those are written in place by the optimiser and by checkpoint loading (see
`RConvLayer`). Arrays are batched [N, H, W, C], and each layer hands the
whole batch to one convolution or pooling call per pass; vector-field stacks
use the interleaved (p, q) plane layout from `fieldops`. `RConvLayer`
convolves against the rotated filter copies and orientation-pools the result,
so every RConv in a block hands on vector fields. Every block keeps the fields
equivariant: rotating the network input by a quarter turn rotates each level's
fields per `fieldops.rotate_stack_90`. That holds exactly only when 4 divides
the rotation count, the arithmetic is float64, the pools meet no exact ties
(both pools keep the lowest-index winner of a tied set, which does not turn
with the image; flat patches of real scenes tie) and no region-of-interest
gate is applied: the detector's RPN gate comes from a plain conv and does not
turn with the image, so the detector's merged fields are exact only with
`use_rpn=False`.

A shape dry-run with symbolic extents validates every merge point at build
time, so mismatched pyramids fail before any real data flows.

Layers form one tree. `Layer.children()` maps a name to each sub-layer; by
default the children are the attributes that hold a `Layer`, in assignment
order, and `Sequential` names its layers by index (an `RConvLayer` takes
two, see `Sequential.children`). `params`, `grads` and
`state` gather the children's arrays under `f"{name}{SEP}{key}"`
(`SEP = "."`; the networks use `"/"`, giving `backbone0/0.weights`), and
`apply_constraints` and `zero_grads` walk the same tree.
Only the leaves that own arrays override the collectors: `RConvLayer`,
`PlainConv` and `OrientationHead` their parameters and gradients
(`RConvLayer` its constraint too), `FieldNorm` its running statistics.
"""

from __future__ import annotations

import math

import numpy as np

from . import fieldops, rconv, steerbasis
from .errors import ShapeError, StateError
from .tensor import Tensor, conv2d, conv2d_backward, conv2d_filter_grad


# ---------------------------------------------------------------------------
# layer protocol


class Layer:
    """Base: a node of the layer tree (see the module docstring)."""

    SEP = "."

    def children(self) -> dict:
        return {k: v for k, v in vars(self).items() if isinstance(v, Layer)}

    def _collect(self, what: str) -> dict:
        return {
            f"{name}{self.SEP}{k}": v
            for name, child in self.children().items()
            for k, v in getattr(child, what)().items()
        }

    def params(self) -> dict:
        return self._collect("params")

    def grads(self) -> dict:
        return self._collect("grads")

    def state(self) -> dict:
        """Non-learnable persistent arrays (running stats)."""
        return self._collect("state")

    def zero_grads(self) -> None:
        for g in self.grads().values():
            g[...] = 0.0

    def apply_constraints(self) -> None:
        for child in self.children().values():
            child.apply_constraints()


class RConvLayer(Layer):
    """Rotation-equivariant convolution with orientation pooling, free or
    basis-parametrized filters: [N, H, W, Cin] -> field stacks [N, H, W, 2C].

    A steerable layer learns `mixing` [K, Cin, C] over the cached basis
    atoms (`steerbasis.build_basis`, held as `atoms`) and composes its bank
    from them on every forward; a free layer learns `bank.weights` itself.
    `forward` expands the canonical bank into its n rotated copies at most
    once per batch (`rconv.expand_rotations`), then convolves the batch
    against them into C*n rotation planes [N, C*n, H, W] (`tensor.conv2d`)
    and pools those into C vector fields (`fieldops.orientation_pool_stack`),
    handed on C-ordered and channel-last.

    The layer keeps its last expanded filter, read-only, and reuses it while
    `bank.weights` (after steerable composition and masking) has the same
    bytes, dtype and shape it was expanded from. The key is the weights'
    content, not their identity, a version count or the `training` flag:
    `trainer.SGD.step`, checkpoint loading and direct edits all write the
    weights in place, and a stale filter would still pass the quarter-turn
    checks while giving wrong losses. Repeated inference at fixed weights
    thus expands nothing; in training the weights change every step and the
    cached filter is the one `backward` reads, so no memory is added there.

    In training it also keeps, for `backward`, the input and the pooling's
    winning rotations (one byte each for n <= 256) and ReLU gate, both
    [N, C, H, W] planes from the forward pass, never the n-times wider
    rotation responses; at inference it keeps no more.
    `backward` pulls the gradient back through the pooling
    (`fieldops.orientation_pool_backward`) and the convolution, then maps the
    per-image filter gradients onto the canonical weights with one call to
    `rconv.expand_rotations_backward` and adds the results in image order.
    Every primitive treats each image as it would on its own, so outputs and
    gradients are bit-identical to `tensor.conv2d`,
    `fieldops.orientation_pool_stack` and their adjoints called image by
    image.

    A layer built with `input_grad=False` (one fed by the network input,
    whose input gradient nobody reads) computes only its filter gradient
    (`tensor.conv2d_filter_grad`) and its `backward` returns None.
    """

    def __init__(
        self,
        size: int,
        in_planes: int,
        n_filters: int,
        n_rotations: int,
        input_kind: str = rconv.SCALAR,
        parametrization: str = "free",
        rng: np.random.Generator | None = None,
        dtype=np.float32,
        input_grad: bool = True,
    ):
        rng = rng or np.random.default_rng(0)
        self.n_rotations = n_rotations
        self.input_grad = input_grad
        self.input_kind = input_kind
        self.parametrization = parametrization
        if parametrization == "steerable":
            self.atoms = steerbasis.build_basis(size)
            fan_in = size * size * in_planes
            std = math.sqrt(1.0 / (fan_in * n_rotations))
            self.mixing = rng.normal(
                0.0, std, size=(self.atoms.shape[2], in_planes, n_filters)
            ).astype(dtype)
            self.g_mixing = np.zeros_like(self.mixing)
            w = steerbasis.compose_filters(self.atoms, self.mixing)
        else:
            self.atoms = None
            w = init_canonical_weights(
                size, in_planes, n_filters, n_rotations, rng
            ).astype(dtype)
        self.bank = rconv.CanonicalFilterBank(
            w.astype(dtype), n_rotations, input_kind=input_kind
        )
        self.g_weights = np.zeros_like(self.bank.weights)
        self._cache = None
        self._expanded = (None, None)  # (weights key, read-only expanded filter)

    def params(self):
        if self.parametrization == "steerable":
            return {"mixing": self.mixing}
        return {"weights": self.bank.weights}

    def grads(self):
        if self.parametrization == "steerable":
            return {"mixing": self.g_mixing}
        return {"weights": self.g_weights}

    def apply_constraints(self):
        if self.parametrization == "steerable":
            self.bank.weights = steerbasis.compose_filters(self.atoms, self.mixing)
        self.bank.apply_mask()

    def _expanded_filter(self) -> Tensor:
        """`rconv.expand_rotations(self.bank)`, reused while the weights'
        bytes, dtype and shape are those it was expanded from."""
        w = self.bank.weights
        key = (w.dtype.str, w.shape, w.tobytes())
        if self._expanded[0] != key:
            f = rconv.expand_rotations(self.bank)
            f.flags.writeable = False
            self._expanded = (key, f)
        return self._expanded[1]

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        if self.parametrization == "steerable":
            self.bank.weights = steerbasis.compose_filters(self.atoms, self.mixing)
            self.bank.apply_mask()
        f = self._expanded_filter()
        y = conv2d(x, f)
        stack, winners, gate = fieldops.orientation_pool_stack(y, self.n_rotations)
        self._cache = (x, f, winners, gate) if training else None
        return stack

    def backward(self, gy: Tensor) -> Tensor | None:
        if self._cache is None:
            raise StateError(
                "RConvLayer.backward needs a preceding forward(..., training=True)"
            )
        x, f, winners, gate = self._cache
        gpre = fieldops.orientation_pool_backward(winners, gate, self.n_rotations, gy)
        if self.input_grad:
            gx, gf = conv2d_backward(x, f, gpre)
        else:
            gx, gf = None, conv2d_filter_grad(x, f, gpre)
        for gw in rconv.expand_rotations_backward(self.bank, gf):
            if self.parametrization == "steerable":
                self.g_mixing += steerbasis.compose_filters_backward(self.atoms, gw)
            else:
                self.g_weights += gw
        return gx


class VfMaxPool(Layer):
    def __init__(self, window: int):
        self.window = window
        self._cache = None

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        pooled, winners = fieldops.vf_max_pool(x, self.window)
        self._cache = (x.shape, winners)
        return pooled

    def backward(self, gy: Tensor) -> Tensor:
        shape, winners = self._cache
        return fieldops.vf_max_pool_backward(shape, self.window, winners, gy)


class FieldAvgPool2(Layer):
    """2x vector-average downsampling of a field stack (used to align a finer
    pyramid level with its coarser neighbor)."""

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        return downsample2(x)

    def backward(self, gy: Tensor) -> Tensor:
        g = np.repeat(np.repeat(gy, 2, axis=1), 2, axis=2)
        return (g * gy.dtype.type(0.25)).astype(gy.dtype)


class FieldNorm(Layer):
    """Magnitude batch normalization of field stacks (VFBN)."""

    def __init__(self, n_fields: int, momentum: float = 0.9, eps: float = 1e-5):
        self.vstate = fieldops.VFBNState.create(n_fields, momentum, eps)
        self._cache = None

    def state(self):
        return {"running_var": self.vstate.running_var}

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        out, self._cache = fieldops.field_batch_norm(x, self.vstate, training)
        return out

    def backward(self, gy: Tensor) -> Tensor:
        return fieldops.field_batch_norm_backward(self._cache, gy)


class PlainConv(Layer):
    """Standard convolution with bias, same-padded and stride 1 like every
    conv (odd `size`); used by the prediction heads. The bias is added as
    the conv's planes are moved channel-last, into a C-ordered output."""

    def __init__(self, size, cin, cout, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        std = math.sqrt(1.0 / (size * size * cin))
        self.w = rng.normal(0.0, std, size=(size, size, cin, cout)).astype(dtype)
        self.b = np.zeros(cout, dtype=dtype)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._cache = None

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.gw, "b": self.gb}

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        self._cache = x
        return np.add(np.moveaxis(conv2d(x, self.w), -3, -1), self.b, order="C")

    def backward(self, gy: Tensor) -> Tensor:
        gx, gw = conv2d_backward(self._cache, self.w, gy)
        # per-image gradients, added in image order
        for gw_i, gb_i in zip(gw, gy.sum(axis=(1, 2))):
            self.gw += gw_i
            self.gb += gb_i
        return gx


class Sequential(Layer):
    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        for l in self.layers:
            x = l.forward(x, training)
        return x

    def backward(self, gy: Tensor) -> Tensor:
        for l in reversed(self.layers):
            gy = l.backward(gy)
        return gy

    def children(self):
        # An RConvLayer takes two indices, so checkpoint names stay those of
        # the time its orientation pool was a layer of its own.
        out, i = {}, 0
        for l in self.layers:
            out[str(i)] = l
            i += 2 if isinstance(l, RConvLayer) else 1
        return out


def init_canonical_weights(size, in_planes, n_filters, n_rotations, rng):
    """Zero-mean init with the fan-in variance shrunk by the rotation count:
    each canonical filter feeds n_rotations output channels, so its variance
    carries an extra 1/n factor to keep activation scale flat in n."""
    fan_in = size * size * in_planes
    std = math.sqrt(1.0 / (fan_in * n_rotations))
    return rng.normal(0.0, std, size=(size, size, in_planes, n_filters))


# ---------------------------------------------------------------------------
# image pyramid


def downsample2(x: Tensor) -> Tensor:
    """2x area-average downsampling of [..., H, W, C]: each output is the mean
    of a 2x2 cell, so a batch gives the same bytes as its images one at a
    time. In float64 each cell is summed in order of |x|, which no
    permutation of the cell and no sign flip of it changes: the average
    then commutes exactly with a quarter turn of a field stack, which
    permutes cells and maps (p, q) to (-q, p)."""
    *lead, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"downsample needs even extents, got {x.shape}")
    d = len(lead)
    quads = (
        x.reshape(*lead, h // 2, 2, w // 2, 2, c)
        .transpose(*range(d), d, d + 2, d + 4, d + 1, d + 3)
        .reshape(*lead, h // 2, w // 2, c, 4)
    )
    if x.dtype == np.float64:
        quads = np.take_along_axis(quads, np.argsort(np.abs(quads), axis=-1), axis=-1)
    return quads.sum(axis=-1) * x.dtype.type(0.25)


def build_image_pyramid(image: Tensor, n_levels: int):
    """[image, image/2, image/4, ...] for an [..., H, W, C] image or batch:
    level k is the input downsampled by 2**k with area averaging; level 0 is
    the input itself."""
    if n_levels < 1:
        raise ShapeError("need at least one level")
    h, w = image.shape[-3:-1]
    if min(h, w) // (2 ** (n_levels - 1)) < 4:
        raise ShapeError(
            f"{n_levels} levels is too deep for a {h}x{w} image"
        )
    levels = [image]
    for _ in range(n_levels - 1):
        levels.append(downsample2(levels[-1]))
    return levels


# ---------------------------------------------------------------------------
# composite blocks


class PyramidStage(Sequential):
    """Per-scale feature extractor: two 3x3 and one 1x1 rotation conv, each
    orientation-pooled, with one 2x field max-pool before the last, which
    lands on the matched prediction layer's spatial size. It reads a pyramid
    image of `in_planes` channels, so its first conv skips the input gradient
    and `backward` returns None."""

    def __init__(self, n_rotations, c1, c2, c_out, in_planes=1, rng=None, dtype=np.float32,
                 parametrization="free"):
        rng = rng or np.random.default_rng(0)
        super().__init__([
            RConvLayer(
                3, in_planes, c1, n_rotations, rconv.SCALAR, parametrization,
                rng=rng, dtype=dtype, input_grad=False,
            ),
            RConvLayer(3, 2 * c1, c2, n_rotations, rconv.VECTOR, parametrization, rng=rng, dtype=dtype),
            VfMaxPool(2),
            RConvLayer(1, 2 * c2, c_out, n_rotations, rconv.VECTOR, parametrization, rng=rng, dtype=dtype),
        ])

    # Own methods, not inherited ones: a profiler that wraps a class's own
    # attributes (perfbench/tracing.py) would otherwise not see this stage.
    def forward(self, x, training=True):
        return super().forward(x, training)

    def backward(self, gy):
        return super().backward(gy)


ROI_GATE_OUTSIDE = 0.3


def roi_gate(shape_hw, rois, stride: int, dtype=np.float32) -> Tensor:
    """Spatial attention gate: 1 inside any region of interest, 0.3 outside.
    With no regions the gate is all-ones (gating disabled)."""
    h, w = shape_hw
    if not rois:
        return np.ones((h, w, 1), dtype=dtype)
    gate = np.full((h, w, 1), ROI_GATE_OUTSIDE, dtype=dtype)
    for r in rois:
        x0 = max(int(math.floor(r.box.xmin / stride)), 0)
        y0 = max(int(math.floor(r.box.ymin / stride)), 0)
        x1 = min(int(math.ceil(r.box.xmax / stride)), w)
        y1 = min(int(math.ceil(r.box.ymax / stride)), h)
        if x1 > x0 and y1 > y0:
            gate[y0:y1, x0:x1, 0] = 1.0
    return gate


class AttentionMerge(Layer):
    """Fuse a prediction-layer field stack with the matching pyramid-stage
    stack: normalize both, concatenate their channels, apply the
    region-of-interest gate, then reform with a 3x3 and a 1x1 rotation conv,
    orientation-pooled. Each step commutes with a quarter turn of the fields,
    so the merged stack is exact under the module docstring's conditions when
    no gate is given; a gate keeps it exact only if it turns with the image,
    which the detector's RPN gate does not."""

    def __init__(self, n_rotations, c_ssd, c_lipm, c_out, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.norm_ssd = FieldNorm(c_ssd)
        self.norm_lipm = FieldNorm(c_lipm)
        c_mix = c_ssd + c_lipm
        mid = max(c_out, c_mix // 2)
        self.conv3 = RConvLayer(3, 2 * c_mix, mid, n_rotations, rconv.VECTOR, rng=rng, dtype=dtype)
        self.conv1 = RConvLayer(1, 2 * mid, c_out, n_rotations, rconv.VECTOR, rng=rng, dtype=dtype)
        self._cache = None

    def forward(self, ssd_feat, lipm_feat, gates=None, training=True):
        """gates: optional [N, H, W, 1] per-image spatial attention maps
        (see `roi_gate`); None disables gating. The gate is a constant in the
        backward pass, matching its binary definition."""
        if ssd_feat.shape[1:3] != lipm_feat.shape[1:3]:
            raise ShapeError(
                f"spatial mismatch {ssd_feat.shape} vs {lipm_feat.shape}"
            )
        a = self.norm_ssd.forward(ssd_feat, training)
        b = self.norm_lipm.forward(lipm_feat, training)
        mix = np.concatenate([a, b], axis=3)
        gated = mix if gates is None else mix * gates
        self._cache = (a.shape[3], gates)
        return self.conv1.forward(self.conv3.forward(gated, training), training)

    def backward(self, gy):
        g = self.conv3.backward(self.conv1.backward(gy))
        ca, gates = self._cache
        if gates is not None:
            g = g * gates
        return self.norm_ssd.backward(g[..., :ca]), self.norm_lipm.backward(g[..., ca:])


class FeatureFusion(Layer):
    """Merge the previous (finer) level into the current one: each side goes
    through a 1x1 rotation conv and magnitude normalization, the finer side
    is vector-average-pooled 2x, the fields are added elementwise, and the
    sum is reformed by a 3x3 then 1x1 rotation conv with orientation pooling
    (the ReLU lives in the pooling's magnitude gate). The per-branch
    normalization keeps the two addends on comparable scale, so neither level
    dominates the sum."""

    def __init__(self, n_rotations, c_prev, c_cur, c_out, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        mid = max(c_out, min(c_prev, c_cur))
        self.pre_prev = RConvLayer(1, 2 * c_prev, mid, n_rotations, rconv.VECTOR, rng=rng, dtype=dtype)
        self.norm_prev = FieldNorm(mid)
        self.pre_cur = RConvLayer(1, 2 * c_cur, mid, n_rotations, rconv.VECTOR, rng=rng, dtype=dtype)
        self.norm_cur = FieldNorm(mid)
        self.pool = FieldAvgPool2()
        self.conv3 = RConvLayer(3, 2 * mid, mid, n_rotations, rconv.VECTOR, rng=rng, dtype=dtype)
        self.conv1 = RConvLayer(1, 2 * mid, c_out, n_rotations, rconv.VECTOR, rng=rng, dtype=dtype)

    def forward(self, r_prev, r_cur, training=True):
        if r_prev.shape[1] != 2 * r_cur.shape[1] or r_prev.shape[2] != 2 * r_cur.shape[2]:
            raise ShapeError(
                f"fusion needs adjacent levels, got {r_prev.shape} and {r_cur.shape}"
            )
        a = self.pool.forward(
            self.norm_prev.forward(self.pre_prev.forward(r_prev, training), training),
            training,
        )
        b = self.norm_cur.forward(self.pre_cur.forward(r_cur, training), training)
        return self.conv1.forward(self.conv3.forward(a + b, training), training)

    def backward(self, gy):
        gs = self.conv3.backward(self.conv1.backward(gy))
        g_prev = self.pre_prev.backward(self.norm_prev.backward(self.pool.backward(gs)))
        g_cur = self.pre_cur.backward(self.norm_cur.backward(gs))
        return g_prev, g_cur


# ---------------------------------------------------------------------------
# orientation regression head


def tanh_unit_forward(rp, rq):
    """tanh both raw outputs and project onto the unit circle.

    Returns (s_hat, c_hat, degenerate, cache); a zero-norm raw pair maps to
    angle 0 (s=0, c=1) and is flagged rather than dividing by zero.
    """
    tp = np.tanh(rp)
    tq = np.tanh(rq)
    norm = np.hypot(tp, tq)
    degenerate = norm < 1e-12
    safe = np.where(degenerate, 1.0, norm)
    c_hat = np.where(degenerate, 1.0, tp / safe)
    s_hat = np.where(degenerate, 0.0, tq / safe)
    return s_hat, c_hat, degenerate, (tp, tq, safe, degenerate)


def tanh_unit_backward(cache, gs, gc):
    """Adjoint of `tanh_unit_forward`; returns (grad_rp, grad_rq)."""
    tp, tq, norm, degenerate = cache
    gs = np.where(degenerate, 0.0, gs)
    gc = np.where(degenerate, 0.0, gc)
    n3 = norm**3
    gtp = gc * (tq**2) / n3 - gs * tp * tq / n3
    gtq = gs * (tp**2) / n3 - gc * tp * tq / n3
    return gtp * (1.0 - tp**2), gtq * (1.0 - tq**2)


class OrientationHead(Layer):
    """Equivariant angle regressor on a pooled field vector.

    Combines the C input vectors with per-channel complex weights (a scaled
    rotation, the only linear map that commutes with simultaneous rotation of
    all field vectors), applies tanh to the two outputs and normalizes them to
    the unit circle. Predicted angle = atan2(s, c). The codebook attribute
    holds the (sin, cos) pairs of the sampled filter orientations, the targets
    the last layer is trained to hit.
    """

    def __init__(self, n_fields: int, n_rotations: int, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        std = math.sqrt(1.0 / n_fields)
        self.wr = rng.normal(0.0, std, size=n_fields).astype(dtype)
        self.wi = rng.normal(0.0, std, size=n_fields).astype(dtype)
        self.gwr = np.zeros_like(self.wr)
        self.gwi = np.zeros_like(self.wi)
        cos_t, sin_t = rconv.angle_table(n_rotations)
        # mappings r = 1..n of (sin, cos) at angles 2*pi*r/n
        self.codebook = np.stack(
            [np.roll(sin_t, -1), np.roll(cos_t, -1)], axis=1
        )
        self._cache = None

    def params(self):
        return {"wr": self.wr, "wi": self.wi}

    def grads(self):
        return {"wr": self.gwr, "wi": self.gwi}

    def forward(self, vectors: Tensor, training: bool = True):
        """vectors: [N, 2C] interleaved (p, q). Returns [N, 2] = (sin, cos)
        unit pairs and a degeneracy flag array."""
        p = vectors[:, 0::2]
        q = vectors[:, 1::2]
        rp = p @ self.wr - q @ self.wi
        rq = q @ self.wr + p @ self.wi
        s_hat, c_hat, degenerate, tcache = tanh_unit_forward(rp, rq)
        self._cache = (vectors, tcache)
        return np.stack([s_hat, c_hat], axis=1), degenerate

    def backward(self, g_out: Tensor) -> Tensor:
        """g_out: [N, 2] gradients w.r.t. (sin, cos). Returns gradient w.r.t.
        the input vectors."""
        vectors, tcache = self._cache
        grp, grq = tanh_unit_backward(tcache, g_out[:, 0], g_out[:, 1])
        p = vectors[:, 0::2]
        q = vectors[:, 1::2]
        self.gwr += grp @ p + grq @ q
        self.gwi += grq @ p - grp @ q
        gvec = np.empty_like(vectors)
        gvec[:, 0::2] = grp[:, None] * self.wr[None, :] + grq[:, None] * self.wi[None, :]
        gvec[:, 1::2] = grq[:, None] * self.wr[None, :] - grp[:, None] * self.wi[None, :]
        return gvec


def center_field_average(stack: Tensor, window: int):
    """Mean field vector over the centered window x window patch, per channel.
    The center window maps to itself under quarter-turn rotations of the map,
    so the averaged vector inherits the field's covariance. Returns [N, 2C]."""
    n, h, w, c = stack.shape
    y0 = (h - window) // 2
    x0 = (w - window) // 2
    patch = stack[:, y0 : y0 + window, x0 : x0 + window, :]
    return patch.mean(axis=(1, 2)), (stack.shape, y0, x0, window)


def center_field_average_backward(cache, g: Tensor) -> Tensor:
    shape, y0, x0, window = cache
    out = np.zeros(shape, dtype=g.dtype)
    out[:, y0 : y0 + window, x0 : x0 + window, :] = (
        g[:, None, None, :] / (window * window)
    )
    return out
