"""Vector-field feature operations.

An RConv output holds, per canonical filter, one activation map per sampled
rotation. Orientation pooling (`orientation_pool_stack`) collapses those
rotation channels at every pixel into a single 2D vector whose magnitude is
the strongest (ReLU-gated) activation and whose angle is that rotation's
angle. It reads the responses as `tensor.conv2d` writes them against
`rconv.expand_rotations`, rotation-major pixel planes [..., n*C, H, W]
(plane r*C + c), and keeps the winning rotations and the ReLU gate in
plane layout, [..., C, H, W]; from those two `orientation_pool_backward`
gives its adjoint without the pre-pool responses, channel-last like every
other gradient and filter-major (channel c*n + r; `netblocks.RConvLayer`
says why the backward keeps that order). The pool writes its (p, q) products plane-first, into
contiguous [..., C, 2, H*W] planes, and moves them channel-last with one
transposing copy; both directions read the (cos, sin) angle tables cast
once per dtype and cached read-only. Fields exist only as stacks: C fields
are one [..., H, W, 2C] array with plane 2c holding the horizontal (p) and
plane 2c+1 the vertical (q) component of field c, the interleaved layout
the vector-field RConv consumes. Leading axes are a batch; every pooling op treats each image as it
would on its own.
`split_stack` views the p and q planes; `field_magnitudes` of a stack (the
bytes of `np.hypot`) and `np.arctan2` of its planes are the magnitudes and
angles.

Both pools find their winners, argmax's first maximum, with one
max-reduction and one rank pass (`tensor.first_max`) down a leading axis:
the rotation blocks of the planes, and the w*w window positions of the
vector-field pool's window-major magnitudes. That pool moves each (p, q)
pair as one complex value.

Also here: vector-field max pooling and the magnitude-only batch
normalization that rescales vectors by the standard deviation of their
lengths without touching their directions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .rconv import angle_table
from .tensor import Tensor, first_max, stable_sum


def split_stack(stack: Tensor):
    """Views of the p and q planes of an interleaved [..., 2C] field stack."""
    if stack.shape[-1] % 2 != 0:
        raise ShapeError(f"field stack needs an even channel count, got {stack.shape}")
    return stack[..., 0::2], stack[..., 1::2]


def rotate_stack_90(stack: Tensor, k: int = 1) -> Tensor:
    """Exact quarter-turn of a field stack [..., H, W, 2C], each image on its
    own: rotate the maps spatially and each vector with them
    ((p, q) -> (-q, p) per turn). Used by the covariance checks; every step
    is an index permutation or a sign flip, hence exact."""
    out = np.rot90(stack, k % 4, axes=(-3, -2)).copy()
    for _ in range(k % 4):
        p = out[..., 0::2].copy()
        q = out[..., 1::2].copy()
        out[..., 0::2] = -q
        out[..., 1::2] = p
    return out


def orientation_pool_stack(y: Tensor, n_rotations: int):
    """Pool the rotation planes of [..., n*C, H, W] (`tensor.conv2d`'s
    output against `rconv.expand_rotations`; plane r*C + c is filter c at
    rotation r) into a field stack [..., H, W, 2C].

    Per pixel and filter: r* = argmax over rotations (ties -> smallest r,
    NaN wins as in argmax), taken by `first_max` down the leading rotation
    axis of the [..., n, C, H*W] view, each of whose n blocks is C
    contiguous pixel planes; magnitude =
    ReLU of that activation, angle = 2*pi*r*/n. The (p, q) products go to
    contiguous [..., C, 2, H*W] planes, moved channel-last into the C-ordered
    stack with one transposing copy. Returns
    (stack, winners, gate), the last two in plane layout [..., C, H, W]:
    winners of the smallest unsigned dtype holding n-1 (uint8 for n <= 256)
    and the boolean ReLU gate, True where the winning activation is
    positive; the two are all the adjoint needs of y.
    """
    if y.ndim < 3 or y.shape[-3] % n_rotations != 0:
        raise ShapeError(
            f"rotation planes {y.shape} do not split into {n_rotations} rotations"
        )
    *lead, cn, h, w = y.shape
    c = cn // n_rotations
    y4 = y.reshape(*lead, n_rotations, c, h * w)
    rho, winners = first_max(y4, -3)
    # rho can differ from y[r*] only in the sign of a zero, which the ReLU drops
    gated = np.maximum(rho, 0)
    # p and q planes first, each product written to a contiguous H*W run;
    # np.take, not a fancy index: twice as fast on small-integer indices
    pq = np.empty((*lead, c, 2, h * w), dtype=y.dtype)
    for comp, table in enumerate(angle_table(n_rotations, y.dtype)):
        np.multiply(gated, table.take(winners), out=pq[..., comp, :])
    stack = np.ascontiguousarray(pq.reshape(*lead, 2 * c, h * w).swapaxes(-1, -2))
    planes = (*lead, c, h, w)
    stack = stack.reshape(*lead, h, w, 2 * c)
    return stack, winners.reshape(planes), (gated > 0).reshape(planes)


def orientation_pool_backward(
    winners: Tensor, gate: Tensor, n_rotations: int, upstream_stack: Tensor
) -> Tensor:
    """Adjoint of `orientation_pool_stack`, from its winners and gate
    ([..., C, H, W] planes) instead of the pre-pool responses: all gradient
    flows to the winning rotation channel, gated, along the fixed (cos, sin)
    direction. Returns the channel-last, filter-major [..., H, W, C*n]
    pre-pool gradient (channel c*n + r, not the forward's r*C + c) in the
    upstream's dtype, which `RConvLayer.backward` hands to
    `tensor.conv2d_backward`."""
    cos_t, sin_t = angle_table(n_rotations, upstream_stack.dtype)
    up_p, up_q = split_stack(upstream_stack)
    winners = np.ascontiguousarray(np.moveaxis(winners, -3, -1))
    gval = np.moveaxis(gate, -3, -1) * (cos_t.take(winners) * up_p + sin_t.take(winners) * up_q)
    grad = np.zeros(winners.size * n_rotations, dtype=upstream_stack.dtype)
    grad[np.arange(0, grad.size, n_rotations) + winners.ravel()] = gval.ravel()
    return grad.reshape(winners.shape[:-1] + (-1,))


@functools.lru_cache(maxsize=64)
def _window_base(shape, w: int):
    """Shape-only part of `_window_index`, read-only: the flat index into
    the (p, q) pairs [..., H, W, C] of a C-ordered [..., H, W, 2C] stack of
    each pooled field at its window's origin, and the offset of window
    position k = a*w + b (row-major) from that origin."""
    *lead, h, wd, c2 = shape
    c = c2 // 2
    ho, wo = -(-h // w), -(-wd // w)
    k = np.arange(w * w)
    offset = (k // w * wd + k % w) * c
    origin = (np.arange(ho)[:, None] * (w * wd) + np.arange(wo) * w)[..., None] * c
    image = np.arange(math.prod(lead)).reshape(*lead, 1, 1, 1) * (h * wd * c)
    base = image + (origin + np.arange(c))
    for a in (base, offset):
        a.flags.writeable = False
    return base, offset


def _window_index(shape, w: int, winners: Tensor) -> Tensor:
    """Flat index into the (p, q) pairs of a C-ordered [..., H, W, 2C]
    stack of each window's winner."""
    base, offset = _window_base(tuple(shape), w)
    return base + offset.take(winners)


def _pairs(stack: Tensor) -> Tensor:
    """The (p, q) pairs of a field stack [..., 2C] as one complex value
    each, [..., C]: a view of a C-ordered stack, so one index moves both
    components, bit for bit."""
    stack = np.ascontiguousarray(stack)
    return stack.view(np.result_type(stack.dtype, np.complex64))


def field_magnitudes(stack: Tensor) -> Tensor:
    """Vector lengths of a field stack [..., 2C] (interleaved (p, q) pairs,
    any strides), C-ordered [..., C], with the bytes of `np.hypot(p, q)`.

    In float32 that is float32(sqrt(float64(p)**2 + float64(q)**2)), the
    formula of glibc's `hypotf` since glibc 2.35 (on which numpy's float32
    `hypot` rests): the squares are exact in float64, and their sum, the
    root and the cast round once each. p and q are cast apart: one cast of
    the whole stack is faster but holds half as much again in float64
    temporaries. Where the formula gives NaN (an infinite component beside
    a NaN one, which `hypot` makes infinite) `np.hypot` recomputes the
    value, so inf and NaN come out as `np.hypot`'s. Other dtypes are
    `np.hypot` itself."""
    p, q = split_stack(stack)
    if stack.dtype != np.float32:
        return np.hypot(p, q, order="C")
    acc = p.astype(np.float64, order="C")
    np.multiply(acc, acc, out=acc)
    sq = q.astype(np.float64, order="C")
    np.multiply(sq, sq, out=sq)
    np.add(acc, sq, out=acc)
    np.sqrt(acc, out=acc)
    # a length beyond float32's range becomes inf, as hypotf returns it
    with np.errstate(over="ignore"):
        rho = acc.astype(np.float32)
    nan = np.isnan(rho)
    if nan.any():
        rho[nan] = np.hypot(p[nan], q[nan])
    return rho


def vf_max_pool(stack: Tensor, w: int):
    """Vector-field max pooling of [..., H, W, 2C]: per field, keep the
    entire (p, q) vector at the window position of largest magnitude
    (row-major first on ties), never a componentwise mix; ragged-edge padding
    never wins, and a window holding a NaN magnitude pools its first NaN
    vector.

    `field_magnitudes` reads one transposed view of the stack,
    [w, w, ..., H/w, W/w, 2C], so the magnitudes land window-major,
    [w*w, ..., H/w, W/w, C], and `first_max` takes the winners down that
    leading axis. A ragged stack is zero-padded to whole windows first and
    its padding's magnitudes set to -inf. The winning pairs are gathered
    with one index over the stack's complex view (`_pairs`). Returns
    (pooled_stack, winners [..., H/w, W/w, C]), the winners of the smallest
    unsigned dtype holding w*w-1."""
    if w < 1:
        raise ShapeError(f"window must be >= 1, got {w}")
    *lead, h, wd, c2 = stack.shape
    ho, wo = -(-h // w), -(-wd // w)
    src = stack
    if h % w or wd % w:
        pad = [(0, 0)] * len(lead) + [(0, ho * w - h), (0, wo * w - wd), (0, 0)]
        src = np.pad(stack, pad)
    d = len(lead)
    windows = src.reshape(*lead, ho, w, wo, w, c2).transpose(
        d + 1, d + 3, *range(d), d, d + 2, d + 4
    )
    mag = field_magnitudes(windows)
    if h % w:
        mag[h - (ho - 1) * w :, :, ..., -1, :, :] = -np.inf
    if wd % w:
        mag[:, wd - (wo - 1) * w :, ..., -1, :] = -np.inf
    _, winners = first_max(mag.reshape(w * w, *mag.shape[2:]), 0)
    index = _window_index(stack.shape, w, winners)
    pooled = _pairs(stack).reshape(-1)[index]
    return pooled.view(stack.dtype), winners


def vf_max_pool_backward(stack_shape, w: int, winners: Tensor, upstream: Tensor) -> Tensor:
    """Adjoint of `vf_max_pool`: both components of a field go to its
    winner, each pair scattered as one complex value."""
    index = _window_index(stack_shape, w, winners)
    grad = np.zeros(stack_shape, dtype=upstream.dtype)
    _pairs(grad).reshape(-1)[index] = _pairs(upstream)
    return grad


@dataclass
class VFBNState:
    """Running magnitude variance per field channel for inference-time use."""

    running_var: Tensor
    momentum: float = 0.9
    eps: float = 1e-5

    @classmethod
    def create(cls, channels: int, momentum: float = 0.9, eps: float = 1e-5):
        return cls(np.ones(channels, dtype=np.float64), momentum, eps)


def _magnitude_variance(rho: Tensor) -> Tensor:
    """Biased per-channel variance of magnitudes over batch x H x W, using
    permutation-stable sums in float64."""
    n = rho.shape[0] * rho.shape[1] * rho.shape[2]
    flat = rho.reshape(n, rho.shape[3])
    s1 = stable_sum(flat.T, axis=1)
    s2 = stable_sum((flat * flat).T, axis=1)
    mean = s1 / n
    return s2 / n - mean * mean


def field_batch_norm(batch: Tensor, state: VFBNState, training: bool):
    """Divide every vector by the standard deviation of magnitudes in its
    channel (no mean subtraction, no learned affine: directions carry the
    orientation information and are left untouched).

    batch: [N, H, W, 2C]. In training mode the batch variance is used and the
    running estimate updated; in eval mode the running estimate is used and
    no magnitudes are computed, since only the training backward reads them.
    Both scale the stack in one multiply, by each channel's scale repeated
    for its p and q planes. Returns (normalized, cache) where cache feeds
    `field_batch_norm_backward`.
    """
    if batch.ndim != 4 or batch.shape[-1] % 2 != 0:
        raise ShapeError(f"expected [N,H,W,2C] field batch, got {batch.shape}")
    if training:
        rho = field_magnitudes(batch)
        var = _magnitude_variance(rho.astype(np.float64, copy=False))
        state.running_var = (
            state.momentum * state.running_var + (1.0 - state.momentum) * var
        )
    else:
        rho, var = None, state.running_var
    scale = 1.0 / np.sqrt(var + state.eps)
    scale = scale.astype(batch.dtype)
    out = batch * np.repeat(scale, 2)
    cache = (batch, rho, var, scale, training, state.eps)
    return out, cache


def field_batch_norm_backward(cache, upstream: Tensor) -> Tensor:
    """Adjoint of `field_batch_norm`; in training mode the gradient flows
    through the batch variance as well as the direct scaling."""
    batch, rho, var, scale, training, eps = cache
    grad = np.multiply(upstream, np.repeat(scale, 2), out=np.empty_like(batch))
    if not training:
        return grad
    up_p, up_q = split_stack(upstream)
    p, q = split_stack(batch)

    n = batch.shape[0] * batch.shape[1] * batch.shape[2]
    inv_rho = np.where(rho > 0, 1.0 / np.maximum(rho, 1e-30), 0.0)
    mean = np.mean(rho.astype(np.float64), axis=(0, 1, 2))
    s_dot = np.sum((up_p * p + up_q * q).astype(np.float64), axis=(0, 1, 2))
    dvar = -0.5 * s_dot * np.power(var + eps, -1.5)
    coeff = dvar * (2.0 / n)
    drho = coeff[None, None, None, :] * (rho - mean[None, None, None, :])
    grad[..., 0::2] += (drho * inv_rho * p).astype(batch.dtype)
    grad[..., 1::2] += (drho * inv_rho * q).astype(batch.dtype)
    return grad
