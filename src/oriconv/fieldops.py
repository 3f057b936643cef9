"""Vector-field feature operations.

An RConv output holds, per canonical filter, one activation map per sampled
rotation. Orientation pooling (`orientation_pool_stack`) collapses those
rotation channels at every pixel into a single 2D vector whose magnitude is
the strongest (ReLU-gated) activation and whose angle is that rotation's
angle. It reads the responses as `tensor.conv2d` writes them, pixel planes
[..., C*n, H, W], and keeps the winning rotations and the ReLU gate in that
plane layout, [..., C, H, W]; from those two `orientation_pool_backward`
gives its adjoint without the pre-pool responses, channel-last like every
other gradient. The pool writes its (p, q) products plane-first, into
contiguous [..., C, 2, H*W] planes, and moves them channel-last with one
transposing copy; both directions read the (cos, sin) angle tables cast
once per dtype and cached read-only. Fields exist only as stacks: C fields
are one [..., H, W, 2C] array with plane 2c holding the horizontal (p) and
plane 2c+1 the vertical (q) component of field c, the interleaved layout
the vector-field RConv consumes. Leading axes are a batch; every pooling op treats each image as it
would on its own.
`split_stack` views the p and q planes; `np.hypot` and `np.arctan2` of them
are the magnitudes and angles.

Both pools find their winners, argmax's first maximum, with one
max-reduction and one rank pass (`tensor.first_max`).

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
    """Pool the rotation planes of [..., C*n, H, W] (`tensor.conv2d`'s
    output; plane c*n + r is filter c at rotation r) into a field stack
    [..., H, W, 2C].

    Per pixel and filter: r* = argmax over rotations (ties -> smallest r,
    NaN wins as in argmax), taken by `first_max` down the rotation axis of
    the [..., C, n, H*W] view, whose rows are contiguous pixels; magnitude =
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
    y4 = y.reshape(*lead, c, n_rotations, h * w)
    rho, winners = first_max(y4, -2)
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
    pre-pool gradient in the upstream's dtype, the upstream layout of
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
    """Shape-only part of `_window_index`, read-only: the flat index into a
    C-ordered [..., H, W, 2C] stack of each pooled field's p component at
    its window's origin, and the offset of window position k = a*w + b
    (row-major) from that origin."""
    *lead, h, wd, c2 = shape
    ho, wo = -(-h // w), -(-wd // w)
    k = np.arange(w * w)
    offset = (k // w * wd + k % w) * c2
    origin = (np.arange(ho)[:, None] * (w * wd) + np.arange(wo) * w)[..., None] * c2
    image = np.arange(math.prod(lead)).reshape(*lead, 1, 1, 1) * (h * wd * c2)
    base = image + (origin + np.arange(0, c2, 2))
    for a in (base, offset):
        a.flags.writeable = False
    return base, offset


def _window_index(shape, w: int, winners: Tensor) -> Tensor:
    """Flat index into a C-ordered [..., H, W, 2C] stack of the p component
    at each window's winner."""
    base, offset = _window_base(tuple(shape), w)
    return base + offset.take(winners)


def vf_max_pool(stack: Tensor, w: int):
    """Vector-field max pooling of [..., H, W, 2C]: per field, keep the
    entire (p, q) vector at the window position of largest magnitude
    (row-major first on ties), never a componentwise mix; ragged-edge padding
    never wins, and a window holding a NaN magnitude pools its first NaN
    vector. `first_max` over the w*w strided magnitude views, stacked on a
    new leading axis, finds the winners. Returns (pooled_stack, winners
    [..., H/w, W/w, C]), the winners of the smallest unsigned dtype holding
    w*w-1."""
    if w < 1:
        raise ShapeError(f"window must be >= 1, got {w}")
    mag = np.hypot(*split_stack(stack))
    *lead, h, wd, c = mag.shape
    if h % w or wd % w:
        pad = [(0, 0)] * len(lead) + [(0, (-h) % w), (0, (-wd) % w), (0, 0)]
        mag = np.pad(mag, pad, constant_values=-np.inf)
    views = [mag[..., a::w, b::w, :] for a in range(w) for b in range(w)]
    _, winners = first_max(np.stack(views), 0)
    index = _window_index(stack.shape, w, winners)
    flat = stack.ravel()
    pooled = np.empty(winners.shape[:-1] + (2 * c,), dtype=stack.dtype)
    pooled[..., 0::2] = flat[index]
    pooled[..., 1::2] = flat[index + 1]
    return pooled, winners


def vf_max_pool_backward(stack_shape, w: int, winners: Tensor, upstream: Tensor) -> Tensor:
    """Adjoint of `vf_max_pool`: both components of a field go to its winner."""
    index = _window_index(stack_shape, w, winners)
    grad = np.zeros(stack_shape, dtype=upstream.dtype)
    flat = grad.reshape(-1)
    flat[index] = upstream[..., 0::2]
    flat[index + 1] = upstream[..., 1::2]
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
    Returns (normalized, cache) where cache feeds `field_batch_norm_backward`.
    """
    if batch.ndim != 4 or batch.shape[-1] % 2 != 0:
        raise ShapeError(f"expected [N,H,W,2C] field batch, got {batch.shape}")
    p, q = split_stack(batch)
    if training:
        rho = np.hypot(p, q)
        var = _magnitude_variance(rho.astype(np.float64, copy=False))
        state.running_var = (
            state.momentum * state.running_var + (1.0 - state.momentum) * var
        )
    else:
        rho, var = None, state.running_var
    scale = 1.0 / np.sqrt(var + state.eps)
    scale = scale.astype(batch.dtype)
    out = np.empty_like(batch)
    out[..., 0::2] = p * scale
    out[..., 1::2] = q * scale
    cache = (batch, rho, var, scale, training, state.eps)
    return out, cache


def field_batch_norm_backward(cache, upstream: Tensor) -> Tensor:
    """Adjoint of `field_batch_norm`; in training mode the gradient flows
    through the batch variance as well as the direct scaling."""
    batch, rho, var, scale, training, eps = cache
    up_p, up_q = split_stack(upstream)
    p, q = split_stack(batch)
    grad = np.empty_like(batch)
    grad[..., 0::2] = up_p * scale
    grad[..., 1::2] = up_q * scale
    if not training:
        return grad

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
