"""Vector-field feature operations.

An RConv output holds, per canonical filter, one activation map per sampled
rotation. Orientation pooling (`orientation_pool_stack`) collapses those
rotation channels at every pixel into a single 2D vector whose magnitude is
the strongest (ReLU-gated) activation and whose angle is that rotation's
angle; `orientation_pool_gate` and `orientation_pool_backward` give its
adjoint. Fields exist only as stacks: C fields are one [..., H, W, 2C] array
with plane 2c holding the horizontal (p) and plane 2c+1 the vertical (q)
component of field c, the interleaved layout the vector-field RConv consumes.
Leading axes are a batch; every pooling op treats each image as it would on
its own.
`split_stack` views the p and q planes; `np.hypot` and `np.arctan2` of them
are the magnitudes and angles.

Also here: vector-field max pooling and the magnitude-only batch
normalization that rescales vectors by the standard deviation of their
lengths without touching their directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .rconv import angle_table
from .tensor import Tensor, stable_sum


def split_stack(stack: Tensor):
    """Views of the p and q planes of an interleaved [..., 2C] field stack."""
    if stack.shape[-1] % 2 != 0:
        raise ShapeError(f"field stack needs an even channel count, got {stack.shape}")
    return stack[..., 0::2], stack[..., 1::2]


def rotate_stack_90(stack: Tensor, k: int = 1) -> Tensor:
    """Exact quarter-turn of a field stack: rotate the maps spatially and each
    vector with them ((p, q) -> (-q, p) per turn). Used by the covariance
    checks; every step is an index permutation or a sign flip, hence exact."""
    out = np.rot90(stack, k % 4, axes=(0, 1)).copy()
    for _ in range(k % 4):
        p = out[..., 0::2].copy()
        q = out[..., 1::2].copy()
        out[..., 0::2] = -q
        out[..., 1::2] = p
    return out


def orientation_pool_stack(y: Tensor, n_rotations: int):
    """Pool rotation channels of [..., H, W, C*n] into a field stack
    [..., H, W, 2C].

    Per pixel and filter: r* = argmax over rotation channels (ties -> smallest
    r), magnitude = ReLU of that activation, angle = 2*pi*r*/n. Returns
    (stack, winners) where winners [..., H, W, C] feeds the backward pass.
    """
    if y.shape[-1] % n_rotations != 0:
        raise ShapeError(
            f"channel count {y.shape[-1]} not divisible by rotations {n_rotations}"
        )
    c = y.shape[-1] // n_rotations
    y4 = y.reshape(y.shape[:-1] + (c, n_rotations))
    winners = np.argmax(y4, axis=-1)  # first max wins ties
    rho = np.take_along_axis(y4, winners[..., None], axis=-1)[..., 0]
    gated = np.maximum(rho, 0)
    cos_t, sin_t = angle_table(n_rotations)
    cos_w = cos_t[winners].astype(y.dtype)
    sin_w = sin_t[winners].astype(y.dtype)
    stack = np.empty(y.shape[:-1] + (2 * c,), dtype=y.dtype)
    stack[..., 0::2] = gated * cos_w
    stack[..., 1::2] = gated * sin_w
    return stack, winners


def orientation_pool_gate(y: Tensor, n_rotations: int, winners: Tensor) -> Tensor:
    """The ReLU gate of `orientation_pool_stack`: boolean [..., H, W, C],
    True where the winning rotation channel's activation is positive. With
    the winners it is all the pooling's adjoint needs of y."""
    y4 = y.reshape(winners.shape + (n_rotations,))
    return np.take_along_axis(y4, winners[..., None], axis=-1)[..., 0] > 0


def orientation_pool_backward(
    winners: Tensor, gate: Tensor, n_rotations: int, upstream_stack: Tensor
) -> Tensor:
    """Adjoint of `orientation_pool_stack`, from its winners [..., H, W, C]
    and its ReLU gate (`orientation_pool_gate`) instead of the pre-pool
    responses: all gradient flows to the winning rotation channel, gated,
    along the fixed (cos, sin) direction. Returns the [..., H, W, C*n]
    pre-pool gradient in the upstream's dtype."""
    dtype = upstream_stack.dtype
    cos_t, sin_t = angle_table(n_rotations)
    up_p = upstream_stack[..., 0::2]
    up_q = upstream_stack[..., 1::2]
    gval = gate * (
        cos_t[winners].astype(dtype) * up_p + sin_t[winners].astype(dtype) * up_q
    )
    grad4 = np.zeros(winners.shape + (n_rotations,), dtype=dtype)
    np.put_along_axis(grad4, winners[..., None], gval[..., None], axis=-1)
    return grad4.reshape(winners.shape[:-1] + (-1,))


def _tiles(x: Tensor, w: int, fill: float) -> Tensor:
    """[..., H, W, C] as non-overlapping w-by-w windows
    [..., H/w, W/w, C, w*w], row-major within a window; ragged edges are
    padded with `fill`."""
    *lead, h, wd, c = x.shape
    d = len(lead)
    if h % w or wd % w:
        pad = [(0, 0)] * d + [(0, (-h) % w), (0, (-wd) % w), (0, 0)]
        x = np.pad(x, pad, constant_values=fill)
        h, wd = x.shape[d : d + 2]
    tiles = x.reshape(*lead, h // w, w, wd // w, w, c)
    tiles = tiles.transpose(*range(d), d, d + 2, d + 4, d + 1, d + 3)
    return tiles.reshape(*lead, h // w, wd // w, c, w * w)


def vf_max_pool(stack: Tensor, w: int):
    """Vector-field max pooling of [..., H, W, 2C]: per field, keep the
    entire (p, q) vector at the window position of largest magnitude
    (row-major first on ties), never a componentwise mix; ragged-edge padding
    never wins. Returns (pooled_stack, winners [..., H/w, W/w, C])."""
    if w < 1:
        raise ShapeError(f"window must be >= 1, got {w}")
    winners = np.argmax(_tiles(np.hypot(*split_stack(stack)), w, -np.inf), axis=-1)
    both = np.repeat(winners, 2, axis=-1)[..., None]
    pooled = np.take_along_axis(_tiles(stack, w, 0.0), both, axis=-1)[..., 0]
    return np.ascontiguousarray(pooled), winners


def vf_max_pool_backward(stack_shape, w: int, winners: Tensor, upstream: Tensor) -> Tensor:
    """Adjoint of `vf_max_pool`: both components of a field go to its winner."""
    *lead, h, wd, c = stack_shape
    d = len(lead)
    hp, wp = h + ((-h) % w), wd + ((-wd) % w)
    flat = np.zeros((*lead, hp // w, wp // w, c, w * w), dtype=upstream.dtype)
    both = np.repeat(winners, 2, axis=-1)[..., None]
    np.put_along_axis(flat, both, upstream[..., None], axis=-1)
    tiles = flat.reshape(*lead, hp // w, wp // w, c, w, w)
    tiles = tiles.transpose(*range(d), d, d + 3, d + 1, d + 4, d + 2)
    return tiles.reshape(*lead, hp, wp, c)[..., :h, :wd, :]


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
    running estimate updated; in eval mode the running estimate is used.
    Returns (normalized, cache) where cache feeds `field_batch_norm_backward`.
    """
    if batch.ndim != 4 or batch.shape[-1] % 2 != 0:
        raise ShapeError(f"expected [N,H,W,2C] field batch, got {batch.shape}")
    p, q = split_stack(batch)
    rho = np.hypot(p, q)
    if training:
        var = _magnitude_variance(rho.astype(np.float64, copy=False))
        state.running_var = (
            state.momentum * state.running_var + (1.0 - state.momentum) * var
        )
    else:
        var = state.running_var
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
