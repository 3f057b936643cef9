"""Dense-array primitives: 2D convolution, grid rotation, and gradient checking.

Values are plain numpy arrays in channel-last layout ([H, W, C] images,
[m, m, Cin, Cout] filters). float32 is the working precision; float64 is the
verification precision. In float64 every reduction in `conv2d`, `stable_sum`
and friends is carried out in a value-sorted order, which makes the result
invariant under permutations of the summands. That property is what turns the
90-degree covariance identities elsewhere in the package into bit-exact
equalities instead of up-to-rounding ones.

Angle convention (used package-wide): angles are in radians and rotate content
counterclockwise as displayed, i.e. with row 0 at the top a quarter turn moves
the top edge to the left edge, matching ``np.rot90``. In (x=col, y=row)
coordinates, where y grows downward, this appears as a clockwise rotation of
the axes; it is documented here once and never re-derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ShapeError

Tensor = np.ndarray

TWO_PI = 2.0 * math.pi

# Chunk length (output pixels) for the sorted-product accumulation path.
_SORT_CHUNK = 2048


def check_finite(a: Tensor, what: str = "array") -> Tensor:
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"non-finite values in {what}")
    return a


def stable_sum(a: Tensor, axis: int) -> Tensor:
    """Sum along `axis`; in float64, sort first so any permutation of the
    summands yields the bit-identical result."""
    if a.dtype == np.float64:
        return np.sort(a, axis=axis).sum(axis=axis)
    return a.sum(axis=axis)


@dataclass(frozen=True)
class GridSampleSpec:
    """Rotation resampling parameters: counterclockwise angle about the grid
    center, bilinear interpolation, constant fill outside the support."""

    angle: float
    fill: float = 0.0

    def __post_init__(self):
        a = float(self.angle) % TWO_PI
        object.__setattr__(self, "angle", a)


def _out_extent(size: int, m: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - m) // stride + 1


def _conv_geometry(x: Tensor, f: Tensor, stride: int, padding: int):
    if x.ndim != 3:
        raise ShapeError(f"conv2d input must be [H,W,Cin], got shape {x.shape}")
    if f.ndim != 4:
        raise ShapeError(f"conv2d filter must be [m,m,Cin,Cout], got shape {f.shape}")
    m, n, cin_f, cout = f.shape
    if m != n:
        raise ShapeError(f"filter must be square, got {m}x{n}")
    if m % 2 != 1:
        raise ShapeError(f"filter size must be odd, got {m}")
    h, w, cin = x.shape
    if cin != cin_f:
        raise ShapeError(
            f"channel mismatch: input has {cin} channels, filter expects {cin_f} "
            f"(input {x.shape}, filter {f.shape})"
        )
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    ho = _out_extent(h, m, stride, padding)
    wo = _out_extent(w, m, stride, padding)
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"empty output: input {h}x{w}, filter {m}, stride {stride}, padding {padding}"
        )
    return m, cin, cout, ho, wo


def _im2col(x: Tensor, m: int, stride: int, padding: int) -> Tensor:
    """Extract sliding windows as rows ordered (ky, kx, cin), row-major."""
    if padding:
        x = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(x, (m, m), axis=(0, 1))
    win = win[::stride, ::stride]  # [Ho, Wo, Cin, m, m]
    ho, wo = win.shape[:2]
    cols = win.transpose(0, 1, 3, 4, 2).reshape(ho * wo, m * m * x.shape[2])
    return np.ascontiguousarray(cols)


def conv2d(x: Tensor, f: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation (no kernel flip) of [H,W,Cin] with [m,m,Cin,Cout].

    Output [Ho,Wo,Cout] with Ho = (H + 2*padding - m)//stride + 1. In float64
    the per-pixel accumulation is permutation-invariant (see module docstring).
    """
    m, cin, cout, ho, wo = _conv_geometry(x, f, stride, padding)
    cols = _im2col(x, m, stride, padding)
    w2 = f.reshape(m * m * cin, cout)
    if x.dtype == np.float64 or f.dtype == np.float64:
        cols = cols.astype(np.float64, copy=False)
        w2 = w2.astype(np.float64, copy=False)
        out = np.empty((cols.shape[0], cout), dtype=np.float64)
        for lo in range(0, cols.shape[0], _SORT_CHUNK):
            hi = min(lo + _SORT_CHUNK, cols.shape[0])
            prod = cols[lo:hi, :, None] * w2[None, :, :]
            out[lo:hi] = stable_sum(prod, axis=1)
    else:
        out = cols @ w2
    y = out.reshape(ho, wo, cout)
    return check_finite(y, "conv2d output")


def conv2d_backward(
    x: Tensor, f: Tensor, upstream: Tensor, stride: int = 1, padding: int = 0
):
    """Adjoint of `conv2d`: gradients of sum(upstream * conv2d(x, f)).

    Returns (grad_input, grad_filter).
    """
    m, cin, cout, ho, wo = _conv_geometry(x, f, stride, padding)
    if upstream.shape != (ho, wo, cout):
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match conv output {(ho, wo, cout)}"
        )
    h, w, _ = x.shape
    cols = _im2col(x, m, stride, padding)
    up2 = upstream.reshape(ho * wo, cout)

    gw2 = cols.T @ up2
    grad_filter = gw2.reshape(m, m, cin, cout)

    # Scatter the per-window gradients back onto the (padded) input.
    gcols = up2 @ f.reshape(m * m * cin, cout).T  # [P, m*m*cin]
    gcols = gcols.reshape(ho, wo, m, m, cin)
    gx_pad = np.zeros((h + 2 * padding, w + 2 * padding, cin), dtype=gcols.dtype)
    for ky in range(m):
        for kx in range(m):
            gx_pad[ky : ky + ho * stride : stride, kx : kx + wo * stride : stride] += (
                gcols[:, :, ky, kx, :]
            )
    if padding:
        gx = gx_pad[padding : padding + h, padding : padding + w]
    else:
        gx = gx_pad
    return np.ascontiguousarray(gx), grad_filter


def _quarter_turns(angle: float, tol: float = 1e-12):
    """Return k in 0..3 if `angle` is within `tol` of k * pi/2, else None."""
    k = int(round(angle / (0.5 * math.pi)))
    if abs(angle - k * 0.5 * math.pi) <= tol:
        return k % 4
    return None


def _rotation_taps(m: int, angle: float):
    """Bilinear taps for sampling a rotated m-by-m grid.

    Returns (idx0, idx1, idx2, idx3, w0, w1, w2, w3) where each idx is a flat
    index into the source grid (clipped) and each w already includes the
    in-bounds mask, so out-of-support taps have weight zero.
    """
    c = 0.5 * (m - 1)
    rows, cols = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    xo = cols - c
    yo = c - rows  # y up
    ca, sa = math.cos(angle), math.sin(angle)
    xs = xo * ca + yo * sa
    ys = yo * ca - xo * sa
    src_col = xs + c
    src_row = c - ys

    r0 = np.floor(src_row).astype(np.int64)
    c0 = np.floor(src_col).astype(np.int64)
    dr = src_row - r0
    dc = src_col - c0

    weights = []
    indices = []
    for (ro, co, wgt) in (
        (r0, c0, (1 - dr) * (1 - dc)),
        (r0, c0 + 1, (1 - dr) * dc),
        (r0 + 1, c0, dr * (1 - dc)),
        (r0 + 1, c0 + 1, dr * dc),
    ):
        valid = (ro >= 0) & (ro < m) & (co >= 0) & (co < m)
        flat = np.clip(ro, 0, m - 1) * m + np.clip(co, 0, m - 1)
        indices.append(flat.ravel())
        weights.append((wgt * valid).ravel())
    return indices, weights


def rotate_grid(src: Tensor, spec: GridSampleSpec) -> Tensor:
    """Rotate a square [m, m, ...] grid counterclockwise by spec.angle about
    its center, bilinear resampling, fill outside the support.

    Exact multiples of 90 degrees take a pure index-permutation path
    (``np.rot90``) and are bit-exact.
    """
    if src.ndim < 2 or src.shape[0] != src.shape[1]:
        raise ShapeError(f"rotate_grid needs a square leading grid, got {src.shape}")
    m = src.shape[0]
    k = _quarter_turns(spec.angle)
    if k is not None:
        return np.rot90(src, k).copy()

    trailing = src.shape[2:]
    flat = src.reshape(m * m, -1)
    indices, weights = _rotation_taps(m, spec.angle)
    out = np.zeros_like(flat)
    covered = np.zeros(m * m, dtype=flat.dtype)
    for idx, wgt in zip(indices, weights):
        out += flat[idx] * wgt[:, None].astype(flat.dtype)
        covered += wgt.astype(flat.dtype)
    if spec.fill != 0.0:
        out += (1.0 - covered)[:, None] * spec.fill
    return out.reshape((m, m) + trailing)


def rotate_grid_adjoint(grad: Tensor, spec: GridSampleSpec) -> Tensor:
    """Transpose of the linear map `rotate_grid(., spec)` applied to `grad`.

    For quarter-turn angles this coincides with rotation by -angle; for other
    angles it is the scatter (gather-transpose) of the bilinear taps, which is
    the map a gradient check against `rotate_grid` requires.
    """
    if grad.ndim < 2 or grad.shape[0] != grad.shape[1]:
        raise ShapeError(f"rotate_grid_adjoint needs a square grid, got {grad.shape}")
    m = grad.shape[0]
    k = _quarter_turns(spec.angle)
    if k is not None:
        return np.rot90(grad, -k).copy()

    trailing = grad.shape[2:]
    flat = grad.reshape(m * m, -1)
    indices, weights = _rotation_taps(m, spec.angle)
    out = np.zeros_like(flat)
    for idx, wgt in zip(indices, weights):
        np.add.at(out, idx, flat * wgt[:, None].astype(flat.dtype))
    return out.reshape((m, m) + trailing)


def finite_diff_check(
    loss_fn, params: Tensor, analytic_grad: Tensor, step: float = 1e-3
) -> float:
    """Max relative error between central finite differences of `loss_fn`
    and `analytic_grad`, elementwise over `params` (float64 only)."""
    if params.dtype != np.float64:
        raise ValueError("finite_diff_check requires float64 parameters")
    if analytic_grad.shape != params.shape:
        raise ShapeError(
            f"gradient shape {analytic_grad.shape} != params shape {params.shape}"
        )
    worst = 0.0
    p = params.copy()
    flat = p.ravel()
    gflat = np.asarray(analytic_grad, dtype=np.float64).ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        lp = float(loss_fn(p))
        flat[i] = orig - step
        lm = float(loss_fn(p))
        flat[i] = orig
        if not (math.isfinite(lp) and math.isfinite(lm)):
            raise NumericalError("non-finite loss during finite-difference check")
        fd = (lp - lm) / (2.0 * step)
        an = gflat[i]
        err = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
        worst = max(worst, err)
    return worst
