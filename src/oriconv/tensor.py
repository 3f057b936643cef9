"""Dense-array primitives: 2D convolution, grid rotation, the first-max
reduction, and gradient checking.

Values are plain numpy arrays in channel-last layout ([..., H, W, C] images
with any leading batch axes, [m, m, Cin, Cout] filters). The convolution
(`conv2d` and its adjoints) is the only one the package needs: same padding
(m // 2), stride 1, batched, one GEMM per image. All three read one column
layout, K-major [..., m*m*Cin, H*W] (`_im2col`: one row per filter tap and
input channel, each a contiguous run over the output pixels). Its one
exception to the channel-last layout is `conv2d`'s output, which comes as
pixel planes [..., Cout, H, W], the layout the orientation pool reads; an
RConv filter's output channels are rotation-major (r*C + c, see `rconv`),
so the pool reduces a leading axis of whole plane blocks. An RConv layer
hands the adjoints its filter and upstream filter-major (c*n + r) instead
(`netblocks.RConvLayer`): the forward GEMM's rows and the filter-gradient
GEMM's columns permute without changing a byte, but the input-gradient
GEMM sums over output channels, and its bytes depend on their order. On
every layer shape the networks run, each GEMM gives the bytes of its
channel-last counterpart (tests/test_batch_equivalence.py). float32 is the
working precision; float64 is the verification precision. In float64 every
reduction in `conv2d`, `stable_sum` and friends is carried out in a
value-sorted order, which makes the result invariant under permutations of
the summands. That property is what turns the 90-degree covariance identities
elsewhere in the package into bit-exact equalities instead of up-to-rounding
ones. A conv output that overflows raises `NumericalError` (no numpy warning).

`rotate_grid` and `rotate_grid_adjoint` are the package's only rotation
resampler (RConv expansion calls them once per base angle other than 0);
the bilinear taps of each (m, angle) are computed once and kept, read-only,
as one stacked [4, m*m] table in a bounded cache, so either direction is a
fixed number of array calls: one gather or one scatter over all four taps.

`first_max` is argmax's first maximum and the maximum itself in a fixed
number of calls; both field pools and the detector's class choice use it.

Angle convention (used package-wide): angles are in radians and rotate content
counterclockwise as displayed, i.e. with row 0 at the top a quarter turn moves
the top edge to the left edge, matching ``np.rot90``. In (x=col, y=row)
coordinates, where y grows downward, this appears as a clockwise rotation of
the axes; it is documented here once and never re-derived.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericalError, ShapeError

Tensor = np.ndarray

TWO_PI = 2.0 * math.pi

# Chunk length (output pixels) for the sorted-product accumulation path.
_SORT_CHUNK = 2048


def check_finite(a: Tensor, what: str = "array") -> Tensor:
    if not np.isfinite(a).all():
        raise NumericalError(f"non-finite values in {what}")
    return a


def stable_sum(a: Tensor, axis: int) -> Tensor:
    """Sum along `axis`; in float64, sort first so any permutation of the
    summands yields the bit-identical result."""
    if a.dtype == np.float64:
        return np.sort(a, axis=axis).sum(axis=axis)
    return a.sum(axis=axis)


@functools.lru_cache(maxsize=64)
def _countdown(n: int, ndim: int, axis: int) -> Tensor:
    """Read-only n-1, n-2, ..., 0 along `axis` of an ndim-dimensional
    broadcast shape, in the smallest unsigned dtype holding n-1: the score
    `first_max` gives a maximum at rank 0, 1, ..., n-1."""
    shape = [1] * ndim
    shape[axis] = n
    countdown = np.arange(n - 1, -1, -1, dtype=np.min_scalar_type(n - 1)).reshape(shape)
    countdown.flags.writeable = False
    return countdown


def first_max(a: Tensor, axis: int):
    """Max of `a` over `axis` and the winner, the smallest rank (index along
    `axis`) holding it, both without that axis; the winners come in the
    smallest unsigned dtype holding the largest rank.

    A fixed number of calls, whatever the axis length: one max-reduction,
    then the hits `np.equal(a, best)` as uint8, scaled in place by
    `_countdown`, one max over `axis` and n-1 minus that. NaN counts as the
    max, as in argmax: a NaN in `a` makes that max NaN and its winner the
    first NaN's rank, never a rank no NaN holds (such as a ragged window's
    padding)."""
    best = a.max(axis=axis, keepdims=True)
    countdown = _countdown(a.shape[axis], a.ndim, axis)
    score = np.equal(a, best).view(np.uint8)
    narrow = countdown.dtype == np.uint8
    score = np.multiply(score, countdown, out=score if narrow else None)
    winners = score.max(axis=axis)
    np.subtract(countdown.dtype.type(a.shape[axis] - 1), winners, out=winners)
    nan = np.isnan(best)
    if nan.any():  # no rank equals a NaN max: take the first NaN
        first = np.isnan(a).argmax(axis=axis, keepdims=True)
        np.copyto(winners, first.squeeze(axis), where=nan.squeeze(axis), casting="unsafe")
    return best.squeeze(axis), winners


def _conv_geometry(x: Tensor, f: Tensor, upstream: Tensor | None = None):
    if x.ndim < 3:
        raise ShapeError(f"conv2d input must be [..., H, W, Cin], got shape {x.shape}")
    if f.ndim != 4:
        raise ShapeError(f"conv2d filter must be [m,m,Cin,Cout], got shape {f.shape}")
    m, n, cin, cout = f.shape
    if m != n:
        raise ShapeError(f"filter must be square, got {m}x{n}")
    if m % 2 != 1:
        raise ShapeError(f"filter size must be odd, got {m}")
    if x.shape[-1] != cin:
        raise ShapeError(
            f"channel mismatch: input has {x.shape[-1]} channels, filter expects {cin} "
            f"(input {x.shape}, filter {f.shape})"
        )
    if upstream is not None and upstream.shape != x.shape[:-1] + (cout,):
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match conv output "
            f"{x.shape[:-1] + (cout,)}"
        )
    return m, cin, cout


def _im2col(x: Tensor, m: int) -> Tensor:
    """Same-padded sliding windows of [..., H, W, Cin] as K-major columns
    [..., m*m*Cin, H*W]: row (ky*m + kx)*Cin + cin holds that filter tap's
    input over every output pixel, one contiguous H*W run. A 1x1 filter's
    columns are the input itself (a transposed view of a C-ordered x);
    larger filters take their windows from the zero-padded input with one
    strided copy."""
    *lead, h, w, cin = x.shape
    if m == 1:
        return x.reshape(*lead, h * w, cin).swapaxes(-1, -2)
    p = m // 2
    padded = np.zeros((*lead, h + 2 * p, w + 2 * p, cin), dtype=x.dtype)
    padded[..., p : p + h, p : p + w, :] = x
    *lead_strides, sh, sw, sc = padded.strides
    # the window view, built directly: `as_strided` takes longer than the
    # copy on the smallest layers
    win = np.ndarray(
        (*lead, m, m, cin, h, w), x.dtype, padded, 0, (*lead_strides, sh, sw, sc, sh, sw)
    )
    return win.reshape(*lead, m * m * cin, h * w)


def conv2d(x: Tensor, f: Tensor) -> Tensor:
    """Same-padded (m // 2), stride-1 cross-correlation (no kernel flip) of
    [..., H, W, Cin] with [m, m, Cin, Cout]; returns C-ordered pixel planes
    [..., Cout, H, W], each output channel one contiguous H*W plane.

    Each image is one GEMM of its own, f2^T @ cols with f2 the filter as
    [m*m*Cin, Cout] rows (filter-major columns, as stored) and cols the
    image's K-major [m*m*Cin, H*W] columns (`_im2col`), so its bytes do not
    depend on the batch it came in. Every output is the dot product the
    channel-last cols^T @ f2 would compute, and OpenBLAS accumulates it in
    the same order whichever operand comes first or is transposed, so the
    planes hold the bytes of the channel-last product transposed;
    tests/test_batch_equivalence.py pins that for every layer shape the
    networks run. In float64 the per-pixel accumulation is
    permutation-invariant (see module docstring) and its result is written
    in the same layout.

    The adjoints (`conv2d_backward`, `conv2d_filter_grad`) read the same
    columns and take the upstream gradient channel-last, [..., H, W, Cout].
    """
    m, cin, cout = _conv_geometry(x, f)
    *lead, h, w, _ = x.shape
    cols = _im2col(x, m)
    w2 = f.reshape(m * m * cin, cout)
    # an overflow is reported by check_finite below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if x.dtype == np.float64 or f.dtype == np.float64:
            rows = cols.swapaxes(-1, -2).reshape(-1, cols.shape[-2]).astype(np.float64, copy=False)
            w2 = w2.astype(np.float64, copy=False)
            out = np.empty((rows.shape[0], cout), dtype=np.float64)
            for lo in range(0, rows.shape[0], _SORT_CHUNK):
                hi = min(lo + _SORT_CHUNK, rows.shape[0])
                prod = rows[lo:hi, :, None] * w2[None, :, :]
                out[lo:hi] = stable_sum(prod, axis=1)
            out = np.ascontiguousarray(out.reshape(*lead, h * w, cout).swapaxes(-1, -2))
        else:
            out = np.matmul(w2.T, cols)
    y = out.reshape(*lead, cout, h, w)
    return check_finite(y, "conv2d output")


def conv2d_filter_grad(x: Tensor, f: Tensor, upstream: Tensor) -> Tensor:
    """Filter half of `conv2d_backward`: the gradient with respect to f of
    the sum of upstream [..., H, W, Cout] times the conv output, per image
    ([..., m, m, Cin, Cout]), for callers that need no input gradient (a
    layer fed by the network input).

    One GEMM per image, cols @ up over `conv2d`'s K-major columns. With
    OpenBLAS 0.3.31 (Haswell kernels) it has the bytes of the channel-last
    cols^T @ up on every layer of the default networks, whatever the thread
    count, but not on narrow outputs (Cout in {2, 3, 4, 6, 8, 24} in
    float32, {2, 3, 4, 12} in float64), such as an n_rotations=1 network's
    layers, where the two round differently. (up^T @ cols^T)^T keeps those
    bytes too, but its float64 result depends on the BLAS thread count."""
    m, cin, cout = _conv_geometry(x, f, upstream)
    cols = _im2col(x, m)
    up = upstream.reshape(x.shape[:-3] + (cols.shape[-1], cout))
    return np.matmul(cols, up).reshape(x.shape[:-3] + f.shape)


def conv2d_backward(x: Tensor, f: Tensor, upstream: Tensor):
    """Adjoint of `conv2d`: gradients of the sum of upstream [..., H, W, Cout]
    (channel-last, unlike `conv2d`'s planes) times the conv output.

    Returns (grad_input [..., H, W, Cin], grad_filter [..., m, m, Cin, Cout]),
    the filter gradient per image. Each half is one GEMM per image, as in
    `conv2d`: the batch is never concatenated into a GEMM's rows, which would
    change the input gradient's bytes (1x1 filters at 8x8x16 show it). The
    input half, f2 @ up^T, gives K-major window gradients [m*m*Cin, H*W]
    (the bytes of the channel-last up @ f2^T, transposed); they are added
    tap by tap, in (ky, kx) order, onto planar padded input planes
    [..., Cin, H + 2p, W + 2p], which are moved channel-last once.
    """
    grad_filter = conv2d_filter_grad(x, f, upstream)
    m, _, cin, cout = f.shape
    *lead, h, w, _ = x.shape
    up = upstream.reshape(*lead, h * w, cout)
    gcols = np.matmul(f.reshape(m * m * cin, cout), up.swapaxes(-1, -2))
    gcols = gcols.reshape(*lead, m, m, cin, h, w)
    p = m // 2
    gx_pad = np.zeros((*lead, cin, h + 2 * p, w + 2 * p), dtype=gcols.dtype)
    for ky in range(m):
        for kx in range(m):
            gx_pad[..., ky : ky + h, kx : kx + w] += gcols[..., ky, kx, :, :, :]
    gx = np.moveaxis(gx_pad[..., p : p + h, p : p + w], -3, -1)
    return np.ascontiguousarray(gx), grad_filter


def _quarter_turns(angle: float, tol: float = 1e-12):
    """Return k in 0..3 if `angle` is within `tol` of k * pi/2, else None."""
    k = int(round(angle / (0.5 * math.pi)))
    if abs(angle - k * 0.5 * math.pi) <= tol:
        return k % 4
    return None


@functools.lru_cache(maxsize=64)
def _rotation_taps(m: int, angle: float):
    """Bilinear taps for sampling a rotated m-by-m grid; cached per
    (m, angle) and read-only.

    Returns (indices, weights), each a [4, m*m] array with one row per tap
    (top-left, top-right, bottom-left, bottom-right): indices[t] holds flat
    indices into the source grid (clipped), and weights[t] (float64) already
    includes the in-bounds mask, so out-of-support taps have weight zero.
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

    indices = np.empty((4, m * m), dtype=np.int64)
    weights = np.empty((4, m * m), dtype=np.float64)
    for t, (ro, co, wgt) in enumerate((
        (r0, c0, (1 - dr) * (1 - dc)),
        (r0, c0 + 1, (1 - dr) * dc),
        (r0 + 1, c0, dr * (1 - dc)),
        (r0 + 1, c0 + 1, dr * dc),
    )):
        valid = (ro >= 0) & (ro < m) & (co >= 0) & (co < m)
        indices[t] = (np.clip(ro, 0, m - 1) * m + np.clip(co, 0, m - 1)).ravel()
        weights[t] = (wgt * valid).ravel()
    indices.flags.writeable = False
    weights.flags.writeable = False
    return indices, weights


def rotate_grid(src: Tensor, angle: float) -> Tensor:
    """Rotate a square [m, m, ...] grid counterclockwise by `angle` about its
    center, bilinear resampling, zero outside the support.

    The angle is taken modulo 2*pi first, so -pi/4 and 7*pi/4 sample the same
    taps. Exact multiples of 90 degrees take a pure index-permutation path
    (``np.rot90``) and are bit-exact. Other angles gather all four taps at
    once and add the weighted terms onto zeros in tap order.
    """
    if src.ndim < 2 or src.shape[0] != src.shape[1]:
        raise ShapeError(f"rotate_grid needs a square leading grid, got {src.shape}")
    m = src.shape[0]
    angle = float(angle) % TWO_PI
    k = _quarter_turns(angle)
    if k is not None:
        return np.rot90(src, k).copy()

    trailing = src.shape[2:]
    flat = src.reshape(m * m, -1)
    indices, weights = _rotation_taps(m, angle)
    terms = flat[indices]  # [4, m*m, cols]
    terms *= weights.astype(flat.dtype, copy=False)[:, :, None]
    out = np.zeros_like(flat)
    for term in terms:
        out += term
    return out.reshape((m, m) + trailing)


def rotate_grid_adjoint(grad: Tensor, angle: float) -> Tensor:
    """Transpose of the linear map `rotate_grid(., angle)` applied to `grad`.

    For quarter-turn angles this coincides with rotation by -angle; for other
    angles it is the scatter (gather-transpose) of the bilinear taps, which is
    the map a gradient check against `rotate_grid` requires: one 1-D
    `np.add.at` (numpy's fast path) over a tap-major destination, so each
    element gets its terms in tap, then output-pixel order.
    """
    if grad.ndim < 2 or grad.shape[0] != grad.shape[1]:
        raise ShapeError(f"rotate_grid_adjoint needs a square grid, got {grad.shape}")
    m = grad.shape[0]
    angle = float(angle) % TWO_PI
    k = _quarter_turns(angle)
    if k is not None:
        return np.rot90(grad, -k).copy()

    trailing = grad.shape[2:]
    flat = grad.reshape(m * m, -1)
    cols = flat.shape[1]
    indices, weights = _rotation_taps(m, angle)
    dest = indices[:, :, None] * cols + np.arange(cols)  # [4, m*m, cols]
    terms = flat * weights.astype(flat.dtype, copy=False)[:, :, None]
    out = np.zeros(m * m * cols, dtype=flat.dtype)
    np.add.at(out, dest.ravel(), terms.ravel())
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
