"""Rotation-equivariant convolution (RConv).

A layer learns C canonical m-by-m filters and convolves the input against all
of their rotated copies at angles 2*pi*r/n for r = 0..n-1, so the output has
n*C channels laid out rotation-major, filter-minor (channel index r*C + c):
the orientation pool then reduces over a leading axis of whole C-plane
blocks. `expand_rotations_backward` takes its gradient in the same order,
so the pair is one adjoint in one layout.
Gradients from every rotated copy are pulled back onto the single canonical
filter through the transpose of the rotation resampling, so the layer stores
n times fewer parameters than a standard convolution with the same number of
output channels.

Only the weights inside the inscribed circle of the filter square carry
information: rotation would otherwise shuffle corner weights in and out of
the support. The circular mask is applied to the canonical weights as a bank
is made and as they are read for the expansion, to every rotated copy, and
to the weight gradient. So weights outside the circle start at zero, get
zero gradient, and no output reads them, whatever writes the bank.

When the rotation count is divisible by 4, rotated copies are built by
resampling only within the first quadrant and then applying exact 90-degree
index permutations, and the cos/sin tables are constructed with exact
quarter-turn symmetry. Together with the float64 reduction rules in
`tensor`, this makes the rotate-input <-> shift-rotation-channels identity
bit-exact at quarter turns.

The resampling itself is `tensor.rotate_grid` and, for the gradient,
`tensor.rotate_grid_adjoint`, called once per base angle other than 0 (the
first quadrant when 4 | n, else all n angles; angle 0 is the masked bank
itself) on the whole [m, m, Cin, C] bank, or on the whole batch of
per-image gradients, so this module holds no resampling code of its own.
Around it sit a fixed handful of array calls per layer, whatever n, Cin and
C: the masks (`circular_mask`, cached per (m, dtype)), the quarter turns
(one cached index gather in the expansion, reversed and swapped views in
the adjoint's fold), the (p, q) frame mixing (four calls over
`angle_table`, the package's one cached (cos, sin) table) and one layout
change on each side, folded into a mask multiply, which moves runs of C
values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, TWO_PI, rotate_grid, rotate_grid_adjoint

SCALAR = "scalar"
VECTOR = "vector-field"


@functools.lru_cache(maxsize=None)
def circular_mask(m: int, dtype=np.float64) -> Tensor:
    """Binary m-by-m mask of the inscribed circle (diameter m, pixel
    centers); cached per (m, dtype) and read-only."""
    if m % 2 != 1:
        raise ShapeError(f"filter size must be odd, got {m}")
    c = 0.5 * (m - 1)
    rows, cols = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    r2 = (rows - c) ** 2 + (cols - c) ** 2
    mask = (r2 <= (0.5 * m) ** 2 + 1e-9).astype(dtype)
    mask.flags.writeable = False
    return mask


def _base_angles(n: int):
    """The angles 2*pi*j/n that are resampled: the first quadrant when 4 | n
    (the other quadrants are exact quarter turns of it), else all n."""
    k = n // 4 if n % 4 == 0 else n
    return [TWO_PI * j / n for j in range(k)]


@functools.lru_cache(maxsize=None)
def angle_table(n: int, dtype=np.float64):
    """(cos, sin) of the sampled angles 2*pi*r/n, r = 0..n-1, in `dtype`;
    cached per (n, dtype) and read-only. The one table of the package: the
    expansion's frame mixing and the orientation pool both read it.

    The values are computed in float64 and then cast. For n divisible by 4
    the table is built from the first quadrant and extended by
    cos(a + pi/2) = -sin(a), sin(a + pi/2) = cos(a), so the quarter-turn
    identities hold bitwise, not just to rounding.
    """
    base = _base_angles(n)
    k = len(base)
    cos_t = np.empty(n, dtype=np.float64)
    sin_t = np.empty(n, dtype=np.float64)
    cos_t[:k] = [math.cos(a) for a in base]
    sin_t[:k] = [math.sin(a) for a in base]
    for r in range(k, n):
        cos_t[r] = -sin_t[r - k]
        sin_t[r] = cos_t[r - k]
    tables = (cos_t.astype(dtype, copy=False), sin_t.astype(dtype, copy=False))
    for t in tables:
        t.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=None)
def _quarter_index(n: int, m: int):
    """Read-only rows of the [k*m*m, ...] base copies (k = n/4, 4 | n) that
    give all n copies, [n*m*m]: pixel p of copy q*k + j reads base copy j at
    the pixel that np.rot90 (applied q times) moves to p."""
    k = n // 4
    pix = np.arange(m * m).reshape(m, m)
    index = np.concatenate(
        [j * m * m + np.rot90(pix, q).ravel() for q in range(4) for j in range(k)]
    )
    index.flags.writeable = False
    return index


@dataclass
class CanonicalFilterBank:
    """C learnable canonical filters plus the bookkeeping for their rotations.

    weights: [m, m, Cin, C]. For vector-field input, Cin is even and plane
    2i / 2i+1 hold the horizontal/vertical component filters of input field i.
    """

    weights: Tensor
    n_rotations: int
    input_kind: str = SCALAR

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise ShapeError(f"weights must be [m,m,Cin,C], got {self.weights.shape}")
        m, n, cin, _ = self.weights.shape
        if m != n or m % 2 != 1:
            raise ShapeError(f"filters must be square with odd size, got {m}x{n}")
        if self.n_rotations < 1:
            raise ShapeError(f"rotation count must be >= 1, got {self.n_rotations}")
        if self.input_kind not in (SCALAR, VECTOR):
            raise ShapeError(f"unknown input_kind {self.input_kind!r}")
        if self.input_kind == VECTOR and cin % 2 != 0:
            raise ShapeError(
                f"vector-field filters need paired (p,q) planes, got Cin={cin}"
            )
        self.weights *= self.mask[:, :, None, None]

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[2]

    @property
    def n_filters(self) -> int:
        return self.weights.shape[3]

    @property
    def mask(self) -> Tensor:
        """The circular mask in the weights' dtype (read-only)."""
        return circular_mask(self.size, self.weights.dtype)


def _mix_frames(src: Tensor, transpose: bool = False) -> Tensor:
    """Rotate the (p, q) frame of every copy in src [n, ..., 2, R] (copy r
    by angle 2*pi*r/n; index 0 / 1 on axis -2 holds the p / q planes) with
    the mixing matrix [[c, -s], [s, c]], or its transpose:
    p' = c*p -/+ s*q and q' = c*q +/- s*p. Two products over both planes
    ([c*p, c*q] and the swapped [s*q, s*p]), then each half finished with
    `out=` in place."""
    n = src.shape[0]
    cos_t, sin_t = angle_table(n, src.dtype)
    shape = (n,) + (1,) * (src.ndim - 1)
    out = np.multiply(cos_t.reshape(shape), src)
    swapped = np.multiply(sin_t.reshape(shape), src[..., ::-1, :])
    op, oq = out[..., 0, :], out[..., 1, :]
    (np.add if transpose else np.subtract)(op, swapped[..., 0, :], out=op)
    (np.subtract if transpose else np.add)(oq, swapped[..., 1, :], out=oq)
    return out


def expand_rotations(bank: CanonicalFilterBank) -> Tensor:
    """Expanded filter tensor [m, m, Cin, n*C] of all masked rotated copies.

    Copy r of filter c sits at output channel r*C + c; copy 0 is the masked
    canonical filter itself, not resampled. Each other base angle is one
    `tensor.rotate_grid` call. When 4 | n, copy r = q*n/4 + j is the exact
    90-degree permutation (applied q times) of base copy j, taken for all n
    copies by one cached index gather (`_quarter_index`), so copies a
    quarter turn apart are exact rot90 images of each other.

    The copies are held as [n, m, m, P, Cin/P, C] with P = 2 (p, q) planes
    for a vector-field bank (P = 1 for a scalar one), so that the frame
    mixing reads contiguous runs; one mask multiply then writes the
    C-ordered result, moving runs of C values. The layout moves whole
    columns of the resampler, which treats every column on its own, so no
    value changes with it.
    """
    m = bank.size
    n = bank.n_rotations
    cin = bank.in_channels
    c = bank.n_filters
    p = 2 if bank.input_kind == VECTOR else 1
    mask = bank.mask
    angles = _base_angles(n)
    k = len(angles)
    rot = np.empty((k, m, m, p, cin // p, c), dtype=bank.weights.dtype)
    planes = bank.weights.reshape(m, m, cin // p, p, c).transpose(0, 1, 3, 2, 4)
    np.multiply(planes, mask[:, :, None, None, None], out=rot[0])
    for j in range(1, k):
        rot[j] = rotate_grid(rot[0], angles[j])
    if k < n:
        rot = rot.reshape(k * m * m, -1).take(_quarter_index(n, m), axis=0)
        rot = rot.reshape(n, m, m, p, cin // p, c)
    if p == 2:
        rot = _mix_frames(rot.reshape(n, m * m, p, -1)).reshape(rot.shape)
    out = np.multiply(
        rot.transpose(1, 2, 4, 3, 0, 5), mask[:, :, None, None, None, None], order="C"
    )
    return out.reshape(m, m, cin, n * c)


def expand_rotations_backward(bank: CanonicalFilterBank, grad_expanded: Tensor) -> Tensor:
    """Pull a gradient w.r.t. the expanded filters back onto the canonical
    weights (mask -> frame-mixing transpose -> quadrant fold -> resampling
    transpose -> mask).

    grad_expanded is [..., m, m, Cin, n*C], rotation-major like the
    expansion (channel r*C + c); leading axes (a batch of B
    per-image gradients) are kept. They ride as trailing columns of each
    per-angle `rotate_grid_adjoint`, which treats every column on its own,
    so each slice of the [..., m, m, Cin, C] result is bit-identical to
    pulling that slice back on its own.

    The first mask multiply writes the rotation-major [n, m, m, P, B,
    Cin/P, C] (P as in `expand_rotations`). When 4 | n, the quadrant fold
    adds the inverse quarter turns of quadrants 1-3, as reversed and swapped
    views, onto quadrant 0 in the order ((g0 + r1) + r2) + r3. Base angle 0
    needs no resampling; each other base angle is one `rotate_grid_adjoint`,
    summed in angle order. The last mask multiply writes the C-ordered
    result.
    """
    m = bank.size
    n = bank.n_rotations
    cin = bank.in_channels
    c = bank.n_filters
    p = 2 if bank.input_kind == VECTOR else 1
    lead = grad_expanded.shape[:-4]
    mask = circular_mask(m, grad_expanded.dtype)
    g = grad_expanded.reshape(-1, m, m, cin // p, p, n, c)
    b = g.shape[0]
    g = np.multiply(
        g.transpose(5, 1, 2, 4, 0, 3, 6), mask[:, :, None, None, None, None], order="C"
    )
    if p == 2:
        g = _mix_frames(g.reshape(n, m * m, p, -1), transpose=True)
    angles = _base_angles(n)
    k = len(angles)
    g = g.reshape(n // k, k, m, m, -1)
    if k < n:
        # quadrant q turned back by q quarter turns: np.rot90(g[q], -q, axes=(1, 2))
        acc = np.add(g[0], g[1][:, ::-1].swapaxes(1, 2), order="C")
        acc += g[2][:, ::-1, ::-1]
        acc += g[3][:, :, ::-1].swapaxes(1, 2)
    else:
        acc = g[0]
    total = acc[0]
    for j in range(1, k):
        total = total + rotate_grid_adjoint(acc[j], angles[j])
    total = total.reshape(m, m, p, b, cin // p, c).transpose(3, 0, 1, 4, 2, 5)
    total = np.multiply(total, mask[:, :, None, None, None], order="C")
    return total.reshape(lead + (m, m, cin, c))
