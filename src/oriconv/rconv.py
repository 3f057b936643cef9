"""Rotation-equivariant convolution (RConv).

A layer learns C canonical m-by-m filters and convolves the input against all
of their rotated copies at angles 2*pi*r/n for r = 0..n-1, so the output has
C*n channels laid out filter-major, rotation-minor (channel index c*n + r).
Gradients from every rotated copy are pulled back onto the single canonical
filter through the transpose of the rotation resampling, so the layer stores
n times fewer parameters than a standard convolution with the same number of
output channels.

Only the weights inside the inscribed circle of the filter square carry
information: rotation would otherwise shuffle corner weights in and out of
the support. The circular mask is applied to the canonical weights, to every
rotated copy, and to the weight gradient.

When the rotation count is divisible by 4, rotated copies are built by
resampling only within the first quadrant and then applying exact 90-degree
index permutations, and the cos/sin tables are constructed with exact
quarter-turn symmetry. Together with the float64 reduction rules in
`tensor`, this makes the rotate-input <-> shift-rotation-channels identity
bit-exact at quarter turns.

The resampling itself is `tensor.rotate_grid` and, for the gradient,
`tensor.rotate_grid_adjoint`, called once per base angle (the first quadrant
when 4 | n, else all n angles) on the whole [m, m, Cin, C] bank, or on the
whole batch of per-image gradients, so this module holds no resampling code
of its own. Around it sit the quarter-turn permutations, a vectorised (p, q)
frame mixing and the masks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, TWO_PI, rotate_grid, rotate_grid_adjoint

SCALAR = "scalar"
VECTOR = "vector-field"


def circular_mask(m: int, dtype=np.float64) -> Tensor:
    """Binary m-by-m mask of the inscribed circle (diameter m, pixel centers)."""
    if m % 2 != 1:
        raise ShapeError(f"filter size must be odd, got {m}")
    c = 0.5 * (m - 1)
    rows, cols = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    r2 = (rows - c) ** 2 + (cols - c) ** 2
    return (r2 <= (0.5 * m) ** 2 + 1e-9).astype(dtype)


def _base_angles(n: int):
    """The angles 2*pi*j/n that are resampled: the first quadrant when 4 | n
    (the other quadrants are exact quarter turns of it), else all n."""
    k = n // 4 if n % 4 == 0 else n
    return [TWO_PI * j / n for j in range(k)]


@functools.lru_cache(maxsize=None)
def angle_table(n: int):
    """(cos, sin) of the sampled angles; cached per n and read-only.

    For n divisible by 4 the table is built from the first quadrant and
    extended by cos(a + pi/2) = -sin(a), sin(a + pi/2) = cos(a), so the
    quarter-turn identities hold bitwise, not just to rounding.
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
    cos_t.flags.writeable = False
    sin_t.flags.writeable = False
    return cos_t, sin_t


@dataclass
class CanonicalFilterBank:
    """C learnable canonical filters plus the bookkeeping for their rotations.

    weights: [m, m, Cin, C]. For vector-field input, Cin is even and plane
    2i / 2i+1 hold the horizontal/vertical component filters of input field i.
    """

    weights: Tensor
    n_rotations: int
    input_kind: str = SCALAR
    mask: Tensor = field(default=None)

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
        if self.mask is None:
            self.mask = circular_mask(m, dtype=self.weights.dtype)
        self.apply_mask()

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[2]

    @property
    def n_filters(self) -> int:
        return self.weights.shape[3]

    def apply_mask(self) -> None:
        """Zero the weights outside the inscribed circle, in place."""
        self.weights *= self.mask[:, :, None, None].astype(self.weights.dtype)


def _frame_tables(n: int, dtype, ndim: int):
    """cos/sin of the sampled angles shaped to broadcast over an ndim-axis
    array whose leading axis is the rotation."""
    cos_t, sin_t = angle_table(n)
    shape = (n,) + (1,) * (ndim - 1)
    return cos_t.astype(dtype).reshape(shape), sin_t.astype(dtype).reshape(shape)


def expand_rotations(bank: CanonicalFilterBank) -> Tensor:
    """Expanded filter tensor [m, m, Cin, C*n] of all masked rotated copies.

    Copy r of filter c sits at output channel c*n + r; copy 0 equals the
    masked canonical filter exactly. When 4 | n, copy r = q*n/4 + j is the
    exact 90-degree permutation (applied q times) of base copy j, so copies a
    quarter turn apart are exact rot90 images of each other.
    """
    m = bank.size
    n = bank.n_rotations
    cin = bank.in_channels
    c = bank.n_filters
    w = bank.weights * bank.mask[:, :, None, None].astype(bank.weights.dtype)
    rot = np.stack([rotate_grid(w, a) for a in _base_angles(n)])  # [k, m, m, cin, c]
    if n % 4 == 0:
        rot = np.concatenate([np.rot90(rot, q, axes=(1, 2)) for q in range(4)])
    if bank.input_kind == VECTOR:
        # rotate the (p, q) frame: fp = c*p - s*q, fq = c*q + s*p
        cr, sr = _frame_tables(n, w.dtype, rot.ndim)
        rp = rot[..., 0::2, :]
        rq = rot[..., 1::2, :]
        mixed = np.empty_like(rot)
        mixed[..., 0::2, :] = cr * rp - sr * rq
        mixed[..., 1::2, :] = cr * rq + sr * rp
        rot = mixed
    out = rot * bank.mask[None, :, :, None, None].astype(w.dtype)
    out = out.transpose(1, 2, 3, 4, 0).reshape(m, m, cin, c * n)
    return np.ascontiguousarray(out)


def expand_rotations_backward(bank: CanonicalFilterBank, grad_expanded: Tensor) -> Tensor:
    """Pull a gradient w.r.t. the expanded filters back onto the canonical
    weights (mask -> frame-mixing transpose -> quadrant fold -> resampling
    transpose -> mask).

    grad_expanded is [..., m, m, Cin, C*n]; leading axes (a batch of
    per-image gradients) are kept. They ride as trailing columns of each
    per-angle `rotate_grid_adjoint`, which treats every column on its own,
    so each slice of the [..., m, m, Cin, C] result is bit-identical to
    pulling that slice back on its own.
    """
    m = bank.size
    n = bank.n_rotations
    cin = bank.in_channels
    c = bank.n_filters
    lead = grad_expanded.shape[:-4]
    mask = bank.mask.astype(grad_expanded.dtype)
    g = grad_expanded.reshape(-1, m, m, cin, c, n).transpose(5, 1, 2, 0, 3, 4)
    g = g * mask[:, :, None, None, None]  # [n, m, m, B, cin, c]

    if bank.input_kind == VECTOR:
        # transpose of the (p,q) mixing matrix [[c,-s],[s,c]]
        cr, sr = _frame_tables(n, g.dtype, g.ndim)
        gp = g[..., 0::2, :]
        gq = g[..., 1::2, :]
        mixed = np.empty_like(g)
        mixed[..., 0::2, :] = cr * gp + sr * gq
        mixed[..., 1::2, :] = cr * gq - sr * gp
        g = mixed
    angles = _base_angles(n)
    if n % 4 == 0:
        g = g.reshape((4, len(angles)) + g.shape[1:])
        acc = g[0].copy()
        for q in range(1, 4):
            acc += np.rot90(g[q], -q, axes=(1, 2))
        g = acc
    total = rotate_grid_adjoint(g[0], angles[0])
    for j in range(1, len(angles)):
        total = total + rotate_grid_adjoint(g[j], angles[j])
    total = np.moveaxis(total * mask[:, :, None, None, None], 2, 0)  # [B, m, m, cin, c]
    return np.ascontiguousarray(total).reshape(lead + (m, m, cin, c))
