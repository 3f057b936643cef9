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

The resampling is precomputed once per (m, n) as a cached, read-only
`RotationPlan`: the bilinear taps of the base angles (the first quadrant when
4 | n, else all n angles) and, for the adjoint, the same taps indexed by
source pixel. `expand_rotations` is then one gather over all base angles,
quarter-turn permutations and a vectorised (p, q) frame mixing;
`expand_rotations_backward` is the quadrant fold plus one gather-scatter over
all base angles, and takes a batch of per-image gradients at once. Both add
their terms in the same order as per-angle `rotate_grid` /
`rotate_grid_adjoint` calls, so float32 and float64 results are
bit-identical to them, and training losses at a fixed seed do not move.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, TWO_PI, _quarter_turns, _rotation_taps

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


@functools.lru_cache(maxsize=None)
def angle_table(n: int):
    """(cos, sin) of the sampled angles; cached per n and read-only, like
    `rotation_plan`.

    For n divisible by 4 the table is built from the first quadrant and
    extended by cos(a + pi/2) = -sin(a), sin(a + pi/2) = cos(a), so the
    quarter-turn identities hold bitwise, not just to rounding.
    """
    cos_t = np.empty(n, dtype=np.float64)
    sin_t = np.empty(n, dtype=np.float64)
    if n % 4 == 0:
        quarter = n // 4
        for r in range(quarter):
            a = TWO_PI * r / n
            cos_t[r] = math.cos(a)
            sin_t[r] = math.sin(a)
        for r in range(quarter, n):
            cos_t[r] = -sin_t[r - quarter]
            sin_t[r] = cos_t[r - quarter]
    else:
        for r in range(n):
            a = TWO_PI * r / n
            cos_t[r] = math.cos(a)
            sin_t[r] = math.sin(a)
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


def _masked(bank: CanonicalFilterBank) -> Tensor:
    return bank.weights * bank.mask[:, :, None, None].astype(bank.weights.dtype)


@dataclass(frozen=True)
class RotationPlan:
    """Read-only resampling plan for the base angles 2*pi*j/n, j < k, of an
    m-by-m grid: the first quadrant (k = n/4) when 4 | n, whose copies the
    other quadrants are exact quarter turns of, else every angle (k = n).

    taps, weights: [k, 4, m*m] flat source indices and float64 weights of
    the four bilinear taps, in `rotate_grid`'s tap order; out-of-support
    taps have weight zero.
    scatter_src, scatter_wgt: [k, m*m, L], the same taps seen from the
    source side: for source pixel s, the output pixels that read it and
    their weights, in the (tap, output pixel) order in which
    `rotate_grid_adjoint` adds them. Short rows are padded with index m*m,
    which the adjoint points at a row of -0.0 (adding -0.0 changes nothing).
    exact: (j, perm, inverse) for base angles that are whole quarter turns,
    which `rotate_grid` and its adjoint take as index permutations.
    """

    n_base: int
    taps: np.ndarray
    weights: np.ndarray
    scatter_src: np.ndarray
    scatter_wgt: np.ndarray
    exact: tuple


@functools.lru_cache(maxsize=None)
def rotation_plan(m: int, n: int) -> RotationPlan:
    """The cached plan for m-by-m filters at n rotations; shared, read-only."""
    k = n // 4 if n % 4 == 0 else n
    npix = m * m
    taps = np.empty((k, 4, npix), dtype=np.int64)
    weights = np.zeros((k, 4, npix), dtype=np.float64)
    exact = []
    for j in range(k):
        angle = (TWO_PI * j / n) % TWO_PI
        q = _quarter_turns(angle)
        if q is None:
            idx, wgt = _rotation_taps(m, angle)
            taps[j] = idx
            weights[j] = wgt
        else:
            perm = np.rot90(np.arange(npix).reshape(m, m), q).ravel()
            taps[j] = perm
            weights[j, 0] = 1.0
            exact.append((j, perm, np.argsort(perm)))
    readers = [[[] for _ in range(npix)] for _ in range(k)]
    for j in range(k):
        for t in range(4):
            for o in range(npix):
                readers[j][taps[j, t, o]].append((o, weights[j, t, o]))
    width = max(len(r) for rows in readers for r in rows)
    scatter_src = np.full((k, npix, width), npix, dtype=np.int64)
    scatter_wgt = np.ones((k, npix, width), dtype=np.float64)
    for j in range(k):
        for s, row in enumerate(readers[j]):
            for i, (o, wgt) in enumerate(row):
                scatter_src[j, s, i] = o
                scatter_wgt[j, s, i] = wgt
    for a in [taps, weights, scatter_src, scatter_wgt] + [a for e in exact for a in e[1:]]:
        a.flags.writeable = False
    return RotationPlan(k, taps, weights, scatter_src, scatter_wgt, tuple(exact))


def _rotate_base(w: Tensor, plan: RotationPlan) -> Tensor:
    """[k, m, m, ...] copies of [m, m, ...] weights at the plan's base angles.

    Adds the four taps into zeros in `rotate_grid`'s order and copies quarter
    turns by permutation, so each copy is bit-identical to `rotate_grid`.
    """
    m = w.shape[0]
    flat = w.reshape(m * m, -1)
    wgt = plan.weights.astype(flat.dtype)[..., None]
    out = np.zeros((plan.n_base, m * m, flat.shape[1]), dtype=flat.dtype)
    for t in range(4):
        out += flat[plan.taps[:, t]] * wgt[:, t]
    for j, perm, _ in plan.exact:
        out[j] = flat[perm]
    return out.reshape((plan.n_base,) + w.shape)


def _rotate_base_adjoint(g: Tensor, plan: RotationPlan) -> Tensor:
    """Transpose of `_rotate_base` summed over base angles: [B, k, m*m, T]
    -> [B, m*m, T].

    Each angle's adjoint adds the tap contributions into zeros in
    `rotate_grid_adjoint`'s scatter order, and the angles are summed in
    order, so each image's result is bit-identical to the per-angle loop.
    """
    b, k, npix, t = g.shape
    pad = np.full((b, k, 1, t), -0.0, dtype=g.dtype)
    src = np.concatenate([g, pad], axis=2)
    wgt = plan.scatter_wgt.astype(g.dtype)[..., None]
    angle = np.arange(k)[:, None]
    per_angle = np.zeros_like(g)
    for i in range(plan.scatter_src.shape[2]):
        per_angle += src[:, angle, plan.scatter_src[:, :, i]] * wgt[:, :, i]
    for j, _, inverse in plan.exact:
        per_angle[:, j] = g[:, j, inverse]
    total = per_angle[:, 0]
    for j in range(1, k):
        total = total + per_angle[:, j]
    return total


def _frame_tables(n: int, dtype):
    """cos/sin of the sampled angles shaped to broadcast over [n, m, m, Cin, C]."""
    cos_t, sin_t = angle_table(n)
    shape = (n, 1, 1, 1, 1)
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
    w = _masked(bank)
    rot = _rotate_base(w, rotation_plan(m, n))  # [k, m, m, cin, c]
    if n % 4 == 0:
        rot = np.concatenate([np.rot90(rot, q, axes=(1, 2)) for q in range(4)])
    if bank.input_kind == VECTOR:
        # rotate the (p, q) frame: fp = c*p - s*q, fq = c*q + s*p
        cr, sr = _frame_tables(n, w.dtype)
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
    per-image gradients) are kept, and each slice of the [..., m, m, Cin, C]
    result is bit-identical to pulling that slice back on its own.
    """
    m = bank.size
    n = bank.n_rotations
    cin = bank.in_channels
    c = bank.n_filters
    plan = rotation_plan(m, n)
    lead = grad_expanded.shape[:-4]
    maskb = bank.mask[:, :, None, None].astype(grad_expanded.dtype)
    g = grad_expanded.reshape(-1, m, m, cin, c, n).transpose(0, 5, 1, 2, 3, 4)
    g = g * maskb  # [B, n, m, m, cin, c]

    if bank.input_kind == VECTOR:
        # transpose of the (p,q) mixing matrix [[c,-s],[s,c]]
        cr, sr = _frame_tables(n, g.dtype)
        gp = g[..., 0::2, :]
        gq = g[..., 1::2, :]
        mixed = np.empty_like(g)
        mixed[..., 0::2, :] = cr * gp + sr * gq
        mixed[..., 1::2, :] = cr * gq - sr * gp
        g = mixed
    if n % 4 == 0:
        g = g.reshape((g.shape[0], 4, plan.n_base) + g.shape[2:])
        acc = g[:, 0].copy()
        for q in range(1, 4):
            acc += np.rot90(g[:, q], -q, axes=(2, 3))
        g = acc
    total = _rotate_base_adjoint(g.reshape(g.shape[0], plan.n_base, m * m, cin * c), plan)
    return total.reshape(lead + (m, m, cin, c)) * maskb

