"""Rotation-steerable filter basis: Gaussian rings times angular harmonics.

Each atom is a radial profile exp(-(r - ring)^2 / (2 sigma^2)) multiplied by
cos(J*phi) or sin(J*phi) on the filter grid, masked to the inscribed circle
and L2-normalized (circular harmonics, Weiler et al., arXiv 1711.07289).
Rotating such an atom spatially is, up to interpolation error, the same as
mixing the (cos, sin) pair of its frequency by the phase J*beta. Filters
composed from the basis are smooth and band-limited, but `RConvLayer` still
rotates them like free filters: `rconv.expand_rotations` resamples the
composed filter, it does not steer the atoms.

Frequency-0 atoms are rotation-invariant rings. The angular coordinate phi
follows the package angle convention (counterclockwise as displayed), so
`rotate_grid(atom, beta)` matches the phase mixing with the same sign of
beta.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeError
from .rconv import circular_mask
from .tensor import Tensor


@functools.lru_cache(maxsize=None)
def build_basis(m: int) -> Tensor:
    """The basis atoms of odd filter size m, as a cached, read-only float64
    array [m, m, K] with K = 1 + 7 * (m // 2).

    Rings are 0..m//2 pixels, the radial width sigma is 0.6 pixels and the
    frequencies J are 0..3. Planes are ordered ring by ring; within a
    ring, frequency by frequency, each J >= 1 as its (cos, sin) pair. Ring 0
    holds only its J = 0 plane, because the angle is undefined at the centre.
    So plane 0 is the centre blob and ring r >= 1 starts at 1 + 7 * (r - 1)
    with [J0, J1 cos, J1 sin, J2 cos, J2 sin, J3 cos, J3 sin].
    """
    mask = circular_mask(m)
    c = 0.5 * (m - 1)
    rows, cols = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    x = cols - c
    y = c - rows  # y up: phi increases counterclockwise as displayed
    radius = np.hypot(x, y)
    phi = np.arctan2(y, x)

    center = int(c)
    planes = []
    for ring in range(m // 2 + 1):
        radial = np.exp(-0.5 * ((radius - ring) ** 2) / (0.6**2))
        for j in range(4):
            if j == 0:
                pair = (radial * mask)[:, :, None]
            elif ring == 0:
                continue
            else:
                pair = np.stack(
                    (radial * np.cos(j * phi) * mask, radial * np.sin(j * phi) * mask),
                    axis=2,
                )
                # the harmonic has no defined value at the exact center; its
                # pixel average is zero, and any other sample breaks steering
                pair[center, center, :] = 0.0
            planes.append(pair / np.sqrt((pair**2).sum(axis=(0, 1))))
    atoms = np.concatenate(planes, axis=2)
    atoms.flags.writeable = False
    return atoms


def compose_filters(atoms: Tensor, weights: Tensor) -> Tensor:
    """Linearly combine basis atoms into filters.

    weights: [K, Cin, C] -> filters [m, m, Cin, C], in the weights' dtype.
    """
    k = atoms.shape[2]
    if weights.ndim != 3 or weights.shape[0] != k:
        raise ShapeError(f"weights must be [K={k}, Cin, C], got {weights.shape}")
    f = np.tensordot(atoms, weights.astype(atoms.dtype), axes=([2], [0]))
    return f.astype(weights.dtype)


def compose_filters_backward(atoms: Tensor, grad_filters: Tensor) -> Tensor:
    """Transpose of `compose_filters`: gradient w.r.t. the mixing weights is
    the inner product of the filter gradient with each basis atom."""
    g = np.tensordot(atoms, grad_filters.astype(np.float64), axes=([0, 1], [0, 1]))
    return g.astype(grad_filters.dtype)
