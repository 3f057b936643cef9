import math

import numpy as np
import pytest

from oriconv.errors import ShapeError
from oriconv.rconv import CanonicalFilterBank, circular_mask
from oriconv.steerbasis import build_basis, compose_filters, compose_filters_backward
from oriconv.tensor import finite_diff_check, rotate_grid

from conftest import filter_major, planes, rconv_grads, rconv_planes


def rms(a):
    return math.sqrt(float(np.mean(np.square(a))))


def elements(m):
    """(frequency, ring, planes) of `build_basis(m)` in its documented order:
    the centre blob, then per ring r >= 1 the J = 0 plane and the (cos, sin)
    pairs of J = 1, 2, 3."""
    atoms = build_basis(m)
    out = [(0, 0, atoms[:, :, :1])]
    i = 1
    for ring in range(1, m // 2 + 1):
        out.append((0, ring, atoms[:, :, i : i + 1]))
        i += 1
        for j in (1, 2, 3):
            out.append((j, ring, atoms[:, :, i : i + 2]))
            i += 2
    assert i == atoms.shape[2]
    return out


def steer(j, pair, beta):
    """Phase mixing by J*beta: the analytic rotation of a harmonic pair."""
    if j == 0:
        return pair
    cb, sb = math.cos(j * beta), math.sin(j * beta)
    cos_e, sin_e = pair[:, :, 0], pair[:, :, 1]
    return np.stack((cb * cos_e + sb * sin_e, cb * sin_e - sb * cos_e), axis=2)


class TestBuildBasis:
    def test_layout(self):
        for m in (1, 3, 5, 9):
            atoms = build_basis(m)
            assert atoms.shape == (m, m, 1 + 7 * (m // 2))
            assert atoms.dtype == np.float64
        # ring 0 carries only the J=0 atom (angle undefined at center)
        assert [j for j, ring, _ in elements(9) if ring == 0] == [0]

    def test_cached_and_read_only(self):
        atoms = build_basis(7)
        assert build_basis(7) is atoms
        with pytest.raises(ValueError):
            atoms[0, 0, 0] = 1.0

    def test_elements_unit_norm(self):
        atoms = build_basis(9)
        norms = np.sqrt((atoms**2).sum(axis=(0, 1)))
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_gaussian_peaks_on_ring(self):
        # the J = 0 atom of ring 2 is plane 1 + 7 * (2 - 1)
        plane = next(p for j, ring, p in elements(9) if (j, ring) == (0, 2))[:, :, 0]
        assert np.array_equal(plane, build_basis(9)[:, :, 8])
        # radial factor is exp(0) = 1 on the ring: the on-ring pixels hold the max
        c = 4
        on_ring = plane[c, c + 2]
        assert on_ring == plane.max()
        assert plane[c, c] < 0.05 * on_ring

    def test_even_size_rejected(self):
        with pytest.raises(ShapeError):
            build_basis(8)


class TestSteerability:
    def test_every_element_within_frozen_tolerance(self):
        # per-frequency tolerances measured once on the default basis; inner
        # rings sample high frequencies worse, hence the looser bounds
        frozen = {0: 0.03, 1: 0.04, 2: 0.06, 3: 0.09}
        for j, ring, pair in elements(9):
            for beta in (0.4, 0.8, 1.2):
                rot = rotate_grid(pair, beta)
                assert rms(rot - steer(j, pair, beta)) < frozen[j], (j, ring)

    def test_quarter_turn_steering_exact(self):
        for j, ring, pair in elements(9):
            rot = rotate_grid(pair, math.pi / 2)
            assert rms(rot - steer(j, pair, math.pi / 2)) < 1e-12, (j, ring)


class TestComposeFilters:
    def test_one_hot_returns_atom(self, rng):
        atoms = build_basis(5)
        w = np.zeros((atoms.shape[2], 1, 1))
        w[3, 0, 0] = 1.0
        f = compose_filters(atoms, w)
        assert np.allclose(f[:, :, 0, 0], atoms[:, :, 3])

    def test_zero_weights_zero_filter(self):
        atoms = build_basis(5)
        f = compose_filters(atoms, np.zeros((atoms.shape[2], 2, 3)))
        assert f.shape == (5, 5, 2, 3) and not f.any()

    def test_weight_shape_checked(self, rng):
        atoms = build_basis(5)
        with pytest.raises(ShapeError):
            compose_filters(atoms, np.zeros((atoms.shape[2] + 1, 1, 1)))

    def test_backward_is_transpose(self, rng):
        atoms = build_basis(5)
        w = rng.normal(size=(atoms.shape[2], 2, 2))
        g = rng.normal(size=(5, 5, 2, 2))
        # <compose(w), g> == <w, compose_backward(g)>
        lhs = float(np.sum(compose_filters(atoms, w) * g))
        rhs = float(np.sum(w * compose_filters_backward(atoms, g)))
        assert abs(lhs - rhs) < 1e-10

    def test_finite_differences_through_rconv(self, rng):
        atoms = build_basis(5)
        n = 4
        w = rng.normal(size=(atoms.shape[2], 1, 2))
        x = rng.normal(size=(6, 6, 1))
        up = rng.normal(size=(6, 6, 2 * n))

        f = compose_filters(atoms, w)
        cb = CanonicalFilterBank(f.copy(), n)
        _, gf = rconv_grads(x, cb, filter_major(up, n))
        gw = compose_filters_backward(atoms, gf)

        def loss(p):
            filt = compose_filters(atoms, p)
            return np.sum(planes(up) * rconv_planes(x, CanonicalFilterBank(filt, n)))

        assert finite_diff_check(loss, w.copy(), gw) < 1e-4

    def test_composition_commutes_with_masking(self, rng):
        # composed filters already live inside the circular support, so the
        # bank's masking is a no-op and rconv's equivariance story is unchanged
        atoms = build_basis(7)
        w = rng.normal(size=(atoms.shape[2], 1, 2))
        f = compose_filters(atoms, w)
        masked = f * circular_mask(7)[:, :, None, None]
        assert np.allclose(f, masked, atol=1e-12)

    def test_composed_bank_keeps_exact_equivariance(self, rng):
        atoms = build_basis(5)
        w = rng.normal(size=(atoms.shape[2], 1, 2))
        cb = CanonicalFilterBank(compose_filters(atoms, w), 4)
        x = rng.normal(size=(8, 8, 1))
        y = rconv_planes(x, cb).reshape(4, 2, 8, 8)
        yr = rconv_planes(np.rot90(x).copy(), cb)
        expect = np.rot90(np.roll(y, 1, axis=0), 1, axes=(2, 3)).reshape(8, 8, 8)
        assert np.array_equal(yr, expect)
