import math

import numpy as np
import pytest

from oriconv.errors import ShapeError
from oriconv.rconv import CanonicalFilterBank, circular_mask, rconv_forward, rconv_backward
from oriconv.steerbasis import (
    BasisSpec,
    build_basis,
    compose_filters,
    compose_filters_backward,
    steer_pair,
)
from oriconv.tensor import finite_diff_check, rotate_grid


def rms(a):
    return math.sqrt(float(np.mean(np.square(a))))


class TestBuildBasis:
    def test_default_spec_layout(self):
        bank = build_basis(BasisSpec(size=9))
        # rings 0..4; ring 0 carries only the J=0 atom (angle undefined at center)
        assert all(e.ring > 0 or e.frequency == 0 for e in bank.elements)
        assert bank.atoms().shape == (9, 9, bank.n_atoms)

    def test_elements_unit_norm(self):
        bank = build_basis(BasisSpec(size=9))
        atoms = bank.atoms()
        norms = np.sqrt((atoms**2).sum(axis=(0, 1)))
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_gaussian_peaks_on_ring(self):
        spec = BasisSpec(size=9, frequencies=(0,), rings=(2,), sigma=0.6)
        elem = build_basis(spec).elements[0]
        # radial factor is exp(0) = 1 on the ring: the on-ring pixels hold the max
        plane = elem.planes[:, :, 0]
        c = 4
        on_ring = plane[c, c + 2]
        assert on_ring == plane.max()
        assert plane[c, c] < 0.05 * on_ring

    def test_rotation_invariant_center_blob(self):
        # smooth, well-resolved blob: J = 0 really is invariant under rotation
        spec = BasisSpec(size=19, frequencies=(0,), rings=(0,), sigma=3.2)
        elem = build_basis(spec).elements[0]
        for beta in (0.3, 0.9, 1.4):
            rot = rotate_grid(elem.planes, beta)
            assert rms(rot - elem.planes) < 1e-3

    def test_out_of_support_ring_rejected(self):
        with pytest.raises(ShapeError):
            BasisSpec(size=5, rings=(4,))

    def test_even_size_rejected(self):
        with pytest.raises(ShapeError):
            BasisSpec(size=8)


class TestSteerability:
    def test_j2_phase_mixing_example(self):
        # frozen configuration: outer ring, sigma 1.0, m = 9
        spec = BasisSpec(size=9, frequencies=(2,), rings=(3,), sigma=1.0)
        elem = build_basis(spec).elements[0]
        for beta in (0.3, 0.5, 0.9, 1.3):
            rot = rotate_grid(elem.planes, beta)
            assert rms(rot - steer_pair(elem, beta)) < 0.02

    def test_every_element_within_frozen_tolerance(self):
        # per-frequency tolerances measured once on the default basis; inner
        # rings sample high frequencies worse, hence the looser bounds
        frozen = {0: 0.03, 1: 0.04, 2: 0.06, 3: 0.09}
        bank = build_basis(BasisSpec(size=9))
        for elem in bank.elements:
            for beta in (0.4, 0.8, 1.2):
                rot = rotate_grid(elem.planes, beta)
                ana = steer_pair(elem, beta)
                assert rms(rot - ana) < frozen[elem.frequency], (
                    elem.frequency,
                    elem.ring,
                )

    def test_quarter_turn_steering_exact(self):
        bank = build_basis(BasisSpec(size=9))
        for elem in bank.elements:
            rot = rotate_grid(elem.planes, math.pi / 2)
            ana = steer_pair(elem, math.pi / 2)
            assert rms(rot - ana) < 1e-12


class TestComposeFilters:
    def test_one_hot_returns_atom(self, rng):
        bank = build_basis(BasisSpec(size=5))
        w = np.zeros((bank.n_atoms, 1, 1))
        w[3, 0, 0] = 1.0
        f = compose_filters(bank, w)
        assert np.allclose(f[:, :, 0, 0], bank.atoms()[:, :, 3])

    def test_zero_weights_zero_filter(self):
        bank = build_basis(BasisSpec(size=5))
        f = compose_filters(bank, np.zeros((bank.n_atoms, 2, 3)))
        assert f.shape == (5, 5, 2, 3) and not f.any()

    def test_weight_shape_checked(self, rng):
        bank = build_basis(BasisSpec(size=5))
        with pytest.raises(ShapeError):
            compose_filters(bank, np.zeros((bank.n_atoms + 1, 1, 1)))

    def test_backward_is_transpose(self, rng):
        bank = build_basis(BasisSpec(size=5))
        w = rng.normal(size=(bank.n_atoms, 2, 2))
        g = rng.normal(size=(5, 5, 2, 2))
        # <compose(w), g> == <w, compose_backward(g)>
        lhs = float(np.sum(compose_filters(bank, w) * g))
        rhs = float(np.sum(w * compose_filters_backward(bank, g)))
        assert abs(lhs - rhs) < 1e-10

    def test_finite_differences_through_rconv(self, rng):
        bank = build_basis(BasisSpec(size=5, frequencies=(0, 1), rings=(0, 1, 2)))
        n = 4
        w = rng.normal(size=(bank.n_atoms, 1, 2))
        x = rng.normal(size=(6, 6, 1))
        up = rng.normal(size=(6, 6, 2 * n))

        f = compose_filters(bank, w)
        cb = CanonicalFilterBank(f.copy(), n)
        _, gf = rconv_backward(x, cb, up)
        gw = compose_filters_backward(bank, gf)

        def loss(p):
            filt = compose_filters(bank, p)
            return np.sum(up * rconv_forward(x, CanonicalFilterBank(filt, n)))

        assert finite_diff_check(loss, w.copy(), gw) < 1e-4

    def test_composition_commutes_with_masking(self, rng):
        # composed filters already live inside the circular support, so the
        # bank's masking is a no-op and rconv's equivariance story is unchanged
        bank = build_basis(BasisSpec(size=7))
        w = rng.normal(size=(bank.n_atoms, 1, 2))
        f = compose_filters(bank, w)
        masked = f * circular_mask(7)[:, :, None, None]
        assert np.allclose(f, masked, atol=1e-12)

    def test_composed_bank_keeps_exact_equivariance(self, rng):
        bank = build_basis(BasisSpec(size=5))
        w = rng.normal(size=(bank.n_atoms, 1, 2))
        cb = CanonicalFilterBank(compose_filters(bank, w), 4)
        x = rng.normal(size=(8, 8, 1))
        y = rconv_forward(x, cb).reshape(8, 8, 2, 4)
        yr = rconv_forward(np.rot90(x).copy(), cb)
        expect = np.rot90(np.roll(y, 1, axis=3), 1, axes=(0, 1)).reshape(8, 8, 8)
        assert np.array_equal(yr, expect)
