import math

import numpy as np
import pytest

from oriconv.errors import ShapeError
from oriconv.rconv import (
    SCALAR,
    VECTOR,
    CanonicalFilterBank,
    angle_table,
    circular_mask,
    expand_rotations,
    expand_rotations_backward,
)
from oriconv.tensor import (
    _rotation_taps,
    conv2d_backward,
    finite_diff_check,
    rotate_grid,
    rotate_grid_adjoint,
)

from conftest import (
    conv2d_oracle,
    filter_major,
    gaussian_bump,
    planes,
    rconv_grads,
    rconv_planes,
    smooth_random_image,
)


def make_bank(rng, m=3, cin=1, c=2, n=4, kind=SCALAR):
    w = rng.normal(size=(m, m, cin, c))
    return CanonicalFilterBank(w, n, input_kind=kind)


class TestExpandRotations:
    def test_single_rotation_is_masked_canonical(self, rng):
        bank = make_bank(rng, m=5, n=1)
        exp = expand_rotations(bank)
        want = bank.weights * circular_mask(5)[:, :, None, None]
        assert np.array_equal(exp, want)

    def test_four_rotations_move_single_pixel(self):
        # on-pixel at mid-top walks to left, bottom, right
        w = np.zeros((3, 3, 1, 1))
        w[0, 1, 0, 0] = 1.0
        bank = CanonicalFilterBank(w, 4)
        exp = expand_rotations(bank)
        hot = [tuple(np.argwhere(exp[:, :, 0, r] == 1.0)[0]) for r in range(4)]
        assert hot == [(0, 1), (1, 0), (2, 1), (1, 2)]

    def test_channel_count_17_rotations(self, rng):
        bank = make_bank(rng, m=3, cin=1, c=3, n=17)
        assert expand_rotations(bank).shape == (3, 3, 1, 51)

    def test_copy_zero_exact(self, rng):
        bank = make_bank(rng, m=5, c=2, n=8)
        exp = expand_rotations(bank)
        masked = bank.weights * circular_mask(5)[:, :, None, None]
        assert np.array_equal(exp[:, :, :, :2], masked)

    def test_quarter_turn_copies_are_rot90_images(self, rng):
        bank = make_bank(rng, m=5, c=1, n=8)
        exp = expand_rotations(bank)
        for r in range(2):
            a = exp[:, :, 0, r]
            b = exp[:, :, 0, r + 2]  # quarter turn later
            assert np.array_equal(b, np.rot90(a))

    def test_angle_table_quarter_symmetry_bitwise(self):
        for n in (4, 8, 16, 24):
            cos_t, sin_t = angle_table(n)
            q = n // 4
            assert np.array_equal(cos_t[q:], -sin_t[: n - q])
            assert np.array_equal(sin_t[q:], cos_t[: n - q])


def expand_oracle(bank):
    """Per-angle `rotate_grid` expansion; when 4 | n, copy q*n/4 + j is the
    rot90 (q times) of the bilinear copy at base angle 2*pi*j/n."""
    m, n = bank.size, bank.n_rotations
    cin, c = bank.in_channels, bank.n_filters
    mask = bank.mask[:, :, None, None]
    w = bank.weights * mask
    dt = w.dtype.type
    cos_t, sin_t = angle_table(n)

    def rot(a, r):
        if n % 4 == 0:
            q, j = divmod(r, n // 4)
            return np.rot90(rotate_grid(a, 2 * math.pi * j / n), q)
        return rotate_grid(a, 2 * math.pi * r / n)

    out = np.empty((m, m, cin, c * n), dtype=w.dtype)
    for r in range(n):
        if bank.input_kind == SCALAR:
            f = rot(w, r)
        else:
            rp, rq = rot(w[:, :, 0::2], r), rot(w[:, :, 1::2], r)
            f = np.empty_like(w)
            f[:, :, 0::2] = dt(cos_t[r]) * rp - dt(sin_t[r]) * rq
            f[:, :, 1::2] = dt(cos_t[r]) * rq + dt(sin_t[r]) * rp
        out[:, :, :, r * c : (r + 1) * c] = f * mask
    return out


def expand_backward_oracle(bank, grad):
    """Per-angle `rotate_grid_adjoint` pull-back: mask, frame-mixing
    transpose, quadrant fold when 4 | n, adjoint per base angle summed in
    angle order, mask."""
    m, n = bank.size, bank.n_rotations
    mask = bank.mask[:, :, None, None].astype(grad.dtype)
    g = grad.reshape(m, m, bank.in_channels, n, bank.n_filters) * mask[..., None]
    dt = grad.dtype.type
    cos_t, sin_t = angle_table(n)
    per_rot = []
    for r in range(n):
        gr = g[..., r, :]
        if bank.input_kind == VECTOR:
            mixed = np.empty_like(gr)
            mixed[:, :, 0::2] = dt(cos_t[r]) * gr[:, :, 0::2] + dt(sin_t[r]) * gr[:, :, 1::2]
            mixed[:, :, 1::2] = dt(cos_t[r]) * gr[:, :, 1::2] - dt(sin_t[r]) * gr[:, :, 0::2]
            gr = mixed
        per_rot.append(gr)
    total = None
    if n % 4 == 0:
        k = n // 4
        for j in range(k):
            acc = per_rot[j].copy()
            for q in range(1, 4):
                acc += np.rot90(per_rot[j + q * k], -q)
            t = rotate_grid_adjoint(acc, 2 * math.pi * j / n)
            total = t if total is None else total + t
    else:
        for r in range(n):
            t = rotate_grid_adjoint(per_rot[r], 2 * math.pi * r / n)
            total = t if total is None else total + t
    return total * mask


class TestExpansionOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", [SCALAR, VECTOR])
    @pytest.mark.parametrize("n", [1, 4, 6, 8, 12, 16, 17])
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_bit_identical_to_rotate_grid(self, rng, dtype, kind, n, m):
        w = rng.normal(size=(m, m, 4, 3)).astype(dtype)
        bank = CanonicalFilterBank(w, n, input_kind=kind)
        got = expand_rotations(bank)
        assert got.dtype == dtype
        # bytes, not values: the masked corners' zeros keep their signs
        assert got.tobytes() == expand_oracle(bank).tobytes()
        # the adjoint keeps the scatter order too: a reordered sum differs at
        # the ulp level, which a few training steps amplify into loss changes
        # of several percent
        g = rng.normal(size=got.shape).astype(dtype)
        back = expand_rotations_backward(bank, g)
        assert back.dtype == dtype
        assert back.tobytes() == expand_backward_oracle(bank, g).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", [SCALAR, VECTOR])
    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_negative_zero_corners(self, rng, dtype, kind, n):
        # masked corners holding -0.0, and -0.0 in the gradient, keep the
        # oracles' signs of zero through every mask and sum
        w = rng.normal(size=(5, 5, 4, 3)).astype(dtype)
        bank = CanonicalFilterBank(w, n, input_kind=kind)
        bank.weights[circular_mask(5) == 0.0] = -0.0
        got = expand_rotations(bank)
        assert got.tobytes() == expand_oracle(bank).tobytes()
        g = rng.normal(size=(2,) + got.shape).astype(dtype)
        g[rng.random(g.shape) < 0.3] = -0.0
        back = expand_rotations_backward(bank, g)
        want = np.stack([expand_backward_oracle(bank, gi) for gi in g])
        assert back.tobytes() == want.tobytes()

    def test_taps_cached_and_read_only(self):
        idx, wgt = _rotation_taps(5, 2 * math.pi / 8)
        again = _rotation_taps(5, 2 * math.pi / 8)
        assert again[0] is idx and again[1] is wgt
        # one stacked table: a row of indices and of weights per tap
        for a in (idx, wgt):
            assert a.shape == (4, 25)
            with pytest.raises(ValueError):
                a[0, 0] = 0

    def test_batched_backward_matches_per_slice(self, rng):
        for kind, n in ((SCALAR, 6), (VECTOR, 8)):
            bank = make_bank(rng, m=5, cin=4, c=2, n=n, kind=kind)
            g = rng.normal(size=(3, 5, 5, 4, 2 * n)).astype(np.float32)
            got = expand_rotations_backward(bank, g)
            want = np.stack([expand_rotations_backward(bank, gi) for gi in g])
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", [SCALAR, VECTOR])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_backward_is_adjoint(self, rng, kind, n):
        bank = make_bank(rng, m=5, cin=4, c=3, n=n, kind=kind)
        g = rng.normal(size=(5, 5, 4, 3 * n))
        lhs = np.sum(expand_rotations(bank) * g)
        rhs = np.sum(bank.weights * expand_rotations_backward(bank, g))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


class TestCircularMask:
    def test_small_sizes(self):
        assert circular_mask(3).all()  # 3x3 corners are inside radius 1.5
        m5 = circular_mask(5)
        assert m5[0, 0] == 0.0 and m5[0, 2] == 1.0 and m5[2, 2] == 1.0

    def test_quarter_turn_symmetric(self):
        for m in (3, 5, 7, 9):
            msk = circular_mask(m)
            assert np.array_equal(msk, np.rot90(msk))

    def test_even_size_rejected(self):
        with pytest.raises(ShapeError):
            circular_mask(4)


class TestForward:
    def test_symmetric_filter_gives_equal_slices(self, rng):
        # quarter-turn sampling: symmetry forces bitwise equality
        w = gaussian_bump(5, sigma=1.2)[:, :, None, None]
        bank = CanonicalFilterBank(w.copy(), 4)
        x = rng.normal(size=(8, 8, 1))
        y = rconv_planes(x, bank)
        for r in range(1, 4):
            assert np.abs(y[r] - y[0]).max() < 1e-6
        # off-grid sampling: equal up to the bilinear interpolation floor
        # (bound measured once on this configuration and frozen)
        bank6 = CanonicalFilterBank(w.copy(), 6)
        y6 = rconv_planes(x, bank6)
        scale = np.abs(y6[0]).max()
        for r in range(1, 6):
            assert np.abs(y6[r] - y6[0]).max() < 0.10 * scale

    def test_zero_input(self, rng):
        bank = make_bank(rng, n=5)
        y = rconv_planes(np.zeros((6, 6, 1)), bank)
        assert not y.any()

    def test_matches_independent_loop_oracle(self, rng):
        bank = make_bank(rng, m=3, cin=2, c=2, n=4)
        x = rng.normal(size=(6, 6, 2))
        got = rconv_planes(x, bank)
        # independent path: rotate each filter with rotate_grid, then loop conv
        mask = circular_mask(3)
        for c in range(2):
            for r in range(4):
                f = rotate_grid(bank.weights[:, :, :, c], 2 * math.pi * r / 4)
                f = f * mask[:, :, None]
                want = conv2d_oracle(x, f[:, :, :, None], 1, 1)[:, :, 0]
                assert np.abs(got[r * 2 + c] - want).max() < 1e-10

    def test_channel_mismatch(self, rng):
        bank = make_bank(rng, cin=2)
        with pytest.raises(ShapeError):
            rconv_planes(rng.normal(size=(5, 5, 3)), bank)

    def test_four_times_the_rotations_give_four_times_the_filters_and_planes(self, rng):
        # asserted on the work that sets the time, not on a wall clock: 4x
        # the sampled rotations expand to 4x the filters and convolve to 4x
        # the output channels
        img = rng.normal(size=(32, 32, 1)).astype(np.float32)
        w = rng.normal(size=(5, 5, 1, 4)).astype(np.float32)
        widths, channels = [], []
        for n in (2, 8):
            bank = CanonicalFilterBank(w.copy(), n)
            widths.append(expand_rotations(bank).shape[-1])
            channels.append(rconv_planes(img, bank).shape[0])
        assert widths[1] == 4 * widths[0]
        assert channels[1] == 4 * channels[0]


class TestBackward:
    def test_zero_upstream(self, rng):
        bank = make_bank(rng, n=4)
        x = rng.normal(size=(5, 5, 1))
        gx, gw = rconv_grads(x, bank, np.zeros((5, 5, 8)))
        assert not gx.any() and not gw.any()

    def test_single_rotation_reduces_to_conv_backward(self, rng):
        # m = 3: the circular mask is all-ones, so the degenerate case is exact
        bank = make_bank(rng, m=3, cin=2, c=2, n=1)
        x = rng.normal(size=(6, 6, 2))
        up = rng.normal(size=(6, 6, 2))
        gx, gw = rconv_grads(x, bank, up)
        gx2, gw2 = conv2d_backward(x, expand_rotations(bank), up)
        assert np.array_equal(gx, gx2)
        assert np.array_equal(gw, gw2)

    def test_finite_differences_weights(self, rng):
        bank = make_bank(rng, m=5, cin=1, c=2, n=8)
        x = rng.normal(size=(6, 6, 1))
        up = rng.normal(size=(6, 6, 16))
        _, gw = rconv_grads(x, bank, filter_major(up, 8))

        def loss(p):
            return np.sum(planes(up) * rconv_planes(x, CanonicalFilterBank(p.copy(), 8)))

        assert finite_diff_check(loss, bank.weights.copy(), gw) < 1e-4

    def test_finite_differences_input(self, rng):
        bank = make_bank(rng, m=5, cin=2, c=1, n=6)
        x = rng.normal(size=(5, 5, 2))
        up = rng.normal(size=(5, 5, 6))
        gx, _ = rconv_grads(x, bank, up)
        err = finite_diff_check(
            lambda p: np.sum(planes(up) * rconv_planes(p, bank)), x.copy(), gx
        )
        assert err < 1e-4


class TestVectorField:
    def test_identity_rotation_no_mixing(self, rng):
        bank = make_bank(rng, m=3, cin=2, c=1, n=4, kind=VECTOR)
        v = rng.normal(size=(5, 5, 2))
        y = rconv_planes(v, bank)
        want = conv2d_oracle(v, expand_rotations(bank)[:, :, :, :1], 1, 1)
        assert np.abs(y[0] - want[:, :, 0]).max() < 1e-10

    def test_hand_mixing_formula_quarter_turn(self, rng):
        # f_q = 0: the quarter-turn copy must be (f_p -> 0, f_q -> rotated f_p)
        w = np.zeros((3, 3, 2, 1))
        w[:, :, 0, 0] = rng.normal(size=(3, 3))  # p-plane only
        bank = CanonicalFilterBank(w, 4, input_kind=VECTOR)
        exp = expand_rotations(bank)
        r = 1  # quarter turn
        masked_p = (bank.weights[:, :, 0, 0] * circular_mask(3))
        assert np.abs(exp[:, :, 0, r]).max() < 1e-15  # p-filter of the copy vanishes
        assert np.array_equal(exp[:, :, 1, r], np.rot90(masked_p))

    def test_order_of_operations_cross_check(self, rng):
        # independent implementation: rotate component filters first, then mix
        bank = make_bank(rng, m=5, cin=4, c=2, n=6, kind=VECTOR)
        v = rng.normal(size=(6, 6, 4))
        got = rconv_planes(v, bank)
        mask = circular_mask(5)[:, :, None]
        cos_t, sin_t = angle_table(6)
        for c in range(2):
            for r in range(6):
                fp = rotate_grid(bank.weights[:, :, 0::2, c], 2 * math.pi * r / 6)
                fq = rotate_grid(bank.weights[:, :, 1::2, c], 2 * math.pi * r / 6)
                mp = (cos_t[r] * fp - sin_t[r] * fq) * mask
                mq = (cos_t[r] * fq + sin_t[r] * fp) * mask
                full = np.zeros((5, 5, 4, 1))
                full[:, :, 0::2, 0] = mp
                full[:, :, 1::2, 0] = mq
                want = conv2d_oracle(v, full, 1, 2)[:, :, 0]
                assert np.abs(got[r * 2 + c] - want).max() < 1e-6

    def test_odd_plane_count_rejected(self, rng):
        with pytest.raises(ShapeError):
            CanonicalFilterBank(rng.normal(size=(3, 3, 3, 1)), 4, input_kind=VECTOR)

    def test_finite_differences(self, rng):
        bank = make_bank(rng, m=3, cin=2, c=2, n=8, kind=VECTOR)
        v = rng.normal(size=(5, 5, 2))
        up = rng.normal(size=(5, 5, 16))
        gv, gw = rconv_grads(v, bank, filter_major(up, 8))

        def loss_w(p):
            b = CanonicalFilterBank(p.copy(), 8, input_kind=VECTOR)
            return np.sum(planes(up) * rconv_planes(v, b))

        assert finite_diff_check(loss_w, bank.weights.copy(), gw) < 1e-4
        err = finite_diff_check(
            lambda p: np.sum(planes(up) * rconv_planes(p, bank)), v.copy(), gv
        )
        assert err < 1e-4


class TestInvariants:
    def test_parameter_economy(self, rng):
        # exactly n times fewer parameters than an unshared conv of equal width
        for n in (4, 8, 17):
            bank = make_bank(rng, m=5, cin=3, c=4, n=n)
            standard = 5 * 5 * 3 * (4 * n)
            assert standard == n * bank.weights.size

    def test_exact_90_degree_equivariance(self, rng):
        # a quarter turn of the input turns every plane and shifts each
        # filter's rotation planes by n/4, bit for bit
        for n in (4, 8, 16):
            bank = make_bank(rng, m=5, cin=2, c=3, n=n)
            x = rng.normal(size=(10, 10, 2))
            y = rconv_planes(x, bank)
            yr = rconv_planes(np.rot90(x).copy(), bank)
            _, h, w = y.shape
            y4 = y.reshape(n, 3, h, w)
            expect = np.rot90(np.roll(y4, n // 4, axis=0), 1, axes=(2, 3))
            assert np.array_equal(yr, expect.reshape(n * 3, h, w))

    def test_approximate_equivariance_at_sampled_angle(self, rng):
        # smooth input, m >= 7, lam = 8: relative L2 of the shift-and-rotate
        # identity at the first sampled angle; threshold frozen by measurement
        n = 8
        x = smooth_random_image(24, rng)
        w = np.stack([gaussian_bump(9, 2.0) * smooth_random_image(9, rng, cells=3)[:, :, 0]
                      for _ in range(2)], axis=2)[:, :, None, :]
        bank = CanonicalFilterBank(w.copy(), n)
        alpha = 2 * math.pi / n
        y1 = rconv_planes(x, bank).reshape(n, 2, 24, 24)
        y2 = rconv_planes(rotate_grid(x, alpha), bank)
        shifted = np.roll(y1, 1, axis=0).reshape(n * 2, 24, 24)
        expect = planes(rotate_grid(np.moveaxis(shifted, 0, -1), alpha))
        crop = 6
        d = (y2 - expect)[:, crop:-crop, crop:-crop]
        rel = np.linalg.norm(d) / np.linalg.norm(expect[:, crop:-crop, crop:-crop])
        assert rel < 0.05

    @pytest.mark.parametrize("n", [4, 8])
    def test_masked_weights_stay_masked_through_updates(self, rng, n):
        # no mask is re-applied: the adjoint gives the corners zero gradient,
        # also where resampling (n = 8) spreads gradient onto them
        bank = make_bank(rng, m=5, cin=1, c=1, n=n)
        outside = circular_mask(5) == 0.0
        x = rng.normal(size=(6, 6, 1))
        vel = np.zeros_like(bank.weights)
        for _ in range(5):
            up = rng.normal(size=(6, 6, n))
            _, gw = rconv_grads(x, bank, up)
            vel = 0.9 * vel + gw
            bank.weights -= 0.05 * vel
            assert not bank.weights[outside].any()
