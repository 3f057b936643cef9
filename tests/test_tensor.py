import math

import numpy as np
import pytest

from oriconv import rconv
from oriconv.errors import NumericalError, ShapeError
from oriconv.fieldops import orientation_pool_stack
from oriconv.netblocks import RConvLayer
from oriconv.tensor import (
    TWO_PI,
    _im2col,
    _rotation_taps,
    conv2d,
    conv2d_backward,
    conv2d_filter_grad,
    finite_diff_check,
    rotate_grid,
    rotate_grid_adjoint,
    stable_sum,
)

from conftest import conv2d_oracle, gaussian_bump, planes


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(6, 7, 2)).astype(np.float32)
        f = np.zeros((3, 3, 2, 2), dtype=np.float32)
        f[1, 1, 0, 0] = 1.0
        f[1, 1, 1, 1] = 1.0
        y = conv2d(x, f)
        assert np.allclose(y, planes(x), atol=1e-7)

    def test_zero_input(self):
        x = np.zeros((5, 5, 3))
        f = np.ones((3, 3, 3, 4))
        assert not conv2d(x, f).any()

    def test_matches_loop_oracle_example(self, rng):
        x = rng.normal(size=(7, 7, 2))
        f = rng.normal(size=(3, 3, 2, 4))
        got = conv2d(x, f)
        want = conv2d_oracle(x, f, 1, 1)
        assert got.shape == (4, 7, 7) and got.flags.c_contiguous
        assert np.abs(got - planes(want)).max() < 1e-6

    def test_matches_oracle_100_random_instances(self, rng):
        # float32 within 1e-6, float64 within 1e-12; conv2d always pads m // 2
        for _ in range(100):
            h = int(rng.integers(3, 8))
            w = int(rng.integers(3, 8))
            cin = int(rng.integers(1, 3))
            cout = int(rng.integers(1, 4))
            m = int(rng.choice([1, 3]))
            x64 = 0.5 * rng.normal(size=(h, w, cin))
            f64 = 0.5 * rng.normal(size=(m, m, cin, cout))
            want = planes(conv2d_oracle(x64, f64, 1, m // 2))
            got64 = conv2d(x64, f64)
            assert np.abs(got64 - want).max() < 1e-12
            x32 = x64.astype(np.float32)
            f32 = f64.astype(np.float32)
            want32 = planes(
                conv2d_oracle(x32.astype(np.float64), f32.astype(np.float64), 1, m // 2)
            )
            got32 = conv2d(x32, f32)
            assert np.abs(got32 - want32).max() < 1e-6

    def test_channel_mismatch_rejected(self, rng):
        x = rng.normal(size=(5, 5, 2))
        f = rng.normal(size=(3, 3, 3, 1))
        with pytest.raises(ShapeError, match="channel"):
            conv2d(x, f)

    def test_even_filter_rejected(self, rng):
        with pytest.raises(ShapeError):
            conv2d(rng.normal(size=(5, 5, 1)), rng.normal(size=(2, 2, 1, 1)))

    def test_1x1_columns_are_the_input(self, rng):
        # K-major: row cin is input channel cin over every pixel, a view of x
        x = rng.normal(size=(2, 4, 5, 3)).astype(np.float32)
        cols = _im2col(x, 1)
        assert cols.shape == (2, 3, 20) and np.shares_memory(cols, x)
        assert cols.swapaxes(-1, -2).tobytes() == x.tobytes()

    def test_columns_are_windows_in_ky_kx_cin_order(self, rng):
        # K-major: row (ky*m + kx)*Cin + cin is one contiguous H*W run, and
        # column i*W + j is pixel (i, j)'s window in (ky, kx, cin) order
        x = rng.normal(size=(2, 4, 5, 3))
        cols = _im2col(x, 3)
        padded = np.pad(x, [(0, 0), (1, 1), (1, 1), (0, 0)])
        assert cols.shape == (2, 27, 20) and cols.flags.c_contiguous
        for i in range(4):
            for j in range(5):
                window = padded[:, i : i + 3, j : j + 3, :].reshape(2, 27)
                assert np.array_equal(cols[..., i * 5 + j], window)
        for ky in range(3):
            for kx in range(3):
                for c in range(3):
                    tap = padded[:, ky : ky + 4, kx : kx + 5, c].reshape(2, 20)
                    assert np.array_equal(cols[:, (ky * 3 + kx) * 3 + c], tap)


class TestConv2dNonFiniteGuard:
    """`conv2d` raises on a non-finite output: it is the only guard between
    a diverging input or filter and the pools, which can hide one."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_input_raises(self, rng, dtype):
        x = rng.normal(size=(2, 5, 6, 2)).astype(dtype)
        x[1, 3, 2, 1] = np.nan
        f = rng.normal(size=(3, 3, 2, 4)).astype(dtype)
        with pytest.raises(NumericalError):
            conv2d(x, f)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_overflow_to_inf_raises(self, dtype):
        big = np.sqrt(np.finfo(dtype).max)  # finite operands, infinite products
        x = np.full((1, 4, 4, 1), 2 * big, dtype=dtype)
        f = np.full((3, 3, 1, 2), 2 * big, dtype=dtype)
        # the guard's error, not a numpy overflow warning, reaches the caller
        with pytest.raises(NumericalError):
            conv2d(x, f)

    def test_losing_negative_inf_cannot_slip_through_the_pool(self):
        # one huge edge tap, rotated exactly by the quarter-turn copies: every
        # pixel that gets -inf on one rotation plane gets 0 on the other three
        layer = RConvLayer(3, 1, 1, 4, rconv.SCALAR, dtype=np.float32)
        layer.bank.weights[...] = 0.0
        layer.bank.weights[0, 1, 0, 0] = -1e30
        x = np.zeros((1, 5, 5, 1), dtype=np.float32)
        x[0, 2, 2, 0] = 1e30
        with np.errstate(over="ignore"):  # the unguarded planes, cast to float32
            y = planes(conv2d_oracle(x[0], rconv.expand_rotations(layer.bank)))
            y = y.astype(np.float32)
        assert np.isneginf(y).sum() == 4 and (np.isneginf(y).sum(axis=0) <= 1).all()
        stack, _, _ = orientation_pool_stack(y, 4)
        assert np.isfinite(stack).all()  # the pool alone would hide them
        with pytest.raises(NumericalError):
            layer.forward(x, training=False)


class TestConv2dBackward:
    def test_zero_upstream(self, rng):
        x = rng.normal(size=(5, 5, 2))
        f = rng.normal(size=(3, 3, 2, 3))
        gx, gf = conv2d_backward(x, f, np.zeros((5, 5, 3)))
        assert not gx.any() and not gf.any()

    def test_1x1_closed_form(self, rng):
        x = rng.normal(size=(4, 4, 2))
        f = rng.normal(size=(1, 1, 2, 3))
        up = rng.normal(size=(4, 4, 3))
        _, gf = conv2d_backward(x, f, up)
        for ci in range(2):
            for co in range(3):
                want = (x[:, :, ci] * up[:, :, co]).sum()
                assert abs(gf[0, 0, ci, co] - want) < 1e-10

    def test_finite_differences(self, rng):
        x = rng.normal(size=(6, 6, 2))
        f = rng.normal(size=(3, 3, 2, 3))
        up = rng.normal(size=(6, 6, 3))
        gx, gf = conv2d_backward(x, f, up)
        # the adjoint takes the upstream channel-last, the output is planes
        err_f = finite_diff_check(lambda p: np.sum(planes(up) * conv2d(x, p)), f.copy(), gf)
        err_x = finite_diff_check(lambda p: np.sum(planes(up) * conv2d(p, f)), x.copy(), gx)
        assert err_f < 1e-4 and err_x < 1e-4

    def test_upstream_shape_checked(self, rng):
        x = rng.normal(size=(5, 5, 1))
        f = rng.normal(size=(3, 3, 1, 1))
        with pytest.raises(ShapeError):
            conv2d_backward(x, f, np.zeros((4, 4, 1)))
        with pytest.raises(ShapeError):
            conv2d_filter_grad(x, f, np.zeros((4, 4, 1)))


class TestRotateGrid:
    def test_zero_angle_is_exact_copy(self, rng):
        src = rng.normal(size=(5, 5, 2))
        out = rotate_grid(src, 0.0)
        assert np.array_equal(out, src)

    def test_quarter_turn_index_permutation(self):
        src = np.zeros((3, 3))
        src[0, 1] = 1.0
        out = rotate_grid(src, math.pi / 2)
        want = np.zeros((3, 3))
        want[1, 0] = 1.0  # top-middle moves to left-middle (counterclockwise)
        assert np.array_equal(out, want)

    def test_all_quarter_turns_bit_exact(self, rng):
        src = rng.normal(size=(7, 7, 3))
        for k in range(4):
            out = rotate_grid(src, k * math.pi / 2)
            assert np.array_equal(out, np.rot90(src, k))

    def test_roundtrip_smooth_bump(self):
        g = gaussian_bump(9, sigma=1.4)
        fwd = rotate_grid(g, math.pi / 4)
        back = rotate_grid(fwd, -math.pi / 4)
        rms = math.sqrt(float(np.mean((back - g) ** 2)))
        assert rms < 0.05

    def test_mass_preserved_smooth_nonneg(self):
        # bilinear leakage bound, measured not assumed; bumps must decay
        # within the support or mass genuinely leaves through the corners
        for m, sigma in ((7, 1.1), (9, 1.4), (13, 2.0)):
            g = gaussian_bump(m, sigma)
            for angle in (0.3, 0.7, 1.1, 2.0):
                out = rotate_grid(g, angle)
                assert abs(out.sum() / g.sum() - 1.0) < 0.02

    def test_zero_outside_support(self):
        out = rotate_grid(np.ones((9, 9)), math.pi / 4)
        # corners sample more than a pixel outside the source and read zero
        assert out[0, 0] == out[0, 8] == out[8, 0] == out[8, 8] == 0.0
        assert out[4, 4] == 1.0

    def test_angle_taken_modulo_two_pi(self, rng):
        # cos/sin of -a and 2*pi - a differ in the last bit; both must
        # sample the same taps
        g = rng.normal(size=(9, 9, 2))
        for angle in (math.pi / 4, 0.3, 2.0):
            for fn in (rotate_grid, rotate_grid_adjoint):
                want = fn(g, 2 * math.pi - angle)
                assert fn(g, -angle).tobytes() == want.tobytes()

    def test_adjoint_identity(self, rng):
        # <R a, b> == <a, R^T b> for the bilinear sampling map
        a = rng.normal(size=(7, 7))
        b = rng.normal(size=(7, 7))
        for angle in (0.4, 1.2, math.pi / 2):
            lhs = float(np.sum(rotate_grid(a, angle) * b))
            rhs = float(np.sum(a * rotate_grid_adjoint(b, angle)))
            assert abs(lhs - rhs) < 1e-10


def rotate_grid_oracle(src, angle):
    """The per-tap resampling loop: each tap's gather times its weight, added
    onto zeros in tap order."""
    m = src.shape[0]
    flat = src.reshape(m * m, -1)
    indices, weights = _rotation_taps(m, float(angle) % TWO_PI)
    out = np.zeros_like(flat)
    for t in range(4):
        out += flat[indices[t]] * weights[t][:, None].astype(flat.dtype)
    return out.reshape(src.shape)


def rotate_grid_adjoint_oracle(grad, angle):
    """The per-tap scatter: one flat `np.add.at` per tap, in tap order, so
    each element gets its terms in tap, then output-pixel order."""
    m = grad.shape[0]
    flat = grad.reshape(m * m, -1)
    cols = flat.shape[1]
    indices, weights = _rotation_taps(m, float(angle) % TWO_PI)
    out = np.zeros(m * m * cols, dtype=flat.dtype)
    lanes = np.arange(cols)
    for t in range(4):
        dest = (indices[t][:, None] * cols + lanes).ravel()
        np.add.at(out, dest, (flat * weights[t][:, None].astype(flat.dtype)).ravel())
    return out.reshape(grad.shape)


def signed_zero_grid(rng, shape, dtype):
    """Normal draws with about a third of the entries set to -0.0 or +0.0,
    so sums of zero terms show the sign their order gives them."""
    a = rng.normal(size=shape).astype(dtype)
    pick = rng.integers(0, 6, size=shape)
    a[pick == 0] = -0.0
    a[pick == 1] = 0.0
    return a


class TestRotateGridOracle:
    """`rotate_grid` and its adjoint give the per-tap loops' bytes: a
    reordered sum differs in the last bit, or in the sign of a zero."""

    ANGLES = (0.3, math.pi / 4, TWO_PI / 12, TWO_PI * 5 / 6, 2.0, 4.0, -0.7)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("trailing", [(), (3,), (2, 4)])
    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_bit_identical_to_per_tap_loops(self, rng, m, trailing, dtype):
        for angle in self.ANGLES:
            for a in (signed_zero_grid(rng, (m, m) + trailing, dtype),
                      np.full((m, m) + trailing, -0.0, dtype=dtype)):
                got = rotate_grid(a, angle)
                assert got.dtype == dtype and got.shape == a.shape
                assert got.tobytes() == rotate_grid_oracle(a, angle).tobytes()
                back = rotate_grid_adjoint(a, angle)
                assert back.dtype == dtype and back.shape == a.shape
                assert back.tobytes() == rotate_grid_adjoint_oracle(a, angle).tobytes()

    def test_all_negative_zero_input_gives_positive_zeros(self):
        # the sums start from +0.0, so four -0.0 terms add up to +0.0
        a = np.full((5, 5, 2), -0.0)
        for fn in (rotate_grid, rotate_grid_adjoint):
            out = fn(a, 0.3)
            assert not np.signbit(out).any()


class TestFiniteDiffCheck:
    def test_quadratic_exact(self, rng):
        p = rng.normal(size=(4, 3))
        err = finite_diff_check(lambda q: np.sum(q**2), p.copy(), 2 * p, step=1e-4)
        assert err < 1e-8

    def test_detects_scaled_gradient(self, rng):
        p = rng.normal(size=(5,)) + 2.0
        err = finite_diff_check(lambda q: np.sum(q**2), p.copy(), 4 * p, step=1e-4)
        assert abs(err - 0.5) < 1e-6

    def test_requires_float64(self, rng):
        p = rng.normal(size=(3,)).astype(np.float32)
        with pytest.raises(ValueError):
            finite_diff_check(lambda q: np.sum(q**2), p, 2 * p)


class TestStableSum:
    def test_permutation_invariant_in_float64(self, rng):
        a = rng.normal(size=(257,)).astype(np.float64) * rng.lognormal(0, 4, 257)
        s1 = stable_sum(a[None, :], axis=1)[0]
        perm = rng.permutation(257)
        s2 = stable_sum(a[perm][None, :], axis=1)[0]
        assert s1 == s2

    def test_float32_plain_sum(self):
        a = np.ones((2, 4), dtype=np.float32)
        assert np.array_equal(stable_sum(a, axis=1), np.full(2, 4.0, dtype=np.float32))
