import math

import numpy as np
import pytest

from oriconv import fieldops
from oriconv.errors import ShapeError
from oriconv.fieldops import (
    VFBNState,
    field_batch_norm,
    field_batch_norm_backward,
    field_magnitudes,
    orientation_pool_backward,
    orientation_pool_stack,
    rotate_stack_90,
    split_stack,
    vf_max_pool,
    vf_max_pool_backward,
)
from oriconv.rconv import CanonicalFilterBank, angle_table, expand_rotations
from oriconv.tensor import conv2d, finite_diff_check

from conftest import planes


# ---------------------------------------------------------------------------
# Oracles: the argmax / take_along_axis orientation pool with its gate, on
# channel-last rotation-major responses [..., H, W, n*C] (channel r*C + c;
# the tests feed the pool their `planes`), and its put_along_axis adjoint,
# whose gradient is filter-major [..., H, W, C*n] (channel c*n + r); the
# per-component vector-field max pool and its adjoint, verbatim but for the
# padding helper.


def orientation_pool_oracle(y, n):
    c = y.shape[-1] // n
    y4 = y.reshape(y.shape[:-1] + (n, c)).swapaxes(-1, -2)
    winners = np.argmax(y4, axis=-1)  # first max wins ties
    rho = np.take_along_axis(y4, winners[..., None], axis=-1)[..., 0]
    gated = np.maximum(rho, 0)
    cos_t, sin_t = angle_table(n)
    cos_w = cos_t[winners].astype(y.dtype)
    sin_w = sin_t[winners].astype(y.dtype)
    stack = np.empty(y.shape[:-1] + (2 * c,), dtype=y.dtype)
    stack[..., 0::2] = gated * cos_w
    stack[..., 1::2] = gated * sin_w
    return stack, winners, rho > 0


def orientation_pool_backward_oracle(winners, gate, n, upstream_stack):
    dtype = upstream_stack.dtype
    cos_t, sin_t = angle_table(n)
    up_p = upstream_stack[..., 0::2]
    up_q = upstream_stack[..., 1::2]
    gval = gate * (
        cos_t[winners].astype(dtype) * up_p + sin_t[winners].astype(dtype) * up_q
    )
    grad4 = np.zeros(winners.shape + (n,), dtype=dtype)
    np.put_along_axis(grad4, winners[..., None], gval[..., None], axis=-1)
    return grad4.reshape(winners.shape[:-1] + (-1,))


def _pool_pad(x, w, fill):
    h, wd = x.shape[:2]
    return np.pad(x, [(0, (-h) % w), (0, (-wd) % w), (0, 0)], constant_values=fill)


def vf_max_pool_oracle(stack, w):
    p, q = split_stack(stack)
    rho = np.hypot(p, q)
    rho = _pool_pad(rho, w, -np.inf)
    pp = _pool_pad(p, w, 0.0)
    qp = _pool_pad(q, w, 0.0)
    h, wd, c = rho.shape
    rt = rho.reshape(h // w, w, wd // w, w, c).transpose(0, 2, 4, 1, 3).reshape(
        h // w, wd // w, c, w * w
    )
    winners = np.argmax(rt, axis=3)
    out = np.empty((h // w, wd // w, 2 * c), dtype=stack.dtype)
    for comp, plane in ((0, pp), (1, qp)):
        t = plane.reshape(h // w, w, wd // w, w, c).transpose(0, 2, 4, 1, 3).reshape(
            h // w, wd // w, c, w * w
        )
        out[..., comp::2] = np.take_along_axis(t, winners[..., None], axis=3)[..., 0]
    return out, winners


def vf_max_pool_backward_oracle(stack_shape, w, winners, upstream):
    h, wd, c2 = stack_shape
    c = c2 // 2
    hp, wp = h + ((-h) % w), wd + ((-wd) % w)
    grad = np.zeros((hp, wp, c2), dtype=upstream.dtype)
    for comp in (0, 1):
        flat = np.zeros((hp // w, wp // w, c, w * w), dtype=upstream.dtype)
        np.put_along_axis(
            flat, winners[..., None], upstream[..., comp::2][..., None], axis=3
        )
        tiles = flat.reshape(hp // w, wp // w, c, w, w).transpose(0, 3, 1, 4, 2)
        grad[..., comp::2] = tiles.reshape(hp, wp, c)
    return grad[:h, :wd, :]


def pooled_field(y, n):
    """p, q, magnitude and angle in [0, 2*pi) of the pooled [H, W, C*n]
    responses, read from the stack with `np.hypot` and `np.arctan2`."""
    stack, _, _ = orientation_pool_stack(planes(y), n)
    p, q = split_stack(stack)
    return p, q, np.hypot(p, q), np.arctan2(q, p) % (2 * math.pi)


class TestOrientationPool:
    def test_hand_example(self):
        y = np.zeros((1, 1, 4))
        y[0, 0] = [0.2, -0.5, 0.9, 0.1]
        p, q, rho, angle = pooled_field(y, 4)
        assert rho[0, 0, 0] == pytest.approx(0.9)
        assert angle[0, 0, 0] == pytest.approx(math.pi)
        assert p[0, 0, 0] == pytest.approx(-0.9)
        assert q[0, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_all_negative_clamps_to_zero(self):
        y = -np.ones((2, 2, 6))
        p, q, _, _ = pooled_field(y, 6)
        assert not p.any() and not q.any()

    def test_tie_breaks_to_smallest_rotation(self):
        y = np.full((1, 1, 4), 0.7)
        p, q, _, angle = pooled_field(y, 4)
        assert angle[0, 0, 0] == 0.0
        assert p[0, 0, 0] == pytest.approx(0.7)
        assert q[0, 0, 0] == pytest.approx(0.0)

    def test_magnitude_equals_relu_max(self, rng):
        y = rng.normal(size=(5, 6, 8))
        _, _, rho, _ = pooled_field(y, 8)
        want = np.maximum(y.max(axis=2), 0.0)
        assert np.allclose(rho[..., 0], want)

    def test_multi_filter_stack_layout(self, rng):
        y = rng.normal(size=(4, 4, 12))  # 4 rotations x 3 filters
        stack, winners, gate = orientation_pool_stack(planes(y), 4)
        assert stack.shape == (4, 4, 6) and winners.shape == gate.shape == (3, 4, 4)
        assert stack.flags.c_contiguous
        single, _, _ = orientation_pool_stack(planes(y[:, :, 1::3]), 4)
        assert np.array_equal(stack[:, :, 2:4], single)

    def test_planes_must_split_into_rotations(self):
        with pytest.raises(ShapeError):
            orientation_pool_stack(np.zeros((7, 2, 2)), 4)
        with pytest.raises(ShapeError):
            orientation_pool_stack(np.zeros((8, 2)), 4)

    def test_angle_zero_where_magnitude_zero(self):
        _, _, rho, angle = pooled_field(np.zeros((2, 2, 4)), 4)
        assert not rho.any() and not angle.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 16, 17, 24, 256, 257])
    @pytest.mark.parametrize("values", ["normal", "signed_zeros", "integer_ties", "negative"])
    def test_matches_argmax_oracle(self, rng, dtype, n, values):
        # the pool reads planes; winners and gate come back as planes too
        shape = (2, 3, 5, 3 * n)
        if values == "normal":
            y = rng.normal(size=shape)
        elif values == "signed_zeros":  # +0.0 and -0.0 tie, with a few +-1
            y = rng.choice([-0.0, 0.0, 0.0, -0.0, 1.0, -1.0], size=shape)
        elif values == "integer_ties":
            y = rng.integers(-2, 3, size=shape).astype(np.float64)
        else:  # every response negative, with ties
            y = -rng.integers(1, 4, size=shape).astype(np.float64)
        y[0, 0, 0, (n - 1) * 3] = y.max() + 1  # the last rotation wins somewhere
        y = y.astype(dtype)
        stack, winners, gate = orientation_pool_stack(planes(y), n)
        want_stack, want_winners, want_gate = orientation_pool_oracle(y, n)
        assert stack.dtype == want_stack.dtype and stack.tobytes() == want_stack.tobytes()
        assert winners.dtype == np.min_scalar_type(n - 1) and winners[0, 0, 0, 0] == n - 1
        assert np.array_equal(winners, planes(want_winners))
        assert gate.dtype == bool and gate.tobytes() == planes(want_gate).tobytes()
        up = rng.normal(size=stack.shape).astype(dtype)
        got = orientation_pool_backward(winners, gate, n, up)
        want = orientation_pool_backward_oracle(want_winners, want_gate, n, up)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_wide_rotation_axis_uses_uint16_winners(self, rng):
        y = rng.integers(-3, 4, size=(1, 1, 2 * 300)).astype(np.float32)
        y[0, 0, 280 * 2 + 1] = 9.0  # second filter wins past uint8's range
        stack, winners, gate = orientation_pool_stack(planes(y), 300)
        want_stack, want_winners, want_gate = orientation_pool_oracle(y, 300)
        assert winners.dtype == np.uint16 and winners[1, 0, 0] == 280
        assert np.array_equal(winners, planes(want_winners))
        assert stack.tobytes() == want_stack.tobytes()
        assert gate.tobytes() == planes(want_gate).tobytes()
        up = rng.normal(size=stack.shape).astype(np.float32)
        got = orientation_pool_backward(winners, gate, 300, up)
        assert got.tobytes() == orientation_pool_backward_oracle(
            want_winners, want_gate, 300, up).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("nan_at", [(0,), (3,), (3, 5), (7,)])
    def test_nan_wins_at_its_first_rotation(self, rng, dtype, nan_at):
        # as in argmax, the oracle: the field is NaN and the winner is the
        # first NaN rotation. A running max would drop a NaN after rotation
        # 0; a plain reduction would find no rotation equal to a NaN max.
        y = rng.normal(size=(2, 3, 4, 2 * 8)).astype(dtype)
        for r in nan_at:
            y[1, 2, 0, r * 2 + 1] = np.nan  # filter 1 at one pixel
        stack, winners, gate = orientation_pool_stack(planes(y), 8)
        want_stack, want_winners, want_gate = orientation_pool_oracle(y, 8)
        assert np.isnan(stack).sum() == 2 and np.isnan(stack[1, 2, 0, 2:]).all()
        assert winners[1, 1, 2, 0] == nan_at[0] and not gate[1, 1, 2, 0]
        assert np.array_equal(winners, planes(want_winners))
        assert stack.tobytes() == want_stack.tobytes()
        assert gate.tobytes() == planes(want_gate).tobytes()
        up = rng.normal(size=stack.shape).astype(dtype)
        got = orientation_pool_backward(winners, gate, 8, up)
        assert got.tobytes() == orientation_pool_backward_oracle(
            want_winners, want_gate, 8, up).tobytes()


class TestOrientationPoolBackward:
    def test_zero_upstream(self, rng):
        y = rng.normal(size=(8, 3, 3))
        _, winners, gate = orientation_pool_stack(y, 8)
        g = orientation_pool_backward(winners, gate, 8, np.zeros((3, 3, 2)))
        assert not g.any()

    def test_single_pixel_angle_zero(self):
        y = np.zeros((4, 1, 1))
        y[:, 0, 0] = [2.0, 1.0, 0.0, -1.0]  # winner r=0, theta=0
        _, winners, gate = orientation_pool_stack(y, 4)
        up = np.zeros((1, 1, 2))
        up[0, 0, 0] = 0.7  # upstream on p only
        g = orientation_pool_backward(winners, gate, 4, up)
        assert g[0, 0, 0] == pytest.approx(0.7)
        assert not g[0, 0, 1:].any()

    def test_finite_differences_away_from_ties(self, rng):
        for _ in range(5):
            y = rng.normal(size=(4, 4, 2 * 6))
            y4 = y.reshape(4, 4, 6, 2)
            srt = np.sort(y4, axis=2)
            gap = srt[..., -1, :] - srt[..., -2, :]
            if gap.min() < 1e-3 or np.abs(y4.max(axis=2)).min() < 1e-3:
                continue  # exclude near-ties and near-zero magnitudes
            stack, winners, gate = orientation_pool_stack(planes(y), 6)
            up = rng.normal(size=stack.shape)
            g = orientation_pool_backward(winners, gate, 6, up)
            # the adjoint is filter-major, the responses rotation-major
            g = g.reshape(4, 4, 2, 6).swapaxes(-1, -2).reshape(4, 4, 12)

            def loss(p):
                s, _, _ = orientation_pool_stack(planes(p), 6)
                return np.sum(up * s)

            assert finite_diff_check(loss, y.copy(), g, step=1e-5) < 1e-4


class TestVfMaxPool:
    def test_selects_vector_of_max_magnitude(self):
        v = np.zeros((2, 2, 2))
        v[0, 0] = [1, 0]
        v[0, 1] = [0, 3]
        v[1, 0] = [-2, 0]
        v[1, 1] = [0, 0]
        pooled, _ = vf_max_pool(v, 2)
        assert tuple(pooled[0, 0]) == (0.0, 3.0)

    def test_zero_field(self):
        pooled, _ = vf_max_pool(np.zeros((4, 4, 6)), 2)
        assert not pooled.any()

    def test_single_vector_window_identity(self, rng):
        v = rng.normal(size=(3, 3, 4))
        pooled, _ = vf_max_pool(v, 1)
        assert np.array_equal(pooled, v)

    def test_never_fabricates_vectors(self, rng):
        v = rng.normal(size=(6, 6, 4))
        pooled, _ = vf_max_pool(v, 2)
        for c in range(2):
            for i in range(3):
                for j in range(3):
                    window = v[2 * i : 2 * i + 2, 2 * j : 2 * j + 2, 2 * c : 2 * c + 2]
                    pair = tuple(pooled[i, j, 2 * c : 2 * c + 2])
                    assert any(
                        pair == tuple(window[a, b]) for a in range(2) for b in range(2)
                    )

    def test_row_major_tie_break(self):
        v = np.zeros((2, 2, 2))
        v[0, 0] = [0, 2]
        v[1, 1] = [2, 0]  # same magnitude; first in row-major order wins
        pooled, _ = vf_max_pool(v, 2)
        assert tuple(pooled[0, 0]) == (0.0, 2.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, w", [((7, 9, 6), 4), ((5, 6, 4), 4), ((8, 8, 8), 2),
                                          ((6, 6, 2), 1), ((9, 7, 10), 3), ((3, 2, 4), 5),
                                          ((17, 18, 2), 17), ((20, 16, 4), 16)])
    @pytest.mark.parametrize("values", ["normal", "ties", "sparse"])
    def test_matches_per_component_oracle(self, rng, dtype, shape, w, values):
        if values == "normal":
            v = rng.normal(size=shape)
        elif values == "ties":  # equal magnitudes across each window
            v = rng.integers(-1, 2, size=shape).astype(np.float64)
        else:  # mostly zero vectors
            v = np.zeros(shape)
            v[::3, ::2] = rng.normal(size=v[::3, ::2].shape)
        last = w <= min(shape[:2])
        if last:  # the last window position wins the first window
            v[w - 1, w - 1, :2] = (2 * np.abs(v).max() + 1, 0.0)
        v = v.astype(dtype)
        got, got_winners = vf_max_pool(v, w)
        want, want_winners = vf_max_pool_oracle(v, w)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_winners.dtype == np.min_scalar_type(w * w - 1)
        assert not last or got_winners[0, 0, 0] == w * w - 1
        assert np.array_equal(got_winners, want_winners)
        up = rng.normal(size=want.shape).astype(dtype)
        got = vf_max_pool_backward(v.shape, w, got_winners, up)
        want = vf_max_pool_backward_oracle(v.shape, w, want_winners, up)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, nans", [
        ((4, 4, 2), [(1, 1)]),          # even windows, at the last position
        ((4, 4, 4), [(2, 3), (3, 2)]),  # two in one window: the first wins
        ((5, 5, 2), [(4, 4)]),          # ragged: the rest of its window is padding
        ((5, 6, 2), [(4, 1)]),
    ])
    def test_nan_window_pools_its_first_nan(self, rng, dtype, shape, nans):
        # as in argmax, the oracle. A running max would drop a NaN after
        # window position 0; a plain reduction would find no position equal
        # to a NaN max and land on the last, padding in a ragged window.
        v = rng.uniform(0.1, 1.0, size=(2,) + shape).astype(dtype)
        for i, j in nans:
            v[0, i, j, 0] = np.nan  # image 0, so a winner past its end reads image 1
        pooled, winners = vf_max_pool(v, 2)
        up = rng.normal(size=pooled.shape).astype(dtype)
        grad = vf_max_pool_backward(v.shape, 2, winners, up)
        for b in range(2):
            want, want_winners = vf_max_pool_oracle(v[b], 2)
            assert pooled[b].tobytes() == want.tobytes()
            assert np.array_equal(winners[b], want_winners)
            assert grad[b].tobytes() == vf_max_pool_backward_oracle(
                shape, 2, want_winners, up[b]).tobytes()
        nan_windows = {(i // 2, j // 2) for i, j in nans}
        assert {tuple(ij) for ij in np.argwhere(np.isnan(pooled[0, ..., 0]))} == nan_windows
        assert np.isnan(pooled).sum() == len(nan_windows)
        a, b = np.divmod(winners, 2)
        rows = 2 * np.arange(winners.shape[1])[:, None, None] + a
        cols = 2 * np.arange(winners.shape[2])[None, :, None] + b
        assert (rows < shape[0]).all() and (cols < shape[1]).all()

    def test_backward_finite_differences(self, rng):
        v = rng.normal(size=(4, 4, 4))
        pooled, winners = vf_max_pool(v, 2)
        up = rng.normal(size=pooled.shape)
        g = vf_max_pool_backward(v.shape, 2, winners, up)

        def loss(p):
            out, _ = vf_max_pool(p, 2)
            return np.sum(up * out)

        assert finite_diff_check(loss, v.copy(), g, step=1e-6) < 1e-4


class TestFieldBatchNorm:
    def test_unit_variance_magnitudes_unchanged(self):
        # magnitudes alternate 0 and 2 -> variance exactly 1
        batch = np.zeros((1, 2, 2, 2))
        batch[0, 0, 0] = [2.0, 0.0]
        batch[0, 1, 1] = [0.0, 2.0]
        st = VFBNState.create(1)
        out, _ = field_batch_norm(batch, st, training=True)
        assert np.allclose(out, batch, atol=1e-4)

    def test_scale_invariance(self, rng):
        batch = rng.normal(size=(2, 4, 4, 4))
        st1, st2 = VFBNState.create(2), VFBNState.create(2)
        o1, _ = field_batch_norm(batch, st1, training=True)
        o2, _ = field_batch_norm(7.5 * batch, st2, training=True)
        assert np.allclose(o1, o2, atol=1e-4)

    def test_zero_field_stays_zero(self):
        st = VFBNState.create(3)
        out, _ = field_batch_norm(np.zeros((1, 3, 3, 6)), st, training=True)
        assert not out.any() and np.isfinite(out).all()

    def test_angles_preserved(self, rng):
        batch = rng.normal(size=(2, 5, 5, 6))
        st = VFBNState.create(3)
        out, _ = field_batch_norm(batch, st, training=True)
        pin, qin = split_stack(batch)
        pout, qout = split_stack(out)
        assert np.allclose(np.arctan2(qin, pin), np.arctan2(qout, pout), atol=1e-6)

    def test_post_norm_variance_is_one(self, rng):
        batch = 3.0 * rng.normal(size=(3, 6, 6, 4))
        st = VFBNState.create(2)
        out, _ = field_batch_norm(batch, st, training=True)
        rho = np.hypot(*split_stack(out))
        var = rho.reshape(-1, 2).var(axis=0)
        assert np.abs(var - 1.0).max() < 1e-3  # eps-adjusted

    def test_eval_before_training_uses_unit_running_var(self, rng):
        batch = rng.normal(size=(1, 4, 4, 2))
        st = VFBNState.create(1)
        out, _ = field_batch_norm(batch, st, training=False)
        assert np.allclose(out, batch / math.sqrt(1.0 + st.eps))

    def test_running_stats_momentum(self, rng):
        batch = rng.normal(size=(2, 8, 8, 2))
        st = VFBNState.create(1, momentum=0.9)
        rho = np.hypot(*split_stack(batch))
        bvar = rho.reshape(-1).var()
        field_batch_norm(batch, st, training=True)
        assert st.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * bvar, rel=1e-6)

    def test_backward_finite_differences(self, rng):
        batch = rng.normal(size=(1, 4, 4, 4))
        up = rng.normal(size=batch.shape)
        st = VFBNState.create(2)
        _, cache = field_batch_norm(batch, st, training=True)
        g = field_batch_norm_backward(cache, up)

        def loss(p):
            out, _ = field_batch_norm(p, VFBNState.create(2), training=True)
            return np.sum(up * out)

        assert finite_diff_check(loss, batch.copy(), g, step=1e-5) < 1e-4


def finite_float32(rng, n):
    """n float32 values of random sign, mantissa and exponent, subnormals
    and zeros included, no inf or NaN."""
    bits = rng.integers(0, 2**32, size=n, dtype=np.uint64).astype(np.uint32)
    top = (bits >> 23) & 0xFF == 0xFF
    bits[top] ^= np.uint32(1 << 23)  # exponent 255 (inf, NaN) -> 254
    return bits.view(np.float32)


SPECIALS32 = np.array(
    [0.0, -0.0, np.nextafter(np.float32(0), np.float32(1)),
     np.finfo(np.float32).max, -np.finfo(np.float32).max, np.inf, -np.inf, np.nan],
    dtype=np.float32,
)


def hypot_reference(p, q):
    with np.errstate(over="ignore"):  # np.hypot warns where it overflows
        return np.hypot(p, q)


def interleave(p, q):
    """The field stack [..., 2C] of p and q planes [..., C]."""
    return np.stack([p, q], axis=-1).reshape(p.shape[:-1] + (-1,))


class TestFieldMagnitudes:
    def test_float32_random_pairs_match_hypot_bitwise(self, rng):
        p = finite_float32(rng, 200_000)
        q = finite_float32(rng, 200_000)
        # and partners within two binades of p, where both squares count:
        # p's sign, its exponent moved by -2..2 and a random mantissa
        bits = p.view(np.uint32)
        exponent = np.clip((bits >> 23 & 0xFF).astype(np.int64)
                           + rng.integers(-2, 3, size=p.size), 0, 254)
        near = ((bits & np.uint32(0x80000000)) | (exponent.astype(np.uint32) << 23)
                | rng.integers(0, 1 << 23, size=p.size).astype(np.uint32)).view(np.float32)
        for a, b in ((p, q), (p, near), (near, p)):
            got = field_magnitudes(interleave(a, b))
            assert got.dtype == np.float32
            assert got.tobytes() == hypot_reference(a, b).tobytes()

    def test_float32_special_grid_matches_hypot_bitwise(self):
        p, q = np.meshgrid(SPECIALS32, SPECIALS32, indexing="ij")
        got = field_magnitudes(interleave(p, q))
        assert got.tobytes() == hypot_reference(p, q).tobytes()
        assert np.isinf(got[5, 7]) and np.isnan(got[0, 7])  # hypot(inf, nan) = inf

    def test_float64_matches_hypot_bitwise(self, rng):
        p = rng.normal(size=1000) * 10.0 ** rng.integers(-300, 300, size=1000)
        q = rng.normal(size=1000) * 10.0 ** rng.integers(-300, 300, size=1000)
        specials = SPECIALS32.astype(np.float64)
        sp, sq = np.meshgrid(specials, specials, indexing="ij")
        for a, b in ((p, q), (sp, sq)):
            assert field_magnitudes(interleave(a, b)).tobytes() == hypot_reference(a, b).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_strided_view_gives_c_ordered_magnitudes(self, rng, dtype):
        stack = rng.normal(size=(2, 5, 3, 8)).astype(dtype)
        view = stack.transpose(2, 0, 1, 3)
        got = field_magnitudes(view)
        assert got.flags.c_contiguous and got.shape == (3, 2, 5, 4)
        assert got.tobytes() == np.ascontiguousarray(np.hypot(*split_stack(view))).tobytes()
        with pytest.raises(ShapeError):
            field_magnitudes(stack[..., :7])


class TestFieldBatchNormEval:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_scales_by_running_var_without_magnitudes(self, rng, dtype):
        batch = rng.normal(size=(2, 3, 4, 6)).astype(dtype)
        st = VFBNState.create(3)
        st.running_var = rng.uniform(0.5, 2.0, size=3)
        out, cache = field_batch_norm(batch, st, training=False)
        scale = (1.0 / np.sqrt(st.running_var + st.eps)).astype(dtype)
        want = np.empty_like(batch)
        want[..., 0::2] = batch[..., 0::2] * scale
        want[..., 1::2] = batch[..., 1::2] * scale
        assert out.tobytes() == want.tobytes()
        # the eval cache holds no magnitudes, and its backward needs none
        _, rho, *_ = cache
        assert rho is None
        up = rng.normal(size=batch.shape).astype(dtype)
        g = field_batch_norm_backward(cache, up)
        assert g.tobytes() == (up * np.repeat(scale, 2)).tobytes()

    def test_training_cache_keeps_magnitudes(self, rng):
        batch = rng.normal(size=(1, 3, 3, 4))
        _, (_, rho, *_) = field_batch_norm(batch, VFBNState.create(2), training=True)
        assert np.array_equal(rho, np.hypot(*split_stack(batch)))


class TestVfMaxPoolIndex:
    def test_shape_only_index_is_cached_read_only(self, rng):
        v = rng.normal(size=(2, 6, 7, 4)).astype(np.float32)
        base, offset = fieldops._window_base(v.shape, 3)
        assert fieldops._window_base(v.shape, 3)[0] is base
        assert not base.flags.writeable and not offset.flags.writeable
        assert base.shape == (2, 2, 3, 2) and offset.shape == (9,)
        pooled, winners = vf_max_pool(v, 3)
        per_image = [vf_max_pool(vi, 3) for vi in v]
        assert pooled.tobytes() == np.stack([p for p, _ in per_image]).tobytes()
        assert winners.tobytes() == np.stack([w for _, w in per_image]).tobytes()


class TestRotateStack90:
    @pytest.mark.parametrize("shape", [(2, 4, 4, 2), (3, 4, 5, 2), (2, 1, 3, 6, 4)])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, -1, 5])
    def test_batch_equals_its_per_image_rotations(self, rng, shape, k):
        batch = rng.normal(size=shape)
        got = rotate_stack_90(batch, k)
        flat = batch.reshape((-1,) + shape[-3:])
        want = np.stack([rotate_stack_90(img, k) for img in flat])
        assert got.shape == shape[:-3] + want.shape[1:]
        assert got.tobytes() == want.tobytes()

    def test_single_image_turns_its_maps_and_vectors(self):
        stack = np.arange(4 * 5 * 4, dtype=np.float64).reshape(4, 5, 4)
        got = rotate_stack_90(stack, 1)
        spatial = np.rot90(stack, 1, axes=(0, 1))
        assert got.shape == (5, 4, 4)
        assert np.array_equal(got[..., 0::2], -spatial[..., 1::2])
        assert np.array_equal(got[..., 1::2], spatial[..., 0::2])


class TestRotationCovariance:
    def test_pooled_field_rotates_with_image(self, rng):
        # 90-degree covariance of rconv + orientation pooling, bit-exact
        for n in (4, 8):
            w = rng.normal(size=(5, 5, 1, 3))
            f = expand_rotations(CanonicalFilterBank(w.copy(), n))
            x = rng.normal(size=(12, 12, 1))
            f1, _, _ = orientation_pool_stack(conv2d(x, f), n)
            f2, _, _ = orientation_pool_stack(conv2d(np.rot90(x).copy(), f), n)
            assert np.array_equal(f2, rotate_stack_90(f1, 1))

    def test_vfbn_commutes_with_rotation(self, rng):
        batch = rng.normal(size=(1, 6, 6, 4))
        st1, st2 = VFBNState.create(2), VFBNState.create(2)
        o1, _ = field_batch_norm(batch, st1, training=True)
        rot = np.stack([rotate_stack_90(batch[0], 1)])
        o2, _ = field_batch_norm(rot, st2, training=True)
        assert np.array_equal(o2[0], rotate_stack_90(o1[0], 1))
