import math

import numpy as np
import pytest

from oriconv.fieldops import (
    VFBNState,
    VectorField,
    _pool_pad,
    field_batch_norm,
    field_batch_norm_backward,
    max_pool,
    max_pool_backward,
    orientation_pool,
    orientation_pool_backward,
    orientation_pool_gate,
    orientation_pool_stack,
    rotate_stack_90,
    split_stack,
    vf_max_pool,
    vf_max_pool_backward,
)
from oriconv.rconv import CanonicalFilterBank, rconv_forward
from oriconv.tensor import finite_diff_check

from conftest import max_pool_oracle


# ---------------------------------------------------------------------------
# Oracle: the per-component vector-field max pool and its adjoint that the
# shared `max_pool` tiling replaced, kept verbatim.


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


class TestOrientationPool:
    def test_hand_example(self):
        y = np.zeros((1, 1, 4))
        y[0, 0] = [0.2, -0.5, 0.9, 0.1]
        vf = orientation_pool(y)
        assert vf.magnitude[0, 0] == pytest.approx(0.9)
        assert vf.angle[0, 0] == pytest.approx(math.pi)
        assert vf.p[0, 0] == pytest.approx(-0.9)
        assert vf.q[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_all_negative_clamps_to_zero(self):
        y = -np.ones((2, 2, 6))
        vf = orientation_pool(y)
        assert not vf.p.any() and not vf.q.any()

    def test_tie_breaks_to_smallest_rotation(self):
        y = np.full((1, 1, 4), 0.7)
        vf = orientation_pool(y)
        assert vf.angle[0, 0] == 0.0
        assert vf.p[0, 0] == pytest.approx(0.7)
        assert vf.q[0, 0] == pytest.approx(0.0)

    def test_magnitude_equals_relu_max(self, rng):
        y = rng.normal(size=(5, 6, 8))
        vf = orientation_pool(y)
        want = np.maximum(y.max(axis=2), 0.0)
        assert np.allclose(vf.magnitude, want)

    def test_multi_filter_stack_layout(self, rng):
        y = rng.normal(size=(4, 4, 12))  # 3 filters x 4 rotations
        stack, winners = orientation_pool_stack(y, 4)
        assert stack.shape == (4, 4, 6) and winners.shape == (4, 4, 3)
        single = orientation_pool(y[:, :, 4:8])
        assert np.array_equal(stack[:, :, 2], single.p)
        assert np.array_equal(stack[:, :, 3], single.q)

    def test_angle_zero_where_magnitude_zero(self):
        vf = VectorField(np.zeros((2, 2)), np.zeros((2, 2)))
        assert not vf.angle.any()


class TestOrientationPoolBackward:
    def test_zero_upstream(self, rng):
        y = rng.normal(size=(3, 3, 8))
        _, winners = orientation_pool_stack(y, 8)
        g = orientation_pool_backward(
            winners, orientation_pool_gate(y, 8, winners), 8, np.zeros((3, 3, 2))
        )
        assert not g.any()

    def test_single_pixel_angle_zero(self):
        y = np.zeros((1, 1, 4))
        y[0, 0] = [2.0, 1.0, 0.0, -1.0]  # winner r=0, theta=0
        _, winners = orientation_pool_stack(y, 4)
        up = np.zeros((1, 1, 2))
        up[0, 0, 0] = 0.7  # upstream on p only
        g = orientation_pool_backward(winners, orientation_pool_gate(y, 4, winners), 4, up)
        assert g[0, 0, 0] == pytest.approx(0.7)
        assert not g[0, 0, 1:].any()

    def test_finite_differences_away_from_ties(self, rng):
        for _ in range(5):
            y = rng.normal(size=(4, 4, 2 * 6))
            y4 = y.reshape(4, 4, 2, 6)
            srt = np.sort(y4, axis=3)
            gap = srt[..., -1] - srt[..., -2]
            if gap.min() < 1e-3 or np.abs(y4.max(axis=3)).min() < 1e-3:
                continue  # exclude near-ties and near-zero magnitudes
            stack, winners = orientation_pool_stack(y, 6)
            up = rng.normal(size=stack.shape)
            g = orientation_pool_backward(winners, orientation_pool_gate(y, 6, winners), 6, up)

            def loss(p):
                s, _ = orientation_pool_stack(p, 6)
                return np.sum(up * s)

            assert finite_diff_check(loss, y.copy(), g, step=1e-5) < 1e-4


class TestMaxPool:
    def test_constant(self):
        x = np.full((4, 4, 2), 3.3)
        pooled, _ = max_pool(x, 2)
        assert np.allclose(pooled, 3.3)

    def test_single_window(self):
        x = np.array([[1.0, 3.0], [2.0, 0.0]])[:, :, None]
        pooled, _ = max_pool(x, 2)
        assert pooled[0, 0, 0] == 3.0

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(6, 8, 3))
        pooled, _ = max_pool(x, 2)
        assert np.array_equal(pooled, max_pool_oracle(x, 2))

    def test_ragged_edges_padded(self, rng):
        x = rng.normal(size=(5, 5, 1))
        pooled, _ = max_pool(x, 2)
        assert pooled.shape == (3, 3, 1)
        assert pooled[2, 2, 0] == x[4, 4, 0]

    def test_backward_routes_to_winner(self, rng):
        x = rng.normal(size=(4, 4, 2))
        pooled, winners = max_pool(x, 2)
        up = rng.normal(size=pooled.shape)
        g = max_pool_backward(x.shape, 2, winners, up)

        def loss(p):
            out, _ = max_pool(p, 2)
            return np.sum(up * out)

        assert finite_diff_check(loss, x.copy(), g, step=1e-5) < 1e-4


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
                                          ((6, 6, 2), 1), ((9, 7, 10), 3), ((3, 2, 4), 5)])
    @pytest.mark.parametrize("values", ["normal", "ties", "sparse"])
    def test_matches_per_component_oracle(self, rng, dtype, shape, w, values):
        if values == "normal":
            v = rng.normal(size=shape)
        elif values == "ties":  # equal magnitudes across each window
            v = rng.integers(-1, 2, size=shape).astype(np.float64)
        else:  # mostly zero vectors
            v = np.zeros(shape)
            v[::3, ::2] = rng.normal(size=v[::3, ::2].shape)
        v = v.astype(dtype)
        got, got_winners = vf_max_pool(v, w)
        want, want_winners = vf_max_pool_oracle(v, w)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_winners.tobytes() == want_winners.tobytes()
        up = rng.normal(size=want.shape).astype(dtype)
        got = vf_max_pool_backward(v.shape, w, got_winners, up)
        want = vf_max_pool_backward_oracle(v.shape, w, want_winners, up)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

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


class TestRotationCovariance:
    def test_pooled_field_rotates_with_image(self, rng):
        # 90-degree covariance of rconv + orientation pooling, bit-exact
        for n in (4, 8):
            w = rng.normal(size=(5, 5, 1, 3))
            bank = CanonicalFilterBank(w.copy(), n)
            x = rng.normal(size=(12, 12, 1))
            f1, _ = orientation_pool_stack(rconv_forward(x, bank), n)
            f2, _ = orientation_pool_stack(
                rconv_forward(np.rot90(x).copy(), bank), n
            )
            assert np.array_equal(f2, rotate_stack_90(f1, 1))

    def test_vfbn_commutes_with_rotation(self, rng):
        batch = rng.normal(size=(1, 6, 6, 4))
        st1, st2 = VFBNState.create(2), VFBNState.create(2)
        o1, _ = field_batch_norm(batch, st1, training=True)
        rot = np.stack([rotate_stack_90(batch[0], 1)])
        o2, _ = field_batch_norm(rot, st2, training=True)
        assert np.array_equal(o2[0], rotate_stack_90(o1[0], 1))
