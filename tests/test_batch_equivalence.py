"""The batched convolution and field pools give, byte for byte, what they
give one image at a time, on every shape the default detector and the
orientation estimator run; the convolution's pixel planes hold the bytes of
the channel-last GEMM transposed. The shapes are recorded from one forward
pass of each network, so a new layer shape is covered without editing this
file."""

import numpy as np
import pytest

from oriconv import fieldops, netblocks, networks
from oriconv.fieldops import (
    orientation_pool_backward,
    orientation_pool_stack,
    vf_max_pool,
    vf_max_pool_backward,
)
from oriconv.tensor import conv2d, conv2d_backward, conv2d_filter_grad

BATCHES = (1, 2, 3)
DTYPES = (np.float32, np.float64)


def record_shapes():
    """Per-image shapes reaching the conv and the two pools in a forward of
    the default `Detector` and of an `ORIENT_BACKBONE` estimator: the conv's
    [H, W, Cin] input and filter, the orientation pool's [C*n, H, W] planes
    and the field pool's [H, W, 2C] stack."""
    convs, opools, vfpools = set(), set(), set()

    def recorder(fn, seen, key):
        def wrapped(*args):
            seen.add(key(*args))
            return fn(*args)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netblocks, "conv2d", recorder(conv2d, convs, lambda x, f: (x.shape[1:], f.shape)))
        mp.setattr(fieldops, "orientation_pool_stack",
                   recorder(orientation_pool_stack, opools, lambda y, n: (y.shape[1:], n)))
        mp.setattr(fieldops, "vf_max_pool",
                   recorder(vf_max_pool, vfpools, lambda s, w: (s.shape[1:], w)))
        det = networks.Detector(networks.NetworkSpec(n_rotations=8))
        det.forward(np.zeros((1, 64, 64, 1), np.float32), training=False)
        est = networks.OrientationEstimator(networks.NetworkSpec(
            task="orientation", n_rotations=8, input_size=80,
            backbone=networks.ORIENT_BACKBONE,
        ))
        est.forward(np.zeros((1, 80, 80, 1), np.float32), training=False)
    return sorted(convs), sorted(opools), sorted(vfpools)


CONV_SHAPES, OPOOL_SHAPES, VFPOOL_SHAPES = record_shapes()
# ragged extents exercise the pool's edge padding under a batch axis
VFPOOL_SHAPES += [((7, 9, 6), 2), ((7, 9, 6), 3)]


def stacked(per_image, n):
    return np.stack(per_image[:n]).tobytes()


def test_recorded_shapes_include_the_1x1_input_gradient():
    # the input-gradient GEMM that changes bytes once the batch is
    # concatenated into its rows
    assert ((8, 8, 16), (1, 1, 16, 64)) in CONV_SHAPES


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("x_shape, f_shape", CONV_SHAPES, ids=str)
def test_conv_batch_matches_one_image_at_a_time(x_shape, f_shape, dtype):
    rng = np.random.default_rng(0)
    b = max(BATCHES)
    x = rng.normal(size=(b,) + x_shape).astype(dtype)
    f = rng.normal(size=f_shape).astype(dtype)
    up = rng.normal(size=(b,) + x_shape[:2] + f_shape[3:]).astype(dtype)
    ys = [conv2d(xi, f) for xi in x]
    grads = [conv2d_backward(xi, f, ui) for xi, ui in zip(x, up)]
    for n in BATCHES:
        out = conv2d(x[:n], f)
        assert out.flags.c_contiguous and out.tobytes() == stacked(ys, n)
        gx, gf = conv2d_backward(x[:n], f, up[:n])
        assert gx.tobytes() == stacked([g[0] for g in grads], n)
        assert gf.tobytes() == stacked([g[1] for g in grads], n)
        assert conv2d_filter_grad(x[:n], f, up[:n]).tobytes() == gf.tobytes()


@pytest.mark.parametrize("x_shape, f_shape", CONV_SHAPES, ids=str)
def test_conv_planes_are_the_channel_last_gemm_transposed(x_shape, f_shape):
    # f2^T @ cols^T is the column-major problem of cols @ f2 with the
    # operands' roles swapped; the BLAS must give the same bytes for both
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2,) + x_shape).astype(np.float32)
    f = rng.normal(size=f_shape).astype(np.float32)
    m, _, cin, cout = f_shape
    h, w, _ = x_shape
    padded = np.pad(x, [(0, 0), (m // 2, m // 2), (m // 2, m // 2), (0, 0)])
    win = np.lib.stride_tricks.sliding_window_view(padded, (m, m), axis=(1, 2))
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(2, h * w, m * m * cin)
    for xi, ci in zip(x, cols):
        channel_last = np.matmul(ci, f.reshape(m * m * cin, cout))
        y = conv2d(xi, f)
        assert y.shape == (cout, h, w) and y.flags.c_contiguous
        assert y.tobytes() == channel_last.T.tobytes()


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("y_shape, n_rot", OPOOL_SHAPES, ids=str)
def test_orientation_pool_batch_matches_one_image_at_a_time(y_shape, n_rot, dtype):
    rng = np.random.default_rng(1)
    b = max(BATCHES)
    y = rng.normal(size=(b,) + y_shape).astype(dtype)
    up = rng.normal(size=(b,) + y_shape[1:] + (2 * y_shape[0] // n_rot,)).astype(dtype)
    pooled = [orientation_pool_stack(yi, n_rot) for yi in y]
    grads = [
        orientation_pool_backward(w, g, n_rot, u)
        for (_, w, g), u in zip(pooled, up)
    ]
    for n in BATCHES:
        stack, winners, gate = orientation_pool_stack(y[:n], n_rot)
        assert stack.tobytes() == stacked([p[0] for p in pooled], n)
        assert winners.tobytes() == stacked([p[1] for p in pooled], n)
        assert gate.tobytes() == stacked([p[2] for p in pooled], n)
        grad = orientation_pool_backward(winners, gate, n_rot, up[:n])
        assert grad.tobytes() == stacked(grads, n)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("s_shape, window", VFPOOL_SHAPES, ids=str)
def test_vf_max_pool_batch_matches_one_image_at_a_time(s_shape, window, dtype):
    rng = np.random.default_rng(2)
    b = max(BATCHES)
    s = rng.normal(size=(b,) + s_shape).astype(dtype)
    pooled = [vf_max_pool(si, window) for si in s]
    up = rng.normal(size=(b,) + pooled[0][0].shape).astype(dtype)
    grads = [
        vf_max_pool_backward(si.shape, window, w, u)
        for si, (_, w), u in zip(s, pooled, up)
    ]
    for n in BATCHES:
        out, winners = vf_max_pool(s[:n], window)
        assert out.tobytes() == stacked([p[0] for p in pooled], n)
        assert winners.tobytes() == stacked([p[1] for p in pooled], n)
        grad = vf_max_pool_backward(s[:n].shape, window, winners, up[:n])
        assert grad.tobytes() == stacked(grads, n)


def channel_last_columns(x, m):
    """[B, H*W, m*m*Cin] windows of [B, H, W, Cin], rows in (ky, kx, cin)
    order: the column layout the adjoints read before the K-major one."""
    b, h, w, cin = x.shape
    p = m // 2
    padded = np.pad(x, [(0, 0), (p, p), (p, p), (0, 0)])
    win = np.lib.stride_tricks.sliding_window_view(padded, (m, m), axis=(1, 2))
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(b, h * w, m * m * cin)


@pytest.mark.parametrize("x_shape, f_shape", CONV_SHAPES, ids=str)
def test_conv_adjoints_are_the_channel_last_gemms(x_shape, f_shape):
    # the adjoints read K-major columns; their GEMMs must give the bytes of
    # the channel-last ones: cols^T @ up for the filter, and the window
    # gradients up @ f2^T, added tap by tap onto the padded input
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2,) + x_shape).astype(np.float32)
    f = rng.normal(size=f_shape).astype(np.float32)
    up = rng.normal(size=(2,) + x_shape[:2] + f_shape[3:]).astype(np.float32)
    m, _, cin, cout = f_shape
    h, w, _ = x_shape
    p = m // 2
    f2 = f.reshape(m * m * cin, cout)
    for xi, ci, ui in zip(x, channel_last_columns(x, m), up):
        u2 = ui.reshape(h * w, cout)
        gx, gf = conv2d_backward(xi, f, ui)
        assert gf.tobytes() == np.matmul(ci.T, u2).tobytes()
        gcols = np.matmul(u2, f2.T)
        assert np.matmul(f2, u2.T).tobytes() == np.ascontiguousarray(gcols.T).tobytes()
        gcols = gcols.reshape(h, w, m, m, cin)
        gx_pad = np.zeros((h + 2 * p, w + 2 * p, cin), dtype=np.float32)
        for ky in range(m):
            for kx in range(m):
                gx_pad[ky : ky + h, kx : kx + w] += gcols[:, :, ky, kx]
        assert gx.tobytes() == gx_pad[p : p + h, p : p + w].tobytes()
