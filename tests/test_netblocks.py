import numpy as np
import pytest

from oriconv import checkpoint, rconv, synthdata, trainer
from oriconv.errors import ConfigError, ShapeError, StateError
from oriconv.fieldops import (
    orientation_pool_backward,
    orientation_pool_stack,
    rotate_stack_90,
)
from oriconv.netblocks import (
    AttentionMerge,
    FeatureFusion,
    FieldAvgPool2,
    OrientationHead,
    PlainConv,
    PyramidStage,
    RConvLayer,
    Sequential,
    VfMaxPool,
    build_image_pyramid,
    center_field_average,
    center_field_average_backward,
    downsample2,
    init_canonical_weights,
    roi_gate,
)
from oriconv.networks import (
    ORIENT_BACKBONE,
    Detector,
    NetworkSpec,
    OrientationEstimator,
    angle_targets,
    orientation_loss_and_grad,
)
from oriconv.tensor import conv2d, conv2d_backward, finite_diff_check

from conftest import (
    filter_major,
    obox_detection,
    planes,
    rconv_grads,
    rconv_planes,
    rotation_major,
)


def count_expansions(monkeypatch):
    """Record each `rconv.expand_rotations` call; returns the list of banks."""
    calls = []
    expand = rconv.expand_rotations

    def counting(bank):
        calls.append(bank)
        return expand(bank)

    monkeypatch.setattr(rconv, "expand_rotations", counting)
    return calls


def area_average_oracle(img, k):
    out = img.astype(np.float64)
    for _ in range(k):
        h, w, c = out.shape
        nxt = np.zeros((h // 2, w // 2, c))
        for i in range(h // 2):
            for j in range(w // 2):
                nxt[i, j] = out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean(axis=(0, 1))
        out = nxt
    return out


class TestImagePyramid:
    def test_single_level_is_input(self, rng):
        img = rng.normal(size=(16, 16, 1))
        levels = build_image_pyramid(img, 1)
        assert len(levels) == 1 and np.array_equal(levels[0], img)

    def test_constant_image(self):
        img = np.full((32, 32, 1), 0.77)
        for level in build_image_pyramid(img, 3):
            assert np.allclose(level, 0.77)

    def test_ramp_matches_area_average_oracle(self):
        ramp = (np.arange(64)[:, None] + np.arange(64)[None, :]).astype(np.float64)
        img = np.stack([ramp], axis=2)
        levels = build_image_pyramid(img, 3)
        assert [l.shape[0] for l in levels] == [64, 32, 16]
        for k in (1, 2):
            assert np.abs(levels[k] - area_average_oracle(img, k)).max() < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_matches_per_image(self, rng, dtype):
        batch = rng.normal(size=(3, 16, 16, 2)).astype(dtype)
        levels = build_image_pyramid(batch, 3)
        for k, level in enumerate(levels):
            single = np.stack([build_image_pyramid(img, 3)[k] for img in batch])
            assert level.dtype == dtype
            assert level.tobytes() == single.tobytes()

    def test_too_many_levels_rejected(self, rng):
        with pytest.raises(ShapeError):
            build_image_pyramid(rng.normal(size=(16, 16, 1)), 4)


class TestLayerGradients:
    def test_rconv_layer_scalar(self, rng):
        layer = RConvLayer(3, 1, 2, 4, rconv.SCALAR, rng=rng, dtype=np.float64)
        x = rng.normal(size=(1, 6, 6, 1))
        y = layer.forward(x)
        up = rng.normal(size=y.shape)
        layer.zero_grads()
        gx = layer.backward(up)

        def loss(p):
            l2 = RConvLayer(3, 1, 2, 4, rconv.SCALAR, rng=np.random.default_rng(0), dtype=np.float64)
            l2.bank.weights[...] = p
            return np.sum(up * l2.forward(x))

        # small step: pooling argmax boundaries make large steps non-smooth
        err_w = finite_diff_check(
            loss, layer.bank.weights.copy(), layer.g_weights, step=1e-6
        )
        err_x = finite_diff_check(
            lambda p: np.sum(up * layer.forward(p)), x.copy(), gx, step=1e-6
        )
        assert err_w < 1e-4 and err_x < 1e-4

    @pytest.mark.parametrize("n_rotations", [4, 8, 12], ids=lambda n: f"n{n}")
    @pytest.mark.parametrize("kind", [rconv.SCALAR, rconv.VECTOR])
    def test_rconv_layer_finite_differences(self, rng, kind, n_rotations):
        # a circular 5 x 5 filter, resampled between quarter turns for n = 8
        # and 12, on two images whose filter gradients add up
        layer = RConvLayer(5, 2, 2, n_rotations, kind, rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 7, 7, 2))
        y = layer.forward(x)
        up = rng.normal(size=y.shape)
        layer.zero_grads()
        gx = layer.backward(up)
        weights = layer.bank.weights.copy()

        def loss_w(p):
            layer.bank.weights[...] = p  # an in-place write re-expands the filter
            return np.sum(up * layer.forward(x))

        err_w = finite_diff_check(loss_w, weights, layer.g_weights, step=1e-6)
        layer.bank.weights[...] = weights
        err_x = finite_diff_check(
            lambda p: np.sum(up * layer.forward(p)), x.copy(), gx, step=1e-6
        )
        assert err_w < 1e-4 and err_x < 1e-4

    @pytest.mark.parametrize("kind", [rconv.SCALAR, rconv.VECTOR])
    def test_rconv_layer_batch_matches_per_image(self, rng, kind, monkeypatch):
        layer = RConvLayer(5, 4, 2, 8, kind, rng=rng, dtype=np.float64)
        x = rng.normal(size=(3, 7, 7, 4))
        up = rng.normal(size=(3, 7, 7, 4))
        per_image = []
        for img, g in zip(x, up):
            stack, winners, gate = orientation_pool_stack(rconv_planes(img, layer.bank), 8)
            g_pre = orientation_pool_backward(winners, gate, 8, g)
            per_image.append((stack, *rconv_grads(img, layer.bank, g_pre)))

        calls = count_expansions(monkeypatch)
        out = layer.forward(x)
        assert len(calls) == 1
        layer.zero_grads()
        gx = layer.backward(up)
        assert len(calls) == 1
        # same per-image convs and pools, adjoint slices and image-order sum:
        # exact
        assert out.tobytes() == np.stack([p[0] for p in per_image]).tobytes()
        assert gx.tobytes() == np.stack([p[1] for p in per_image]).tobytes()
        assert layer.g_weights.tobytes() == sum(p[2] for p in per_image).tobytes()

    def test_image_fed_layer_skips_input_gradient(self, rng):
        # input_grad=False computes the same filter gradient from
        # conv2d_filter_grad, byte for byte, and returns no input gradient
        x = rng.normal(size=(2, 9, 9, 1)).astype(np.float32)
        up = rng.normal(size=(2, 9, 9, 4)).astype(np.float32)
        layer = RConvLayer(5, 1, 2, 8, rconv.SCALAR, rng=np.random.default_rng(3), input_grad=False)
        layer.forward(x)
        layer.zero_grads()
        assert layer.backward(up) is None

        f = rconv.expand_rotations(layer.bank)
        gfs = []
        for img, g in zip(x, up):
            y = conv2d(img, f)
            _, winners, gate = orientation_pool_stack(y, 8)
            g_pre = orientation_pool_backward(winners, gate, 8, g)
            gfs.append(rotation_major(conv2d_backward(img, filter_major(f, 8), g_pre)[1], 8))
        want = sum(rconv.expand_rotations_backward(layer.bank, np.stack(gfs)))
        assert layer.g_weights.tobytes() == want.tobytes()

    def test_backward_needs_training_forward(self, rng):
        layer = RConvLayer(3, 1, 2, 4, rconv.SCALAR, rng=rng)
        x = rng.normal(size=(1, 6, 6, 1)).astype(np.float32)
        up = np.ones((1, 6, 6, 4), dtype=np.float32)
        with pytest.raises(StateError, match="training=True"):
            layer.backward(up)
        layer.forward(x, training=True)
        layer.forward(x, training=False)
        with pytest.raises(StateError, match="training=True"):
            layer.backward(up)

    def test_plain_conv_bias_grad(self, rng):
        layer = PlainConv(3, 2, 3, rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 5, 5, 2))
        y = layer.forward(x)
        up = rng.normal(size=y.shape)
        layer.zero_grads()
        layer.backward(up)
        assert np.allclose(layer.gb, up.sum(axis=(0, 1, 2)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_layers_hand_on_c_ordered_channel_last_arrays(self, rng, dtype):
        # the conv writes pixel planes; no layer hands that order on
        x = rng.normal(size=(2, 6, 5, 4)).astype(dtype)
        for layer, width in ((RConvLayer(3, 4, 3, 8, rng=rng, dtype=dtype), 6),
                             (RConvLayer(1, 4, 2, 4, rconv.VECTOR, rng=rng, dtype=dtype), 4),
                             (PlainConv(3, 4, 5, rng=rng, dtype=dtype), 5),
                             (PlainConv(1, 4, 3, rng=rng, dtype=dtype), 3)):
            y = layer.forward(x, training=True)
            assert y.shape == (2, 6, 5, width) and y.dtype == dtype
            assert y.flags.c_contiguous
            gx = layer.backward(rng.normal(size=y.shape).astype(dtype))
            assert gx.shape == x.shape and gx.flags.c_contiguous

    def test_field_avg_pool(self, rng):
        layer = FieldAvgPool2()
        x = rng.normal(size=(1, 4, 4, 2))
        y = layer.forward(x)
        assert y.shape == (1, 2, 2, 2)
        up = rng.normal(size=y.shape)
        g = layer.backward(up)
        err = finite_diff_check(
            lambda p: np.sum(up * FieldAvgPool2().forward(p)), x.copy(), g
        )
        assert err < 1e-8


class TestPyramidStage:
    def test_zero_image_gives_zero_features(self, rng):
        stage = PyramidStage(4, 2, 3, 4, rng=rng)
        out = stage.forward(np.zeros((1, 16, 16, 1), dtype=np.float32))
        assert not out.any()

    def test_shape_contract(self, rng):
        stage = PyramidStage(4, 2, 3, 5, rng=rng)
        out = stage.forward(rng.normal(size=(2, 16, 16, 1)).astype(np.float32))
        # one pooling step inside: 16 -> 8; 5 output fields -> 10 planes
        assert out.shape == (2, 8, 8, 10)

    def test_gradient_through_all_three_convs(self, rng):
        stage = PyramidStage(4, 2, 2, 2, rng=rng, dtype=np.float64)
        x = rng.normal(size=(1, 8, 8, 1))
        y = stage.forward(x, training=True)
        up = rng.normal(size=y.shape)
        stage.zero_grads()
        stage.backward(up)
        first = stage.layers[0]

        def loss(p):
            s2 = PyramidStage(4, 2, 2, 2, rng=np.random.default_rng(0), dtype=np.float64)
            # copy all weights, then substitute the probed one
            for la, lb in zip(s2.layers, stage.layers):
                if hasattr(la, "bank"):
                    la.bank.weights[...] = lb.bank.weights
            s2.layers[0].bank.weights[...] = p
            return np.sum(up * s2.forward(x, training=True))

        # small step: pooling argmax boundaries make large steps non-smooth
        err = finite_diff_check(loss, first.bank.weights.copy(), first.g_weights, step=1e-5)
        assert err < 1e-4


class TestAttentionMerge:
    def test_zero_pyramid_branch_uses_backbone_only(self, rng):
        am = AttentionMerge(4, 2, 2, 2, rng=rng)
        ssd = rng.normal(size=(1, 6, 6, 4)).astype(np.float32)
        out1 = am.forward(ssd, np.zeros_like(ssd), training=True)
        assert np.isfinite(out1).all()

    def test_no_rois_means_no_gate(self, rng):
        am = AttentionMerge(4, 2, 2, 2, rng=rng)
        ssd = rng.normal(size=(1, 6, 6, 4)).astype(np.float32)
        lip = rng.normal(size=(1, 6, 6, 4)).astype(np.float32)
        a = am.forward(ssd, lip, gates=None, training=False)
        ones = np.ones((1, 6, 6, 1), dtype=np.float32)
        b = am.forward(ssd, lip, gates=ones, training=False)
        assert np.array_equal(a, b)

    def test_output_channels_match_spec(self, rng):
        am = AttentionMerge(4, 3, 3, 5, rng=rng)
        out = am.forward(
            rng.normal(size=(1, 6, 6, 6)).astype(np.float32),
            rng.normal(size=(1, 6, 6, 6)).astype(np.float32),
        )
        assert out.shape == (1, 6, 6, 10)

    def test_spatial_mismatch_rejected(self, rng):
        am = AttentionMerge(4, 2, 2, 2, rng=rng)
        with pytest.raises(ShapeError):
            am.forward(np.zeros((1, 6, 6, 4)), np.zeros((1, 4, 4, 4)))

    def test_gradient_check(self, rng):
        am = AttentionMerge(4, 2, 2, 2, rng=rng, dtype=np.float64)
        ssd = rng.normal(size=(1, 6, 6, 4))
        lip = rng.normal(size=(1, 6, 6, 4))
        out = am.forward(ssd, lip, training=True)
        up = rng.normal(size=out.shape)
        ga, gb = am.backward(up)
        err = finite_diff_check(
            lambda p: np.sum(up * am.forward(p, lip, training=True)), ssd.copy(), ga,
            step=1e-5,
        )
        assert err < 1e-4

    def test_without_pyramid_input_merges_the_backbone_stack_alone(self, rng):
        am = AttentionMerge(4, 3, 0, 2, rng=rng, dtype=np.float64)
        assert am.norm_lipm is None and "norm_lipm" not in am.children()
        assert am.conv3.bank.weights.shape == (3, 3, 6, 2)
        assert sorted(am.state()) == ["norm_ssd.running_var"]
        ssd = rng.normal(size=(1, 6, 6, 6))
        gates = np.where(rng.random((1, 6, 6, 1)) < 0.5, 1.0, 0.3)
        out = am.forward(ssd, None, gates, training=True)
        assert out.shape == (1, 6, 6, 4)
        up = rng.normal(size=out.shape)
        ga, gb = am.backward(up)
        assert gb is None
        err = finite_diff_check(
            lambda p: np.sum(up * am.forward(p, None, gates, training=True)), ssd.copy(), ga,
            step=1e-5,
        )
        assert err < 1e-4
        with pytest.raises(ShapeError):
            am.forward(ssd, ssd)
        with pytest.raises(ShapeError):
            AttentionMerge(4, 3, 3, 2, rng=rng).forward(ssd, None)

    def test_roi_gate_values(self):
        from oriconv.detect import HBox
        from oriconv.networks import Detector

        class R:
            def __init__(self, box):
                self.box = box

        gate = roi_gate((8, 8), [R(HBox(8, 8, 24, 24))], stride=4)
        assert gate[3, 3, 0] == 1.0
        assert gate[0, 0, 0] == pytest.approx(0.3)
        assert np.array_equal(roi_gate((4, 4), [], 4), np.ones((4, 4, 1), dtype=np.float32))


class TestFeatureFusion:
    def test_zero_previous_level(self, rng):
        ff = FeatureFusion(4, 2, 2, 2, rng=rng)
        cur = rng.normal(size=(1, 4, 4, 4)).astype(np.float32)
        out = ff.forward(np.zeros((1, 8, 8, 4), dtype=np.float32), cur, training=True)
        assert np.isfinite(out).all()

    def test_both_zero_gives_zero(self, rng):
        ff = FeatureFusion(4, 2, 2, 2, rng=rng)
        out = ff.forward(
            np.zeros((1, 8, 8, 4), dtype=np.float32),
            np.zeros((1, 4, 4, 4), dtype=np.float32),
            training=True,
        )
        assert not out.any()

    def test_level_adjacency_enforced(self, rng):
        ff = FeatureFusion(4, 2, 2, 2, rng=rng)
        with pytest.raises(ShapeError):
            ff.forward(np.zeros((1, 16, 16, 4)), np.zeros((1, 4, 4, 4)))

    def test_gradient_check(self, rng):
        ff = FeatureFusion(4, 2, 2, 2, rng=rng, dtype=np.float64)
        prev = rng.normal(size=(1, 8, 8, 4))
        cur = rng.normal(size=(1, 4, 4, 4))
        out = ff.forward(prev, cur, training=True)
        up = rng.normal(size=out.shape)
        gp, gc = ff.backward(up)
        err_p = finite_diff_check(
            lambda p: np.sum(up * ff.forward(p, cur, training=True)), prev.copy(), gp,
            step=1e-5,
        )
        err_c = finite_diff_check(
            lambda p: np.sum(up * ff.forward(prev, p, training=True)), cur.copy(), gc,
            step=1e-5,
        )
        assert err_p < 1e-4 and err_c < 1e-4


class TestOrientationHead:
    def test_zero_angle_target(self):
        # a field pointing at angle 0 with positive weights maps to (sin, cos)
        # = (0, 1)
        head = OrientationHead(1, rng=np.random.default_rng(0))
        head.wr[:] = 1.0
        head.wi[:] = 0.0
        vec = np.array([[2.0, 0.0]])  # p = 2, q = 0: angle 0
        out, flag = head.forward(vec)
        assert not flag.any()
        assert out[0, 0] == pytest.approx(0.0, abs=1e-7)
        assert out[0, 1] == pytest.approx(1.0, abs=1e-7)

    def test_unit_norm_output(self, rng):
        head = OrientationHead(3, rng=rng)
        vecs = rng.normal(size=(10, 6)).astype(np.float32)
        out, flag = head.forward(vecs)
        norms = np.hypot(out[:, 0], out[:, 1])
        assert np.abs(norms[~flag] - 1.0).max() < 1e-6

    def test_degenerate_zero_vector_flagged(self):
        head = OrientationHead(2, rng=np.random.default_rng(0))
        out, flag = head.forward(np.zeros((1, 4)))
        assert flag[0]
        assert np.degrees(np.arctan2(out[:, 0], out[:, 1]))[0] % 360 == 0.0

    def test_angular_error_metric_endpoints(self):
        # the eval angle error is taken modulo 90: 0 when equal, at most 45
        from oriconv.detect import OBox
        from oriconv.metrics import evaluate

        def angle_error(pred, true):
            gt = OBox(50.0, 50.0, 10.0, 10.0, true)
            det = obox_detection(0, 0.9, OBox(50.0, 50.0, 10.0, 10.0, pred))
            return evaluate([[det]], [([0], [(gt.hull(), gt)])])[0].mean_angular_error

        assert angle_error(123.0, 123.0) == 0.0 and angle_error(22.5, 67.5) == 45.0

    def test_equivariance_of_head(self, rng):
        # rotating every input vector by a quarter turn rotates the output pair
        head = OrientationHead(3, rng=rng, dtype=np.float64)
        vecs = rng.normal(size=(5, 6))
        out1, _ = head.forward(vecs)
        rot = np.empty_like(vecs)
        rot[:, 0::2] = -vecs[:, 1::2]
        rot[:, 1::2] = vecs[:, 0::2]
        out2, _ = head.forward(rot)
        ang1 = np.degrees(np.arctan2(out1[:, 0], out1[:, 1])) % 360
        ang2 = np.degrees(np.arctan2(out2[:, 0], out2[:, 1])) % 360
        d = (ang2 - ang1) % 360.0
        assert np.abs(d - 90.0).max() < 1e-5

    def test_gradient_check(self, rng):
        head = OrientationHead(3, rng=rng, dtype=np.float64)
        vecs = rng.normal(size=(4, 6))
        out, _ = head.forward(vecs)
        up = rng.normal(size=out.shape)
        head.zero_grads()
        gv = head.backward(up)
        err = finite_diff_check(
            lambda p: np.sum(up * head.forward(p)[0]), vecs.copy(), gv, step=1e-6
        )
        assert err < 1e-4


def rconv_layers(layer):
    if isinstance(layer, RConvLayer):
        yield layer
    for child in layer.children().values():
        yield from rconv_layers(child)


def cached_arrays(cache):
    if isinstance(cache, np.ndarray):
        yield cache
    elif isinstance(cache, (list, tuple)):
        for item in cache:
            yield from cached_arrays(item)


class TestRConvCache:
    def test_training_cache_holds_no_prepool_responses(self, rng):
        net = Detector(NetworkSpec())
        images = rng.normal(size=(2, 64, 64, 1)).astype(np.float32)
        net.forward(images, training=True)
        layers = list(rconv_layers(net))
        assert len(layers) == 17  # 3 backbone, 6 pyramid, 4 attention, 4 fusion
        for layer in layers:
            x, f, winners, gate = layer._cache
            n_fields = f.shape[3] // layer.n_rotations
            # besides its input and expanded filter the layer keeps only the
            # [N, C, H, W] winner and gate planes, never the n-times wider
            # rotation responses
            assert winners.shape == gate.shape == (2, n_fields) + x.shape[1:3]
            assert len(list(cached_arrays(layer._cache))) == 4
            assert gate.dtype == bool and winners.dtype == np.uint8
        net.forward(images, training=False)
        assert all(layer._cache is None for layer in layers)

    def test_builders_mark_image_fed_layers(self):
        net = Detector(NetworkSpec())
        fed = {id(net.segments[0].layers[0])} | {id(s.layers[0]) for s in net.lipm_stages}
        skipping = {id(l) for l in rconv_layers(net) if not l.input_grad}
        assert skipping == fed and len(fed) == 3
        est = OrientationEstimator(NetworkSpec(task="orientation", input_size=32))
        skipping = [l for l in rconv_layers(est) if not l.input_grad]
        assert skipping == [est.trunk.layers[0]]

    @staticmethod
    def uncached_forward(layer, x):
        f = rconv.expand_rotations(layer.bank)
        n = layer.n_rotations
        return np.stack([orientation_pool_stack(conv2d(img, f), n)[0] for img in x])

    @pytest.mark.parametrize("kind", [rconv.SCALAR, rconv.VECTOR])
    def test_repeated_inference_expands_once(self, rng, kind, monkeypatch):
        layer = RConvLayer(5, 4, 2, 8, kind, rng=rng)
        x = rng.normal(size=(2, 7, 7, 4)).astype(np.float32)
        calls = count_expansions(monkeypatch)
        first = layer.forward(x, training=False)
        assert len(calls) == 1
        second = layer.forward(x, training=False)
        assert len(calls) == 1
        assert first.tobytes() == second.tobytes()
        f = layer._expanded_filter()
        assert len(calls) == 1
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0, 0, 0, 0] = 1.0

    def test_training_caches_the_reused_filter(self, rng):
        layer = RConvLayer(3, 2, 2, 4, rconv.SCALAR, rng=rng)
        x = rng.normal(size=(1, 6, 6, 2)).astype(np.float32)
        layer.forward(x, training=True)
        assert layer._cache[1] is layer._expanded_filter()

    @pytest.mark.parametrize("change", ["sgd_step", "in_place", "checkpoint"])
    def test_changed_weights_invalidate_the_filter(self, rng, change, monkeypatch, tmp_path):
        layer = RConvLayer(5, 2, 3, 8, rng=rng)
        x = rng.normal(size=(2, 7, 7, 2)).astype(np.float32)
        before = layer.forward(x, training=False)
        if change == "sgd_step":
            layer.forward(x, training=True)
            layer.zero_grads()
            layer.backward(rng.normal(size=before.shape).astype(np.float32))
            trainer.SGD(layer).step(0.1)
        elif change == "in_place":
            layer.bank.weights.flat[layer.bank.weights.size // 2] += 0.05
        else:
            other = RConvLayer(5, 2, 3, 8, rng=np.random.default_rng(99))
            path = str(tmp_path / "ck.bin")
            checkpoint.save_checkpoint(path, checkpoint.network_tensors(other), 0, {})
            checkpoint.restore_network(layer, checkpoint.load_checkpoint(path)[0])
        calls = count_expansions(monkeypatch)
        after = layer.forward(x, training=False)
        assert len(calls) == 1
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == self.uncached_forward(layer, x).tobytes()

    def test_training_after_detect_image_matches_fresh_network(self):
        spec = synthdata.SceneSpec(seed=5, image_size=64, min_objects=1, max_objects=3)
        scenes = [synthdata.generate_scene(spec, i) for i in range(2)]
        images = np.stack([s.image for s in scenes])
        gts = [([o.class_id for o in s.objects], [(o.hbox, o.obox) for o in s.objects])
               for s in scenes]
        used = Detector(NetworkSpec(), rng=np.random.default_rng(0))
        fresh = Detector(NetworkSpec(), rng=np.random.default_rng(0))
        opts = trainer.SGD(used), trainer.SGD(fresh)
        for _ in range(2):
            used.detect_image(images[0], score_threshold=0.2)
            steps = []
            for net, opt in zip((used, fresh), opts):
                net.zero_grads()
                loss, comps = net.loss_and_grads(images, gts)
                steps.append((repr(loss), repr(comps),
                              [g.tobytes() for _, g in sorted(net.grads().items())]))
                opt.step(0.02)
            assert steps[0] == steps[1]

    @staticmethod
    def expanded_arrays(layer):
        """The distinct expanded-filter-shaped arrays the layer holds."""
        m, _, cin, c = layer.bank.weights.shape
        shape = (m, m, cin, layer.n_rotations * c)
        held = {id(a): a for a in cached_arrays(tuple(vars(layer).values()))
                if a.shape == shape}
        return list(held.values())

    def test_layer_holds_one_rotation_major_filter(self, rng):
        layer = RConvLayer(5, 2, 3, 8, rconv.SCALAR, rng=rng)
        x = rng.normal(size=(2, 7, 7, 2)).astype(np.float32)
        out = layer.forward(x, training=True)
        layer.zero_grads()
        layer.backward(rng.normal(size=out.shape).astype(np.float32))
        (f,) = self.expanded_arrays(layer)
        assert f is layer._expanded_filter() and not f.flags.writeable
        layer.forward(x, training=False)
        assert [id(a) for a in self.expanded_arrays(layer)] == [id(f)]
        # rotation-major: copy r of filter c at channel r*C + c; copy 0 is the
        # masked bank, and copy r + 2 the quarter turn of copy r (n = 8)
        copies = f.reshape(5, 5, 2, 8, 3)
        assert copies[:, :, :, 0].tobytes() == layer.bank.weights.tobytes()
        for r in range(6):
            assert np.array_equal(copies[:, :, :, r + 2], np.rot90(copies[:, :, :, r]))

    def test_repeated_detect_image_expands_nothing(self, monkeypatch):
        net = Detector(NetworkSpec(), rng=np.random.default_rng(0))
        image = synthdata.generate_scene(synthdata.SceneSpec(seed=5, image_size=64), 0).image
        first = net.detect_image(image, score_threshold=0.2)
        calls = count_expansions(monkeypatch)
        second = net.detect_image(image, score_threshold=0.2)
        assert calls == [] and repr(second) == repr(first)
        assert all(len(self.expanded_arrays(layer)) == 1 for layer in rconv_layers(net))


class TestCircularSupport:
    """No pass re-masks the weights: the expansion and its adjoint keep what
    lies outside a filter's inscribed circle out of every output and
    gradient."""

    def test_sgd_steps_leave_the_corners_at_zero(self):
        scene_spec = synthdata.SceneSpec(seed=5, image_size=32, min_objects=1, max_objects=3)
        scenes = [synthdata.generate_scene(scene_spec, i) for i in range(2)]
        images = np.stack([s.image for s in scenes])
        gts = [([o.class_id for o in s.objects], [(o.hbox, o.obox) for o in s.objects])
               for s in scenes]
        # n = 8 resamples at 45 degrees, whose adjoint reaches the corners
        spec = NetworkSpec(input_size=32, n_rotations=8,
                           anchor_scales=((8.0, 12.0), (16.0, 24.0)))
        net = Detector(spec, rng=np.random.default_rng(0))
        start = {k: v.copy() for k, v in net.params().items()}
        opt = trainer.SGD(net)
        for _ in range(4):
            net.zero_grads()
            net.loss_and_grads(images, gts)
            opt.step(0.05)
        assert all(np.abs(v - start[k]).max() > 0 for k, v in net.params().items())
        corners = 0
        for layer in rconv_layers(net):
            outside = rconv.circular_mask(layer.bank.size) == 0
            assert not layer.bank.weights[outside].any()
            assert not np.signbit(layer.bank.weights[outside]).any()
            corners += int(outside.sum())
        assert corners > 0

    @pytest.mark.parametrize("kind", [rconv.SCALAR, rconv.VECTOR])
    def test_weights_outside_the_circle_are_never_read(self, rng, kind):
        layer = RConvLayer(5, 4, 2, 8, kind, rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 7, 7, 4))
        up = rng.normal(size=(2, 7, 7, 4))

        def run():
            out = layer.forward(x, training=True)
            layer.zero_grads()
            return out, layer.backward(up), layer.g_weights.copy()

        clean = run()
        outside = rconv.circular_mask(5) == 0
        w = layer.bank.weights
        w[outside] = rng.normal(size=w[outside].shape)
        dirty = run()
        for a, b in zip(clean, dirty):
            assert a.tobytes() == b.tobytes()
        assert not dirty[2][outside].any()


class TestNetworkSpecValidation:
    def test_default_spec_traces(self):
        taps = NetworkSpec().trace_backbone()
        assert [t["stride"] for t in taps] == [4, 8]
        assert [t["size"] for t in taps] == [16, 8]

    def test_non_halving_taps_rejected(self):
        spec = NetworkSpec(
            backbone=(
                {"size": 3, "filters": 4, "pool": 2, "tap": True},
                {"size": 3, "filters": 4, "pool": 4, "tap": True},
            )
        )
        with pytest.raises(ConfigError):
            spec.trace_backbone()

    def test_anchor_scale_mismatch_rejected(self):
        spec = NetworkSpec(anchor_scales=((10.0,),))
        with pytest.raises(ConfigError):
            spec.trace_backbone()

    def test_indivisible_pool_rejected(self):
        spec = NetworkSpec(
            input_size=50,
            backbone=(
                {"size": 3, "filters": 4, "pool": 4, "tap": True},
            ),
            anchor_scales=((10.0,),),
        )
        with pytest.raises(ConfigError):
            spec.trace_backbone()

    def test_roundtrip_dict(self):
        spec = NetworkSpec()
        back = NetworkSpec.from_dict(spec.to_dict())
        assert back == spec

    def test_specs_do_not_share_stage_dicts(self):
        edited = NetworkSpec()
        edited.backbone[0]["filters"] = 2
        fresh = NetworkSpec()
        assert fresh.backbone[0]["filters"] == 6
        first = Detector(fresh, rng=np.random.default_rng(0)).segments[0].layers[0]
        assert first.bank.weights.shape[-1] == 6
        # a spec built from stage dicts keeps its own copies of them too
        stages = [dict(st) for st in fresh.backbone]
        spec = NetworkSpec(backbone=tuple(stages))
        stages[0]["filters"] = 2
        assert spec.backbone[0]["filters"] == 6
        assert NetworkSpec.from_dict(fresh.to_dict()).to_dict() == fresh.to_dict()

    @pytest.mark.parametrize("input_size, window, fits", [
        (16, 2, True), (16, 4, False),  # a 2x2 map
        (30, 4, True), (30, 5, False),  # 30 -> 15 -> 8 -> 4, as the pools pad
    ])
    def test_head_window_must_fit_the_final_map(self, input_size, window, fits, rng):
        spec = NetworkSpec(task="orientation", input_size=input_size,
                           backbone=ORIENT_BACKBONE, head_window=window)
        if not fits:
            with pytest.raises(ConfigError, match=f"head_window {window} is wider"):
                OrientationEstimator(spec)
            return
        net = OrientationEstimator(spec, rng=rng, dtype=np.float64)
        images = rng.normal(size=(2, input_size, input_size, 1))
        pred, _ = net.forward(images, training=True)
        net.zero_grads()
        net.backward(np.ones_like(pred))
        # the window is whole: its adjoint spreads each vector's gradient
        # over window * window pixels, the pixels the forward averaged
        shape, y0, x0, _ = net._cache
        assert y0 >= 0 and x0 >= 0 and y0 + window <= shape[1]

    @pytest.mark.parametrize("network", [Detector, OrientationEstimator])
    @pytest.mark.parametrize("shape", [(2, 48, 48, 1), (2, 32, 32, 3), (32, 32, 1)],
                             ids=["size", "channels", "rank"])
    def test_forward_takes_only_the_spec_input_shape(self, network, shape):
        spec = NetworkSpec(task="detection" if network is Detector else "orientation",
                           input_size=32, anchor_scales=((8.0, 12.0), (16.0, 24.0)))
        net = network(spec, rng=np.random.default_rng(0))
        net.forward(np.zeros((2, 32, 32, 1), dtype=np.float32), training=False)
        with pytest.raises(ShapeError, match=r"input must be \[B, 32, 32, 1\]"):
            net.forward(np.zeros(shape, dtype=np.float32), training=False)


class TestEndToEndCovariance:
    def test_estimator_trunk_quarter_turn_exact(self, rng):
        spec = NetworkSpec(
            task="orientation", n_rotations=8, input_size=16,
            backbone=(
                {"size": 5, "filters": 3, "pool": 2},
                {"size": 3, "filters": 4, "pool": 1},
            ),
            head_window=4,
        )
        net = OrientationEstimator(spec, rng=rng, dtype=np.float64)
        img = rng.normal(size=(16, 16, 1))
        f1 = net.trunk.forward(img[None], False)[0]
        f2 = net.trunk.forward(np.rot90(img).copy()[None], False)[0]
        assert np.array_equal(f2, rotate_stack_90(f1, 1))

    @pytest.mark.parametrize("n_rotations", [4, 8, 12], ids=lambda n: f"n{n}")
    @pytest.mark.parametrize("use_ffm", [True, False], ids=["ffm", "no_ffm"])
    @pytest.mark.parametrize("use_lipm", [True, False], ids=["lipm", "no_lipm"])
    @pytest.mark.parametrize("use_rpn", [
        pytest.param(False, id="no_rpn"),
        # the RPN's proposals come from a plain conv, so its region gate does
        # not turn with the image (ROADMAP direction 3: equivariant heads and
        # proposals); strict, so these cells fail once that lands
        pytest.param(True, id="rpn", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="the RPN gate is not equivariant (ROADMAP direction 3)")),
    ])
    def test_detector_merged_features_quarter_turn_exact(
        self, use_rpn, use_lipm, use_ffm, n_rotations, rng,
    ):
        # 4 | rotations, float64, tie-free normal input: the merged fields
        # that every level's head reads rotate with the image (the plain-conv
        # heads do not), for every branch of the spec
        img = rng.normal(size=(32, 32, 1))
        spec = NetworkSpec(task="detection", n_rotations=n_rotations, input_size=32,
                           merge_channels=4,
                           use_lipm=use_lipm, use_ffm=use_ffm, use_rpn=use_rpn,
                           backbone=(
                               {"size": 3, "filters": 3, "pool": 2, "tap": True},
                               {"size": 3, "filters": 3, "pool": 2, "tap": True},
                           ),
                           anchor_scales=((8.0,), (16.0,)))
        det = Detector(spec, rng=rng, dtype=np.float64)
        head_inputs = []
        for x in (img, np.rot90(img).copy()):
            det.forward(x[None], training=False)
            head_inputs.append([head._cache[0] for head in det.head_convs])
        for d1, d2 in zip(*head_inputs):
            assert np.array_equal(d2, rotate_stack_90(d1, 1))

    def test_verify_probe_runs_its_band_limited_filters(self, monkeypatch, tmp_path):
        # `verify_equivariance` blurs the probe's random filters; the
        # forwards of its report must run those filters
        seen = []
        report = trainer.exact_quarter_turn_report

        def spy(net, image):
            before = [l.bank.weights.copy() for l in rconv_layers(net)]
            rows = report(net, image)
            seen.append((net, before))
            return rows

        monkeypatch.setattr(trainer, "exact_quarter_turn_report", spy)
        spec = NetworkSpec(task="orientation", n_rotations=4)
        trainer.verify_equivariance(spec, [90.0], str(tmp_path), rotation_counts=(4,),
                                    image_size=32)
        net, before = seen[0]
        unblurred = OrientationEstimator(net.spec, rng=np.random.default_rng(0),
                                         dtype=np.float64)
        for layer, w, raw in zip(rconv_layers(net), before, rconv_layers(unblurred)):
            assert layer.bank.weights.tobytes() == w.tobytes()
            # inside the circle, the only weights the expansion reads
            inside = rconv.circular_mask(w.shape[0])[:, :, None, None]
            assert np.abs((w - raw.bank.weights) * inside).max() > 1e-3


class TestOrientationLoss:
    def test_targets(self):
        t = angle_targets([0.0, 90.0])
        assert np.abs(t - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-12

    def test_loss_and_grad(self, rng):
        pred = rng.normal(size=(4, 2))
        tgt = angle_targets(rng.uniform(0, 360, 4))
        loss, g = orientation_loss_and_grad(pred, tgt)
        err = finite_diff_check(
            lambda p: orientation_loss_and_grad(p, tgt)[0], pred.copy(), g, step=1e-6
        )
        assert err < 1e-6
