"""The detector's training loss as a whole: the flat-anchor-axis
`loss_and_grads` against the per-level target assembly it replaced, and its
gradients against central finite differences."""

import numpy as np
import pytest

from oriconv import detect, synthdata
from oriconv.errors import ShapeError
from oriconv.networks import Detector, NetworkSpec

from test_detect import composite_loss_oracle, match_anchors_oracle


# ---------------------------------------------------------------------------
# Oracle: the per-level `loss_and_grads` and `_backward` that the flat anchor
# axis replaced, kept verbatim except that `self` is the network argument and
# each level's anchors are cut from the flat array, and the RPN lines are
# guarded on the network having an RPN: a detector built with use_rpn=False
# has none, so it neither matches RPN anchors nor adds RPN loss terms. Each
# image is matched and scored by `test_detect`'s per-image oracles, which
# `TestBatchedMatching` and `TestBatchedLoss` pin to the batch cores.


def loss_and_grads_oracle(net, images, gt_per_image, lambdas=(1.0,) * 5):
    spec = net.spec
    n = len(net.taps)
    nb = images.shape[0]
    fwd = net.forward(images, training=True)
    level_anchors = np.split(net.anchors, np.cumsum(net.anchor_counts)[:-1])

    g_head_raw = [np.zeros_like(fwd["head_raw"][i]) for i in range(n)]
    has_rpn = net.rpn_conv is not None
    g_rpn_raw = np.zeros_like(fwd["rpn_raw"]) if has_rpn else None
    k = spec.n_classes
    total = 0.0
    comp_sum = {}

    for b in range(nb):
        classes, boxes = gt_per_image[b]
        gt_pairs = list(boxes)

        # head targets across every level
        cls_logits, hbb_off, obb_off = [], [], []
        cls_labels, hbb_t, obb_t = [], [], []
        splits = []
        for i in range(n):
            raw = fwd["head_raw"][i][b].reshape(-1, k + 10)
            cls_logits.append(raw[:, : k + 1])
            hbb_off.append(raw[:, k + 1 : k + 5])
            obb_off.append(raw[:, k + 5 :])
            m = match_anchors_oracle(level_anchors[i], gt_pairs, classes, stage="head")
            labels = m.labels.copy()
            splits.append((raw.shape[0], m))
            cls_labels.append(labels)
            hbb_t.append(m.hbb_targets)
            obb_t.append(m.obb_targets)
        cls_logits = np.concatenate(cls_logits)
        hbb_off = np.concatenate(hbb_off)
        obb_off = np.concatenate(obb_off)
        cls_labels = np.concatenate(cls_labels)
        hbb_t = np.concatenate(hbb_t)
        obb_t = np.concatenate(obb_t)

        cls_labels = net._mine_negatives(cls_logits[None], cls_labels[None])[0]

        preds = {
            "cls_logits": cls_logits,
            "hbb_offsets": hbb_off,
            "obb_offsets": obb_off,
        }
        tgts = {
            "cls_labels": cls_labels,
            "hbb_offsets": hbb_t,
            "obb_offsets": obb_t,
        }
        if has_rpn:
            rm = match_anchors_oracle(net.rpn_anchors, gt_pairs, classes, stage="rpn")
            rpn_flat = fwd["rpn_raw"][b].reshape(-1, 5)
            preds.update(rpn_logits=rpn_flat[:, 0], rpn_offsets=rpn_flat[:, 1:5])
            tgts.update(rpn_labels=rm.labels, rpn_offsets=rm.hbb_targets)
        loss, comps, grads = composite_loss_oracle(preds, tgts, lambdas)
        total += loss
        for key, v in comps.items():
            comp_sum[key] = comp_sum.get(key, 0.0) + v

        if has_rpn:
            g_rpn_raw[b] += np.concatenate(
                [grads["rpn_logits"][:, None], grads["rpn_offsets"]], axis=1
            ).reshape(fwd["rpn_raw"][b].shape) / nb
        g_full = np.concatenate(
            [grads["cls_logits"], grads["hbb_offsets"], grads["obb_offsets"]], axis=1
        )
        lo = 0
        for i in range(n):
            count, _ = splits[i]
            g_head_raw[i][b] += g_full[lo : lo + count].reshape(
                fwd["head_raw"][i][b].shape
            ) / nb
            lo += count

    backward_oracle(net, g_head_raw, g_rpn_raw)
    comps = {key: v / nb for key, v in comp_sum.items()}
    return total / nb, comps


def backward_oracle(net, g_head_raw, g_rpn_raw):
    spec = net.spec
    n = len(net.taps)
    g_d = [net.head_convs[i].backward(g_head_raw[i]) for i in range(n)]

    # fusion chain, coarse to fine
    for k in range(n - 1, 0, -1):
        if spec.use_ffm:
            gp, gc = net.fusion[k - 1].backward(g_d[k])
            g_d[k - 1] = g_d[k - 1] + gp
            g_merged_k = gc
        else:
            g_merged_k = g_d[k]
        g_d[k] = g_merged_k  # now gradient w.r.t. merged[k]
    # level 0 merged gradient is g_d[0]

    g_taps = [None] * n
    g_lipm = [None] * n
    for i in range(n):
        ga, gb = net.attention[i].backward(g_d[i])
        g_taps[i] = ga
        g_lipm[i] = gb

    if net.rpn_conv is not None:
        g_rpn_in = net.rpn_conv.backward(g_rpn_raw)
        if spec.use_lipm:
            g_lipm[-1] = g_lipm[-1] + g_rpn_in
        else:
            g_taps[-1] = g_taps[-1] + g_rpn_in
    if spec.use_lipm:
        for i in range(n):
            net.lipm_stages[i].backward(g_lipm[i])

    g = g_taps[-1]
    for k in range(n - 1, 0, -1):
        g = net.segments[k].backward(g)
        g = g + g_taps[k - 1]
    net.segments[0].backward(g)


def _batch(n, dtype):
    """n scenes with their ground truth, except that with n > 1 the last
    image gets none."""
    spec = synthdata.SceneSpec(seed=5, image_size=64, min_objects=1, max_objects=3)
    scenes = [synthdata.generate_scene(spec, i) for i in range(n)]
    gts = [
        ([o.class_id for o in s.objects], [(o.hbox, o.obox) for o in s.objects])
        for s in scenes
    ]
    if n > 1:
        gts[-1] = ([], [])
    return np.stack([s.image for s in scenes]).astype(dtype), gts


# float64 takes the exact-sum paths, over 10x the float32 time: one image
ORACLE_SPECS = {
    "default": (dict(), np.float32, 2),
    "no_rpn": (dict(use_rpn=False), np.float32, 2),
    "no_lipm": (dict(use_lipm=False), np.float32, 2),
    "no_ffm": (dict(use_ffm=False), np.float32, 2),
    "float64": (dict(), np.float64, 1),
    "n4": (dict(n_rotations=4), np.float32, 2),
    "n12": (dict(n_rotations=12), np.float32, 2),
}


@pytest.mark.parametrize("case", sorted(ORACLE_SPECS))
def test_loss_and_grads_match_per_level_oracle(case):
    kwargs, dtype, batch = ORACLE_SPECS[case]
    images, gts = _batch(batch, dtype)
    got_net, want_net = (
        Detector(NetworkSpec(**kwargs), rng=np.random.default_rng(0), dtype=dtype)
        for _ in range(2)
    )
    got_loss, got_comps = got_net.loss_and_grads(images, gts)
    want_loss, want_comps = loss_and_grads_oracle(want_net, images, gts)
    assert repr(got_loss) == repr(want_loss)
    assert {k: repr(v) for k, v in got_comps.items()} == {
        k: repr(v) for k, v in want_comps.items()
    }
    got, want = got_net.grads(), want_net.grads()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


def _b4_batch(net):
    """Four float32 images and their ground truth: 1, 0, 3 and 2 objects,
    so the batch pads to three boxes per image and its box-free image is
    not the last; the last image's two boxes share their best RPN anchor."""
    spec = synthdata.SceneSpec(seed=5, image_size=64, min_objects=1, max_objects=3)
    scenes = [synthdata.generate_scene(spec, i) for i in range(40)]
    by_count = {len(s.objects): s for s in reversed(scenes)}
    picked = [by_count[1], scenes[0], by_count[3], by_count[2]]
    gts = [
        ([o.class_id for o in s.objects], [(o.hbox, o.obox) for o in s.objects])
        for s in picked
    ]
    gts[1] = ([], [])
    a = net.rpn_anchors[len(net.rpn_anchors) // 2 + 4]
    hbs = [detect.HBox(*a), detect.HBox(a[0] + 1, a[1], a[2] + 1, a[3])]
    best = detect._iou_matrix(net.rpn_anchors, np.stack([h.as_array() for h in hbs]))
    assert best.argmax(axis=0).tolist() == [best[:, 0].argmax()] * 2
    gts[3] = ([1, 2], [(h, detect.OBox(*h.center, h.width, h.height, 20.0)) for h in hbs])
    return np.stack([s.image for s in picked]).astype(np.float32), gts


def test_batch_of_four_matches_per_image_oracle():
    got_net, want_net = (
        Detector(NetworkSpec(), rng=np.random.default_rng(0), dtype=np.float32)
        for _ in range(2)
    )
    images, gts = _b4_batch(got_net)
    got_loss, got_comps = got_net.loss_and_grads(images, gts)
    want_loss, want_comps = loss_and_grads_oracle(want_net, images, gts)
    assert repr(got_loss) == repr(want_loss)
    assert {k: repr(v) for k, v in got_comps.items()} == {
        k: repr(v) for k, v in want_comps.items()
    }
    got, want = got_net.grads(), want_net.grads()
    assert sorted(got) == sorted(want)
    # the head and RPN gradients are written from float64 terms
    assert {"head0/w", "head1/w", "rpn/w"} <= set(got)
    for name in want:
        assert got[name].dtype == np.float32, name
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("gts, message", [
    ([([1], [0])], "ground truth for 1 images in a batch of 2"),
    ([([1], [0]), ([0], [0])], r"ground truth of image 1: class id 0 is outside 1\.\.3"),
    ([([4], [0]), ([1], [0])], r"ground truth of image 0: class id 4 is outside 1\.\.3"),
    ([([1], [0, 0]), ([1], [0])], "ground truth of image 0: 1 class ids for 2 boxes"),
])
def test_ground_truth_the_loss_cannot_read_raises_before_the_forward(gts, message):
    net = Detector(NetworkSpec(), rng=np.random.default_rng(0))
    images, real = _batch(2, np.float32)
    box = real[0][1][0]
    gts = [(classes, [box for _ in boxes]) for classes, boxes in gts]
    with pytest.raises(ShapeError, match=message):
        net.loss_and_grads(images, gts)
    assert all(not g.any() for g in net.grads().values())


# ---------------------------------------------------------------------------
# whole-detector finite differences


FD_SPEC = dict(
    n_rotations=4,
    input_size=32,
    backbone=(
        {"size": 3, "filters": 2, "pool": 2, "tap": False},
        {"size": 3, "filters": 3, "pool": 2, "tap": True},
        {"size": 3, "filters": 3, "pool": 2, "tap": True},
    ),
    merge_channels=4,
    anchor_scales=((8.0, 12.0), (16.0, 24.0)),
    rpn_top_k=4,
)


@pytest.mark.parametrize("switches", [
    pytest.param({}, id="full"),
    pytest.param(dict(use_lipm=False), id="no_lipm"),
    pytest.param(dict(use_lipm=False, use_ffm=False, use_rpn=False), id="bare"),
])
def test_detector_gradients_match_finite_differences(switches):
    """One entry with a nonzero gradient per parameter tensor, float64. A
    switched-off block has no parameters, so every tensor left must get a
    gradient.

    The tolerance is relative with an absolute floor: a gradient near 1e-6
    (the RPN weights here) is resolved by central differences at step 1e-6
    only to about 1e-10, the round-off of the loss over the step.
    """
    net = Detector(NetworkSpec(**FD_SPEC, **switches), rng=np.random.default_rng(0),
                   dtype=np.float64)
    spec = synthdata.SceneSpec(seed=2, image_size=32, min_objects=2, max_objects=2,
                               min_size=8.0, max_size=14.0)
    scene = synthdata.generate_scene(spec, 0)
    images = scene.image[None].astype(np.float64)
    gts = [([o.class_id for o in scene.objects], [(o.hbox, o.obox) for o in scene.objects])]

    net.zero_grads()
    net.loss_and_grads(images, gts)
    grads = {k: g.copy() for k, g in net.grads().items()}
    params = net.params()
    assert sorted(params) == sorted(grads)

    def loss():
        return net.loss_and_grads(images, gts)[0]

    rng = np.random.default_rng(0)
    step = 1e-6
    for name, p in params.items():
        flat = p.reshape(-1)
        assert np.shares_memory(flat, p)
        gflat = grads[name].reshape(-1)
        nonzero = np.flatnonzero(gflat)
        assert nonzero.size, f"{name}: no nonzero gradient entry"
        i = rng.choice(nonzero)
        orig = flat[i]
        flat[i] = orig + step
        lp = loss()
        flat[i] = orig - step
        lm = loss()
        flat[i] = orig
        fd = (lp - lm) / (2 * step)
        assert abs(fd - gflat[i]) <= 1e-4 * abs(gflat[i]) + 1e-9, (name, fd, gflat[i])


# ---------------------------------------------------------------------------
# ablation switches: a switched-off block is not built, run, trained or saved


# per switch: the name part of every tensor it removes (the pyramid's also
# names the attention merges' `norm_lipm`) and the default spec's parameter
# count without them
ABLATIONS = {
    "use_lipm": ("lipm", 33232),
    "use_ffm": ("fusion", 35480),
    "use_rpn": ("rpn", 32666),
}


@pytest.mark.parametrize("switch", sorted(ABLATIONS))
def test_switched_off_block_is_not_built_and_the_rest_trains(switch):
    part, n_params = ABLATIONS[switch]
    images, gts = _batch(2, np.float32)
    net = Detector(NetworkSpec(**{switch: False}), rng=np.random.default_rng(0))
    names = list(net.params()) + list(net.state())
    assert not [k for k in names if part in k]
    assert sum(p.size for p in net.params().values()) == n_params
    net.zero_grads()
    _, comps = net.loss_and_grads(images, gts)
    assert [k for k, g in net.grads().items() if not g.any()] == []
    rpn_terms = [comps["rpn_cls"], comps["rpn_reg"]]
    assert (rpn_terms == [0.0, 0.0]) == (switch == "use_rpn")


def test_default_spec_parameter_count():
    net = Detector(NetworkSpec(), rng=np.random.default_rng(0))
    assert sum(p.size for p in net.params().values()) == 37016
