import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oriconv import detect, synthdata
from oriconv.detect import (
    Detection,
    GroundTruth,
    HBox,
    HEAD_POS_IOU,
    MatchResult,
    OBox,
    RPN_NEG_IOU,
    RPN_POS_IOU,
    _iou_matrix,
    anchor_boxes,
    assign_pyramid_level,
    binary_ce_with_logits,
    composite_loss_batch,
    decode_hbb_array,
    decode_obb_array,
    encode_boxes,
    iou_hbb,
    iou_obb,
    match_batch,
    nms_indices,
    oboxes_from_rows,
    propose_rois,
    sigmoid,
    smooth_l1,
    smooth_l1_grad,
    softmax,
    softmax_ce,
    top_order,
)
from oriconv.errors import NumericalError, ShapeError
from oriconv.networks import Detector, NetworkSpec


# ---------------------------------------------------------------------------
# Scalar oracles: the per-row encode and decode, the per-positive matcher, the
# pairwise greedy NMS and the per-anchor post-processing loops the vectorised
# code replaced, kept verbatim so the array paths are checked bit for bit
# against them.


def encode_hbb_oracle(anchor, gt):
    wa = anchor[2] - anchor[0]
    ha = anchor[3] - anchor[1]
    xa = 0.5 * (anchor[0] + anchor[2])
    ya = 0.5 * (anchor[1] + anchor[3])
    xc, yc = gt.center
    return np.array(
        [
            (xc - xa) / wa,
            (yc - ya) / ha,
            math.log(gt.width / wa),
            math.log(gt.height / ha),
        ]
    )


def encode_obb_oracle(anchor, gt):
    wa = anchor[2] - anchor[0]
    ha = anchor[3] - anchor[1]
    xa = 0.5 * (anchor[0] + anchor[2])
    ya = 0.5 * (anchor[1] + anchor[3])
    return np.array(
        [
            (gt.xc - xa) / wa,
            (gt.yc - ya) / ha,
            math.log(gt.w / wa),
            math.log(gt.h / ha),
            gt.theta / 90.0,
        ]
    )


def match_anchors_oracle(anchors, gt_boxes, gt_classes=None, stage="rpn"):
    n = anchors.shape[0]
    labels = np.full(n, -1 if stage == "rpn" else 0, dtype=np.int64)
    hbb_t = np.zeros((n, 4))
    obb_t = np.zeros((n, 5))
    matched = np.full(n, -1, dtype=np.int64)

    hb = []
    ob = []
    for g in gt_boxes:
        if isinstance(g, tuple):
            hb.append(g[0])
            ob.append(g[1])
        else:
            hb.append(g)
            ob.append(None)
    if not hb:
        if stage == "rpn":
            labels[:] = 0
        return MatchResult(labels, hbb_t, obb_t, matched)

    gt_arr = np.stack([b.as_array() for b in hb])
    iou = _iou_matrix(anchors, gt_arr)
    best_gt = np.argmax(iou, axis=1)
    best_iou = iou[np.arange(n), best_gt]

    if stage == "rpn":
        labels[best_iou <= RPN_NEG_IOU] = 0
        labels[best_iou >= RPN_POS_IOU] = 1
        # force the best anchor per ground truth positive
        for g in range(len(hb)):
            a = int(np.argmax(iou[:, g]))
            if iou[a, g] > 0:
                labels[a] = 1
                best_gt[a] = g
        pos = labels == 1
    else:
        pos = best_iou >= HEAD_POS_IOU
        classes = (
            np.asarray(gt_classes, dtype=np.int64)
            if gt_classes is not None
            else np.ones(len(hb), dtype=np.int64)
        )
        labels[pos] = classes[best_gt[pos]]

    for a in np.flatnonzero(pos):
        g = best_gt[a]
        matched[a] = g
        hbb_t[a] = encode_hbb_oracle(anchors[a], hb[g])
        if ob[g] is not None:
            obb_t[a] = encode_obb_oracle(anchors[a], ob[g])
        else:
            obb_t[a, :4] = hbb_t[a]
    return MatchResult(labels, hbb_t, obb_t, matched)


def decode_hbb_oracle(anchor, t):
    wa = anchor[2] - anchor[0]
    ha = anchor[3] - anchor[1]
    xa = 0.5 * (anchor[0] + anchor[2])
    ya = 0.5 * (anchor[1] + anchor[3])
    xc = t[0] * wa + xa
    yc = t[1] * ha + ya
    w = math.exp(min(t[2], 8.0)) * wa
    h = math.exp(min(t[3], 8.0)) * ha
    return HBox(xc - w / 2, yc - h / 2, xc + w / 2, yc + h / 2)


def decode_obb_oracle(anchor, o):
    wa = anchor[2] - anchor[0]
    ha = anchor[3] - anchor[1]
    xa = 0.5 * (anchor[0] + anchor[2])
    ya = 0.5 * (anchor[1] + anchor[3])
    return OBox(
        o[0] * wa + xa,
        o[1] * ha + ya,
        math.exp(min(o[2], 8.0)) * wa,
        math.exp(min(o[3], 8.0)) * ha,
        o[4] * 90.0,
    )


def nms_oracle(detections, iou_threshold):
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    keep = []
    for i in order:
        d = detections[i]
        ok = True
        for j in keep:
            k = detections[j]
            v = iou_hbb(d.hbox, k.hbox)
            if v > iou_threshold:
                ok = False
                break
        if ok:
            keep.append(i)
    return [detections[i] for i in keep]


def propose_rois_oracle(logits, offsets, anchors, n_levels, top_k=16, nms_iou=0.7):
    order = sorted(range(len(logits)), key=lambda i: (-logits[i], i))
    cand = []
    for i in order[: max(4 * top_k, 64)]:
        try:
            box = decode_hbb_oracle(anchors[i], offsets[i])
        except ShapeError:
            continue
        cand.append(Detection(0, float(sigmoid(np.array([logits[i]]))[0]), hbox=box))
    kept = nms_oracle(cand, nms_iou)[:top_k]
    return [(d.hbox, d.score, assign_pyramid_level(d.hbox.width, d.hbox.height, n_levels))
            for d in kept]


def detect_image_oracle(net, image, score_threshold, nms_iou=0.45, max_per_image=40):
    k = net.spec.n_classes
    fwd = net.forward(image[None], training=False)
    dets = []
    levels = np.split(net.anchors, np.cumsum(net.anchor_counts)[:-1])
    for i in range(len(net.taps)):
        raw = fwd["head_raw"][i][0].reshape(-1, k + 10)
        probs = softmax(raw[:, : k + 1].astype(np.float64))
        hbb_off = raw[:, k + 1 : k + 5]
        obb_off = raw[:, k + 5 :]
        best_cls = np.argmax(probs[:, 1:], axis=1) + 1
        best_score = probs[np.arange(raw.shape[0]), best_cls]
        for a in np.flatnonzero(best_score >= score_threshold):
            try:
                hb = decode_hbb_oracle(levels[i][a], hbb_off[a])
                ob = decode_obb_oracle(levels[i][a], obb_off[a])
            except Exception:
                continue
            dets.append(Detection(int(best_cls[a]), float(best_score[a]), hbox=hb, obox=ob))
    dets.sort(key=lambda d: -d.score)
    dets = dets[: 4 * max_per_image]
    out = []
    for cls in range(1, k + 1):
        out.extend(nms_oracle([d for d in dets if d.class_id == cls], nms_iou))
    out.sort(key=lambda d: -d.score)
    return out[:max_per_image]


def box_bytes(b):
    """Field values and their numpy scalar types, so a dtype change shows."""
    fields = (b.xmin, b.ymin, b.xmax, b.ymax) if isinstance(b, HBox) else (
        b.xc, b.yc, b.w, b.h, b.theta)
    return tuple((type(v).__name__, np.asarray(v).tobytes()) for v in fields)


def detection_key(d):
    obox = None if d.obox is None else box_bytes(d.obox)
    return (d.class_id, type(d.score).__name__, repr(d.score), box_bytes(d.hbox), obox)


def mc_iou(a: OBox, b: OBox, rng, n=400_000):
    """Monte-Carlo area oracle for oriented IoU."""
    ha, hb = a.hull(), b.hull()
    x0, y0 = min(ha.xmin, hb.xmin), min(ha.ymin, hb.ymin)
    x1, y1 = max(ha.xmax, hb.xmax), max(ha.ymax, hb.ymax)
    pts = rng.uniform((x0, y0), (x1, y1), size=(n, 2))

    def inside(o, p):
        t = math.radians(o.theta)
        u = np.array([math.cos(t), -math.sin(t)])
        v = np.array([math.sin(t), math.cos(t)])
        d = p - np.array([o.xc, o.yc])
        return (np.abs(d @ u) <= o.w / 2) & (np.abs(d @ v) <= o.h / 2)

    ia, ib = inside(a, pts), inside(b, pts)
    union = int((ia | ib).sum())
    return int((ia & ib).sum()) / union if union else 0.0


class TestBoxes:
    def test_hbox_validation(self):
        with pytest.raises(ShapeError):
            HBox(3, 0, 3, 5)

    @pytest.mark.parametrize(
        "fields",
        [(0, 0, math.inf, 1), (-math.inf, 0, 1, 1), (0, 0, 1, math.nan), (0, -math.inf, 1, math.inf)],
    )
    def test_hbox_rejects_non_finite_fields(self, fields):
        with pytest.raises(ShapeError, match="finite"):
            HBox(*fields)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_decode_hbb_rejects_infinite_extent(self):
        # a finite centre with an overflowing width decodes to (-inf, inf)
        anchors = np.array([[0.0, 0.0, 1e308, 1.0], [0.0, 0.0, 4.0, 4.0]])
        offsets = np.array([[0.0, 0.0, 8.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        boxes, valid = decode_hbb_array(anchors, offsets)
        assert np.isinf(boxes[0, [0, 2]]).all()
        assert valid.tolist() == [False, True]
        with pytest.raises(ShapeError):
            HBox(*boxes[0])

    def test_obox_canonicalization(self):
        o = OBox(0, 0, 2, 5, 135.0)
        assert 0 <= o.theta < 90
        assert o.theta == pytest.approx(45.0)
        assert (o.w, o.h) == (5, 2)

    def test_hull_of_rotated_square(self):
        o = OBox(10, 10, 4, 2, 45.0)
        hull = o.hull()
        side = (4 + 2) / math.sqrt(2)
        assert hull.width == pytest.approx(side)
        assert hull.height == pytest.approx(side)

    @pytest.mark.parametrize(
        "fields",
        [(1, 1, math.nan, 2, 0), (math.inf, 1, 1, 2, 0), (1, 1, 1, 2, math.nan),
         (1, -math.inf, 1, 2, 0), (1, 1, 1, math.inf, 0)],
    )
    def test_obox_rejects_non_finite_fields(self, fields):
        with pytest.raises(ShapeError):
            OBox(*fields)

    def test_detection_requires_finite_score(self):
        with pytest.raises(ShapeError):
            Detection(1, float("nan"), HBox(0, 0, 1, 1))

    def test_detection_requires_a_box(self):
        with pytest.raises(ShapeError, match="hbox"):
            Detection(0, 0.5)
        assert Detection(0, 0.5, obox=OBox(5, 5, 4, 2, 0.0)).hbox == HBox(3, 4, 7, 6)


class TestIouHbb:
    def test_identical(self):
        b = HBox(2, 3, 8, 9)
        assert iou_hbb(b, b) == 1.0

    def test_disjoint(self):
        assert iou_hbb(HBox(0, 0, 1, 1), HBox(5, 5, 6, 6)) == 0.0

    def test_half_offset_unit_squares(self):
        assert iou_hbb(HBox(0, 0, 1, 1), HBox(0.5, 0, 1.5, 1)) == pytest.approx(1 / 3)


class TestIouObb:
    def test_identical_rotated(self):
        o = OBox(5, 5, 3, 2, 37.0)
        assert iou_obb(o, OBox(5, 5, 3, 2, 37.0)) == pytest.approx(1.0)

    def test_axis_aligned_matches_hbb(self):
        a = OBox(5, 5, 4, 2, 0.0)
        b = OBox(6, 5.5, 3, 2, 0.0)
        assert abs(iou_obb(a, b) - iou_hbb(a.hull(), b.hull())) < 1e-9

    def test_square_vs_rotated_45(self):
        inter = 2 * (math.sqrt(2) - 1)
        want = inter / (2 - inter)
        got = iou_obb(OBox(0, 0, 1, 1, 0.0), OBox(0, 0, 1, 1, 45.0))
        assert got == pytest.approx(want, abs=1e-9)

    def test_monte_carlo_oracle_50_pairs(self, rng):
        for _ in range(50):
            a = OBox(
                rng.uniform(3, 7), rng.uniform(3, 7),
                rng.uniform(1, 4), rng.uniform(1, 4), rng.uniform(0, 90),
            )
            b = OBox(
                rng.uniform(3, 7), rng.uniform(3, 7),
                rng.uniform(1, 4), rng.uniform(1, 4), rng.uniform(0, 90),
            )
            v = iou_obb(a, b)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(iou_obb(b, a), abs=1e-12)
            assert abs(v - mc_iou(a, b, rng)) < 2e-3


def centre_size(box):
    """The centre-size row `encode_boxes` takes for an HBox or an OBox."""
    if isinstance(box, HBox):
        return np.array([*box.center, box.width, box.height])
    return np.array([box.xc, box.yc, box.w, box.h])


class TestEncoding:
    def test_hbb_roundtrip(self, rng):
        for _ in range(20):
            anchor = np.array([2.0, 3.0, 12.0, 11.0])
            g = HBox(*sorted(rng.uniform(0, 8, 2)), *sorted(rng.uniform(9, 20, 2)))
            g = HBox(g.xmin, g.ymin, g.xmax + 1, g.ymax + 1)
            boxes, _ = decode_hbb_array(anchor[None], encode_boxes(anchor[None], centre_size(g)[None]))
            back = HBox(*boxes[0])
            assert np.abs(back.as_array() - g.as_array()).max() < 1e-6

    def test_obb_roundtrip(self, rng):
        anchor = np.array([2.0, 3.0, 12.0, 11.0])
        for _ in range(20):
            g = OBox(rng.uniform(4, 9), rng.uniform(4, 9), rng.uniform(2, 6),
                     rng.uniform(2, 6), rng.uniform(0, 90))
            t = encode_boxes(anchor[None], centre_size(g)[None])[0]
            o = np.append(t, g.theta / 90.0)
            back = oboxes_from_rows(decode_obb_array(anchor[None], o[None])[0], o.dtype)[0]
            assert np.abs(back.as_array() - g.as_array()).max() < 1e-6

    def test_identical_anchor_zero_offsets(self):
        anchor = np.array([0.0, 0.0, 10.0, 10.0])
        t = encode_boxes(anchor[None], centre_size(HBox(0, 0, 10, 10))[None])
        assert np.abs(t).max() < 1e-12


def one_image(boxes, classes=None) -> GroundTruth:
    """The ground truth of a batch of one image."""
    return GroundTruth.from_images([(classes, boxes)])


class TestMatching:
    def make_anchors(self):
        return anchor_boxes((4, 4), 16, scales=[20.0], ratios=[1.0])

    def test_identical_anchor_positive_zero_target(self):
        an = self.make_anchors()
        gt = HBox(*an[5])
        m = match_batch(an, one_image([gt]), stage="rpn")
        assert m.labels[0, 5] == 1
        assert np.abs(m.hbb_targets[0, 5]).max() < 1e-12

    def test_disjoint_all_negative(self):
        an = self.make_anchors()
        gt = HBox(1000, 1000, 1020, 1020)
        m = match_batch(an, one_image([gt]), stage="rpn")
        # the forced best-anchor rule does not apply at IoU 0
        assert (m.labels <= 0).all()

    def test_intermediate_iou_ignored_in_rpn(self):
        an = self.make_anchors()
        # shift an anchor box to a 0.6-ish IoU with anchor 5 only
        base = an[5]
        w = base[2] - base[0]
        gt = HBox(base[0] + 0.25 * w, base[1], base[2] + 0.25 * w, base[3])
        labels = match_batch(an, one_image([gt]), stage="rpn").labels[0]
        # anchor 5 is the best match for this gt, so the forced rule marks it
        # positive; a second overlapping gt-free anchor at 0.6 stays ignored
        assert labels[5] == 1
        others = [i for i in range(len(an)) if i != 5]
        assert set(np.unique(labels[others])) <= {0, -1}

    def test_head_stage_takes_class(self):
        an = self.make_anchors()
        gt = HBox(*an[3])
        labels = match_batch(an, one_image([gt], [2]), stage="head").labels[0]
        assert labels[3] == 2
        assert (labels[labels >= 0] >= 0).all()

    def test_no_ground_truth_all_negative(self):
        an = self.make_anchors()
        m = match_batch(an, one_image([]), stage="rpn")
        assert (m.labels == 0).all()

    def test_obb_target_fifth_offset(self):
        an = self.make_anchors()
        hb = HBox(*an[0])
        ob = OBox(0.5 * (hb.xmin + hb.xmax), 0.5 * (hb.ymin + hb.ymax),
                  hb.width, hb.height, 30.0)
        m = match_batch(an, one_image([(hb, ob)]), stage="rpn")
        assert m.obb_targets[0, 0, 4] == pytest.approx(30.0 / 90.0)


class TestCompositeLoss:
    """The loss of one image: `composite_loss_batch` on a batch of one."""

    def perfect_case(self):
        n, m, k = 6, 8, 3
        rpn_labels = np.array([[1, 0, 0, 1, 0, 0]])
        preds = {
            "rpn_logits": np.where(rpn_labels == 1, 30.0, -30.0).astype(np.float64),
            "rpn_offsets": np.zeros((1, n, 4)),
            "cls_logits": np.zeros((1, m, k + 1)),
            "hbb_offsets": np.zeros((1, m, 4)),
            "obb_offsets": np.zeros((1, m, 5)),
        }
        cls_labels = np.array([[1, 0, 0, 2, 0, 0, 3, 0]])
        logits = np.full((1, m, k + 1), -30.0)
        logits[0, np.arange(m), cls_labels[0]] = 30.0
        preds["cls_logits"] = logits
        tgts = {
            "rpn_labels": rpn_labels,
            "rpn_offsets": np.zeros((1, n, 4)),
            "cls_labels": cls_labels,
            "hbb_offsets": np.zeros((1, m, 4)),
            "obb_offsets": np.zeros((1, m, 5)),
        }
        return preds, tgts

    def test_zero_on_exact_predictions(self):
        preds, tgts = self.perfect_case()
        totals, comps, _ = composite_loss_batch(preds, tgts)
        assert totals[0] < 1e-6
        assert all(v[0] >= 0 for v in comps.values())

    def test_smooth_l1_values(self):
        assert smooth_l1(np.array([0.5]))[0] == pytest.approx(0.125)
        assert smooth_l1(np.array([2.0]))[0] == pytest.approx(1.5)

    def test_background_only_image(self):
        preds, tgts = self.perfect_case()
        tgts["rpn_labels"] = np.zeros((1, 6), dtype=np.int64)
        tgts["cls_labels"] = np.zeros((1, 8), dtype=np.int64)
        preds["rpn_offsets"] = np.ones((1, 6, 4))  # must not contribute
        preds["hbb_offsets"] = np.ones((1, 8, 4))
        totals, comps, _ = composite_loss_batch(preds, tgts)
        assert comps["rpn_reg"] == [0.0]
        assert comps["head_hbb"] == [0.0]
        assert comps["head_obb"] == [0.0]
        assert np.isfinite(totals[0])

    def test_lambda_toggles(self):
        preds, tgts = self.perfect_case()
        preds["hbb_offsets"] = np.ones((1, 8, 4))  # nonzero regression error
        totals_on, comps_on, _ = composite_loss_batch(preds, tgts, (1, 1, 1, 1, 1))
        totals_off, _, _ = composite_loss_batch(preds, tgts, (1, 1, 1, 0, 1))
        assert comps_on["head_hbb"][0] > 0
        assert totals_on[0] - totals_off[0] == pytest.approx(comps_on["head_hbb"][0])

    def test_gradients_match_finite_differences(self, rng):
        from oriconv.tensor import finite_diff_check

        n, m, k = 5, 6, 2
        preds = {
            "rpn_logits": rng.normal(size=(1, n)),
            "rpn_offsets": rng.normal(size=(1, n, 4)),
            "cls_logits": rng.normal(size=(1, m, k + 1)),
            "hbb_offsets": rng.normal(size=(1, m, 4)),
            "obb_offsets": rng.normal(size=(1, m, 5)),
        }
        tgts = {
            "rpn_labels": np.array([[1, 0, -1, 1, 0]]),
            "rpn_offsets": rng.normal(size=(1, n, 4)),
            "cls_labels": np.array([[1, 0, 2, -1, 0, 1]]),
            "hbb_offsets": rng.normal(size=(1, m, 4)),
            "obb_offsets": rng.normal(size=(1, m, 5)),
        }
        _, _, grads = composite_loss_batch(preds, tgts)
        for key in preds:
            def loss(p, key=key):
                q = dict(preds)
                q[key] = p
                return composite_loss_batch(q, tgts)[0][0]

            err = finite_diff_check(loss, preds[key].copy(), grads[key].dense(), step=1e-5)
            assert err < 1e-4, key

    def test_loss_nonnegative(self, rng):
        preds, tgts = self.perfect_case()
        preds = {k: v + rng.normal(size=v.shape) for k, v in preds.items()}
        totals, _, _ = composite_loss_batch(preds, tgts)
        assert totals[0] >= 0


def _logit_rows(k1, dtype):
    """[257, k1] logits with exact ties for the row max, signed zeros
    among them, and rows far below zero."""
    rng = np.random.default_rng(k1)
    z = rng.normal(size=(257, k1)) * 4
    z[::7] = np.round(z[::7])
    z[5] = 0.0
    z[5, ::2] = -0.0
    z[9] = -700.0 + z[9]
    return z.astype(dtype)


class TestRowReductions:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
    @pytest.mark.parametrize("k1", [2, 4, 8, 13])
    def test_softmax_bytes_are_those_of_the_trailing_axis_max(self, k1, dtype):
        z = _logit_rows(k1, dtype)
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        assert softmax(z).tobytes() == want.tobytes()
        assert softmax(z[0]).tobytes() == want[0].tobytes()
        assert softmax(z.reshape(-1, 1, k1)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("k1", [2, 4, 8, 13])
    def test_softmax_ce_bytes_are_those_of_the_trailing_axis_max(self, k1):
        z = _logit_rows(k1, np.float64)
        labels = np.arange(len(z)) % k1
        zmax = z.max(axis=1, keepdims=True)
        want = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1)) - z[np.arange(len(z)), labels]
        loss, grad = softmax_ce(z, labels)
        assert loss.tobytes() == want.tobytes()
        e = np.exp(z - zmax)
        want_grad = e / e.sum(axis=-1, keepdims=True)
        want_grad[np.arange(len(z)), labels] -= 1.0
        assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
    @pytest.mark.parametrize(
        "n, k", [(0, 3), (5, 0), (5, 5), (5, 9), (300, 1), (300, 40), (300, 299)]
    )
    def test_top_order_is_the_head_of_the_stable_argsort(self, n, k, dtype):
        rng = np.random.default_rng(n + k)
        scores = np.round(rng.normal(size=n) * 3).astype(dtype)  # many ties
        scores[::11] = 0.0
        scores[1::11] = -0.0
        scores[2::13] = np.nan
        got = top_order(scores, k)
        assert got.dtype == np.int64
        assert got.tolist() == np.argsort(-scores, kind="stable")[:k].tolist()


def nms_rows(detections):
    """The float64 [N,4] boxes and [N] scores `nms_indices` takes, from the
    hboxes and scores of Detections."""
    boxes = np.array([d.hbox.as_array() for d in detections]).reshape(-1, 4)
    return boxes, np.array([d.score for d in detections], dtype=np.float64)


class TestNms:
    def test_single_detection(self):
        assert nms_indices(np.array([[0.0, 0.0, 5.0, 5.0]]), np.array([0.5]), 0.5).tolist() == [0]

    @pytest.mark.parametrize("limit, rows", [(3, [6]), (None, [40]), (25, [40])])
    def test_iou_rows_only_for_the_prefix_it_reaches(self, monkeypatch, limit, rows):
        # disjoint boxes keep every row they visit; with every second row a
        # duplicate, a limit of 3 is reached at row 5 of 40
        boxes = np.array([[10.0 * (i // 2), 0, 10.0 * (i // 2) + 5, 5] for i in range(40)])
        seen = []
        real = detect._iou_matrix
        monkeypatch.setattr(detect, "_iou_matrix", lambda a, b: seen.append(len(a)) or real(a, b))
        keep = nms_indices(boxes, np.linspace(1, 0, 40), 0.5, limit=limit)
        assert keep.tolist() == list(range(0, 40, 2))[:limit]
        assert seen == rows

    def test_identical_boxes_keep_best(self):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0]] * 2)
        assert nms_indices(boxes, np.array([0.8, 0.9]), 0.5).tolist() == [1]

    def test_chain_of_three(self):
        # pairwise IoUs {a-b: 0.6, b-c: 0.6, a-c: 0.1}: greedy keeps a and c
        boxes = np.array([[0.0, 0, 10, 4], [2.5, 0, 12.5, 4], [5.4, 0, 15.4, 4]])
        a, b, c = (HBox(*row) for row in boxes)
        assert iou_hbb(a, b) == pytest.approx(0.6, abs=0.01)
        assert iou_hbb(b, c) > 0.5
        assert iou_hbb(a, c) < 0.5
        assert nms_indices(boxes, np.array([0.9, 0.8, 0.7]), 0.5).tolist() == [0, 2]

    def test_output_subset_no_retained_overlap(self, rng):
        xy = rng.uniform(0, 20, size=(30, 2))
        boxes = np.concatenate([xy, xy + rng.uniform(2, 6, size=(30, 2))], axis=1)
        keep = nms_indices(boxes, rng.random(30), 0.4).tolist()
        assert len(set(keep)) == len(keep) and set(keep) <= set(range(30))
        for i, j in enumerate(keep):
            for k in keep[i + 1 :]:
                assert iou_hbb(HBox(*boxes[j]), HBox(*boxes[k])) <= 0.4


class TestRpn:
    def test_level_assignment(self):
        assert assign_pyramid_level(8, 8, 5, k0=1, s0=16.0) == 0
        assert assign_pyramid_level(128, 128, 5, k0=1, s0=16.0) == 4
        assert assign_pyramid_level(16, 16, 5, k0=1, s0=16.0) == 1

    def test_zero_features_deterministic(self):
        anchors = anchor_boxes((4, 4), 8, scales=[12.0], ratios=[1.0])
        logits = np.zeros(16)
        offsets = np.zeros((16, 4))
        r1 = propose_rois(logits, offsets, anchors, n_levels=2, top_k=4)
        r2 = propose_rois(logits, offsets, anchors, n_levels=2, top_k=4)
        assert r1
        assert [(roi.box.as_array().tolist(), roi.score, roi.level) for roi in r1] == [
            (roi.box.as_array().tolist(), roi.score, roi.level) for roi in r2
        ]

    def test_nan_logit_raises_numerical_error(self):
        anchors = anchor_boxes((4, 4), 8, scales=[12.0], ratios=[1.0])
        logits = np.zeros(16)
        logits[5] = np.nan
        with pytest.raises(NumericalError, match="RPN logits"):
            propose_rois(logits, np.zeros((16, 4)), anchors, n_levels=2, top_k=4)

    def test_dominant_anchor_becomes_first_roi(self):
        anchors = anchor_boxes((4, 4), 8, scales=[12.0], ratios=[1.0])
        best = 2 * 4 + 1
        logits = np.full(16, -5.0, dtype=np.float32)
        logits[best] = 5.0
        offsets = np.zeros((16, 4), dtype=np.float32)
        rois = propose_rois(logits, offsets, anchors, n_levels=2, top_k=3)
        assert rois[0].score == pytest.approx(1 / (1 + math.exp(-5.0)))
        assert np.abs(rois[0].box.as_array() - anchors[best]).max() < 1e-5


# ---------------------------------------------------------------------------
# the vectorised post-processing against the scalar oracles above


def _hbox_strategy(coord, size):
    return st.builds(lambda x, y, w, h: HBox(x, y, x + w, y + h), coord, coord, size, size)


# integer grids make identical, touching and exactly-at-threshold pairs common
GRID_HBOXES = _hbox_strategy(st.integers(0, 8).map(float), st.integers(1, 6).map(float))
HBOXES = GRID_HBOXES | _hbox_strategy(
    st.floats(-50, 50), st.floats(0.01, 30)
)
OBOXES = st.builds(
    OBox,
    st.integers(2, 10).map(float),
    st.integers(2, 10).map(float),
    st.integers(1, 6).map(float),
    st.integers(1, 6).map(float),
    st.sampled_from([0.0, 30.0, 45.0, 89.5, 120.0]) | st.floats(0, 180),
)
# scores from a small set, so exact ties are common
SCORES = st.sampled_from([0.25, 0.5, 0.75]) | st.floats(0, 1)
ANCHORS = st.builds(
    lambda x, y, w, h: (x, y, x + w, y + h),
    st.floats(-20, 80), st.floats(-20, 80), st.floats(1, 40), st.floats(1, 40),
)
# -40 and below collapse a box to zero extent; above 8 the exp is clamped
OFFSET_VALUES = st.floats(-3, 3) | st.sampled_from(
    [-60.0, -45.5, -40.0, 7.99, 8.0, 8.5, 40.0, 3e38, math.nan, math.inf, -math.inf]
)
OFFSET_ROWS = st.lists(
    st.tuples(ANCHORS, st.lists(OFFSET_VALUES, min_size=5, max_size=5)),
    min_size=1, max_size=8,
)


def _outcome(make):
    try:
        return box_bytes(make())
    except ShapeError:
        return None


# the default detector's anchor levels: 16x16 cells at stride 4, 8x8 at stride 8
MATCH_LEVELS = (
    anchor_boxes((16, 16), 4, (12.0, 18.0), (0.5, 1.0, 2.0)),
    anchor_boxes((8, 8), 8, (24.0, 32.0), (0.5, 1.0, 2.0)),
)


def _ground_truth(sample, mode):
    objs = sample.objects
    if mode == "pairs":
        return [(o.hbox, o.obox) for o in objs]
    if mode == "hboxes":
        return [o.hbox for o in objs]
    return [(o.hbox, o.obox) if j % 2 else o.hbox for j, o in enumerate(objs)]


class TestCodecMatchesOracle:
    @given(st.lists(st.tuples(ANCHORS, HBOXES, OBOXES), min_size=1, max_size=8))
    def test_encode_boxes_matches_scalar_encoders(self, rows):
        anchors = np.array([a for a, _, _ in rows], dtype=np.float64)
        got_h = encode_boxes(anchors, np.stack([centre_size(h) for _, h, _ in rows]))
        got_o = encode_boxes(anchors, np.stack([centre_size(o) for _, _, o in rows]))
        for j, (anchor, (_, h, o)) in enumerate(zip(anchors, rows)):
            assert got_h[j].tobytes() == encode_hbb_oracle(anchor, h).tobytes()
            assert got_o[j].tobytes() == encode_obb_oracle(anchor, o)[:4].tobytes()

    def test_encode_boxes_matches_scalar_encoders_on_random_rows(self, rng):
        # thousands of size ratios, so a logarithm that is off by one ulp on
        # a fraction of a percent of them shows
        xy = rng.uniform(0, 60, size=(2000, 2))
        anchors = np.concatenate([xy, xy + rng.uniform(2, 40, size=(2000, 2))], axis=1)
        hboxes = [HBox(x, y, x + w, y + h) for x, y, w, h in rng.uniform(0.5, 40, (2000, 4))]
        oboxes = [OBox(*r, t) for r, t in zip(rng.uniform(0.5, 40, (2000, 4)),
                                               rng.uniform(0, 90, 2000))]
        got_h = encode_boxes(anchors, np.stack([centre_size(b) for b in hboxes]))
        got_o = encode_boxes(anchors, np.stack([centre_size(b) for b in oboxes]))
        want_h = np.stack([encode_hbb_oracle(a, b) for a, b in zip(anchors, hboxes)])
        want_o = np.stack([encode_obb_oracle(a, b)[:4] for a, b in zip(anchors, oboxes)])
        assert got_h.tobytes() == want_h.tobytes()
        assert got_o.tobytes() == want_o.tobytes()

    @pytest.mark.parametrize("stage", ["head", "rpn"])
    @pytest.mark.parametrize("mode", ["pairs", "hboxes", "mixed"])
    def test_single_image_match_matches_per_positive_oracle(self, stage, mode):
        spec = synthdata.SceneSpec(seed=3, image_size=64, min_objects=1, max_objects=4)
        anchors = np.concatenate(MATCH_LEVELS) if stage == "head" else MATCH_LEVELS[-1]
        for i in range(12):
            scene = synthdata.generate_scene(spec, i)
            for sample in (scene, synthdata.augment(scene, {"hflip": True})):
                gt = _ground_truth(sample, mode)
                classes = [o.class_id for o in sample.objects]
                got = match_batch(anchors, one_image(gt, classes), stage=stage)
                want = match_anchors_oracle(anchors, gt, classes, stage=stage)
                for name in ("labels", "hbb_targets", "obb_targets", "matched_gt"):
                    a, b = getattr(got, name)[0], getattr(want, name)
                    assert a.dtype == b.dtype and a.shape == b.shape, name
                    assert a.tobytes() == b.tobytes(), (i, name)


class TestVectorisedPostprocess:
    @given(st.lists(HBOXES, min_size=1, max_size=10), st.lists(HBOXES, min_size=1, max_size=10))
    def test_iou_matrix_matches_iou_hbb(self, a, b):
        got = _iou_matrix(np.stack([x.as_array() for x in a]), np.stack([y.as_array() for y in b]))
        want = np.array([[iou_hbb(x, y) for y in b] for x in a], dtype=np.float64)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(OFFSET_ROWS, st.sampled_from([np.float32, np.float64]))
    def test_decode_arrays_match_scalar_oracle(self, rows, dtype):
        anchors = np.array([a for a, _ in rows], dtype=np.float64)
        offsets = np.array([o for _, o in rows], dtype=np.float64).astype(dtype)
        hb, hb_ok = decode_hbb_array(anchors, offsets[:, :4])
        ob, ob_ok = decode_obb_array(anchors, offsets)
        for j, (anchor, t) in enumerate(zip(anchors, offsets)):
            want = _outcome(lambda: decode_hbb_oracle(anchor, t[:4]))
            assert hb_ok[j] == (want is not None)
            assert _outcome(lambda: HBox(*hb[j])) == want
            want = _outcome(lambda: decode_obb_oracle(anchor, t))
            assert ob_ok[j] == (want is not None)
            assert _outcome(lambda: oboxes_from_rows(ob[j : j + 1], offsets.dtype)[0]) == want

    @given(st.data())
    def test_nms_matches_greedy_oracle(self, data):
        n = data.draw(st.integers(1, 14))
        dets = [
            Detection(0, s, hbox=b)
            for s, b in zip(
                data.draw(st.lists(SCORES, min_size=n, max_size=n)),
                data.draw(st.lists(HBOXES, min_size=n, max_size=n)),
            )
        ]
        # a threshold equal to one of the pairwise IoUs puts a pair exactly on it
        pairwise = [iou_hbb(a.hbox, b.hbox) for a in dets for b in dets]
        threshold = data.draw(st.sampled_from(pairwise) | st.floats(0, 1))
        limit = data.draw(st.none() | st.integers(0, n + 1))
        want = nms_oracle(dets, threshold)[:limit]
        keep = nms_indices(*nms_rows(dets), threshold, limit)
        assert [id(dets[i]) for i in keep] == [id(d) for d in want]

    @given(st.data())
    def test_nms_indices_select_what_the_greedy_oracle_keeps(self, data):
        n = data.draw(st.integers(0, 10))
        dets = [
            Detection(0, s, obox=data.draw(OBOXES)) if data.draw(st.booleans())
            else Detection(0, s, hbox=data.draw(GRID_HBOXES))
            for s in data.draw(st.lists(SCORES, min_size=n, max_size=n))
        ]
        threshold = data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.5]) | st.floats(0, 1))
        limit = data.draw(st.sampled_from([None, 0, 1, 3]))
        keep = nms_indices(*nms_rows(dets), threshold, limit)
        want = nms_oracle(dets, threshold)[:limit]
        assert keep.dtype == np.int64
        assert [id(dets[i]) for i in keep] == [id(d) for d in want]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("seed", range(8))
    def test_propose_rois_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        anchors = anchor_boxes((8, 8), 8, scales=[12.0, 20.0], ratios=[0.5, 1.0, 2.0])
        n = anchors.shape[0]
        dtype = (np.float32, np.float64)[seed % 2]
        logits = rng.normal(size=n).astype(dtype)
        if seed % 4 < 2:
            logits = np.round(logits * 2) / 2  # many exact ties
        offsets = (rng.normal(size=(n, 4)) * 0.5).astype(dtype)
        if seed >= 4:  # degenerate offsets among the best-scored anchors
            top = np.argsort(-logits, kind="stable")[:80]
            offsets[top[::3], 2] = -60.0
            offsets[top[1::5], 0] = np.nan
        top_k, nms_iou = [(16, 0.7), (4, 0.3), (32, 0.5), (8, 0.0)][seed % 4]
        got = propose_rois(logits, offsets, anchors, 3, top_k=top_k, nms_iou=nms_iou)
        want = propose_rois_oracle(logits, offsets, anchors, 3, top_k=top_k, nms_iou=nms_iou)
        assert got
        assert [(box_bytes(r.box), repr(r.score), r.level) for r in got] == [
            (box_bytes(b), repr(s), lv) for b, s, lv in want
        ]


def _scene_images(n):
    spec = synthdata.SceneSpec(seed=3, image_size=64, min_objects=1, max_objects=3)
    return [synthdata.generate_scene(spec, i).image for i in range(n)]


def _degenerate_detector():
    """Default detector whose head biases push classes of four anchor kinds
    above 0.3 and break the boxes of two of them: kind 0 decodes to an empty
    HBB (width offset -60), kind 1 to a NaN OBB centre."""
    net = Detector(NetworkSpec(), rng=np.random.default_rng(0))
    per_anchor = net.spec.n_classes + 10
    for conv in net.head_convs:
        for kind in range(4):
            conv.b[kind * per_anchor + 1 + kind % 3] = 2.0
        conv.b[0 * per_anchor + net.spec.n_classes + 1 + 2] = -60.0
        conv.b[1 * per_anchor + net.spec.n_classes + 5] = np.nan
    return net


class TestDetectImageOracle:
    @pytest.fixture(scope="class")
    def plain(self):
        return Detector(NetworkSpec(), rng=np.random.default_rng(0)), _scene_images(3)

    @pytest.fixture(scope="class")
    def degenerate(self):
        return _degenerate_detector(), _scene_images(2)

    @pytest.mark.parametrize("threshold", [0.0, 0.2, 0.3])
    def test_matches_per_anchor_loop(self, plain, threshold):
        net, images = plain
        for image in images:
            got = net.detect_image(image, score_threshold=threshold)
            want = detect_image_oracle(net, image, threshold)
            assert [detection_key(d) for d in got] == [detection_key(d) for d in want]
            assert threshold == 0.3 or len(got) == 40

    @pytest.mark.parametrize("shape", [(32, 32, 1), (64, 64, 3), (64, 32, 1)])
    def test_image_of_another_shape_raises(self, plain, shape):
        # the anchors are laid out for the spec's 64 px, 1-channel input
        net, _ = plain
        with pytest.raises(ShapeError, match="detector input"):
            net.detect_image(np.zeros(shape, dtype=np.float32))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("threshold", [0.0, 0.2, 0.3])
    def test_matches_per_anchor_loop_with_invalid_boxes(self, degenerate, threshold):
        net, images = degenerate
        for image in images:
            got = net.detect_image(image, score_threshold=threshold, nms_iou=0.1)
            want = detect_image_oracle(net, image, threshold, nms_iou=0.1)
            assert got
            assert [detection_key(d) for d in got] == [detection_key(d) for d in want]
            assert all(np.isfinite(d.obox.as_array()).all() for d in got)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("max_per_image", [0, 1, 10])
    @pytest.mark.parametrize("net_kind", ["plain", "degenerate"])
    def test_matches_per_anchor_loop_at_smaller_caps(self, request, net_kind, max_per_image):
        net, images = request.getfixturevalue(net_kind)
        for threshold in (0.0, 0.2):
            got = net.detect_image(images[0], score_threshold=threshold, nms_iou=0.1,
                                   max_per_image=max_per_image)
            want = detect_image_oracle(net, images[0], threshold, nms_iou=0.1,
                                       max_per_image=max_per_image)
            assert [detection_key(d) for d in got] == [detection_key(d) for d in want]
            assert len(got) == max_per_image


# ---------------------------------------------------------------------------
# the batched targets and loss against the per-image oracles


def softmax_ce_oracle(logits, labels):
    """The trailing-axis cross-entropy `softmax_ce` replaced."""
    n = logits.shape[0]
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    loss = lse - logits[np.arange(n), labels]
    e = np.exp(logits - zmax)
    grad = e / e.sum(axis=-1, keepdims=True)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad


def composite_loss_oracle(predictions, targets, lambdas=(1.0, 1.0, 1.0, 1.0, 1.0)):
    """The per-image, dense `composite_loss` that `composite_loss_batch`
    replaced, verbatim but for `softmax_ce_oracle`."""
    l1, l2, l3, l4, l5 = lambdas
    comps = {"rpn_cls": 0.0, "rpn_reg": 0.0}
    grads = {}

    if "rpn_labels" in targets:
        rl = targets["rpn_labels"]
        sampled = rl >= 0
        n_cls = max(int(sampled.sum()), 1)
        loss_b, grad_b = binary_ce_with_logits(
            predictions["rpn_logits"], (rl == 1).astype(np.float64)
        )
        comps["rpn_cls"] = float(loss_b[sampled].sum()) / n_cls
        gb = np.where(sampled, grad_b, 0.0) / n_cls
        grads["rpn_logits"] = l1 * gb

        pos = rl == 1
        n_reg = max(int(pos.sum()), 1)
        diff = predictions["rpn_offsets"] - targets["rpn_offsets"]
        comps["rpn_reg"] = float(smooth_l1(diff[pos]).sum()) / n_reg
        gr = np.where(pos[:, None], smooth_l1_grad(diff), 0.0) / n_reg
        grads["rpn_offsets"] = l2 * gr

    cl = targets["cls_labels"]
    csampled = cl >= 0
    m_cls = max(int(csampled.sum()), 1)
    loss_c, grad_c = softmax_ce_oracle(predictions["cls_logits"], np.maximum(cl, 0))
    comps["head_cls"] = float(loss_c[csampled].sum()) / m_cls
    gc = np.where(csampled[:, None], grad_c, 0.0) / m_cls
    grads["cls_logits"] = l3 * gc

    cpos = cl >= 1
    m_reg = max(int(cpos.sum()), 1)
    dh = predictions["hbb_offsets"] - targets["hbb_offsets"]
    comps["head_hbb"] = float(smooth_l1(dh[cpos]).sum()) / m_reg
    grads["hbb_offsets"] = l4 * np.where(cpos[:, None], smooth_l1_grad(dh), 0.0) / m_reg

    do = predictions["obb_offsets"] - targets["obb_offsets"]
    comps["head_obb"] = float(smooth_l1(do[cpos]).sum()) / m_reg
    grads["obb_offsets"] = l5 * np.where(cpos[:, None], smooth_l1_grad(do), 0.0) / m_reg

    total = (
        l1 * comps["rpn_cls"]
        + l2 * comps["rpn_reg"]
        + l3 * comps["head_cls"]
        + l4 * comps["head_hbb"]
        + l5 * comps["head_obb"]
    )
    return total, comps, grads


def _loss_batch(nb, dtype):
    """Predictions in `dtype` and float64 targets for nb >= 3 images; image 0
    samples no proposal anchor and image 1 has no head positive."""
    rng = np.random.default_rng(nb)
    n, m, k1 = 9, 13, 4
    preds = {
        "rpn_logits": rng.normal(size=(nb, n)) * 3,
        "rpn_offsets": rng.normal(size=(nb, n, 4)) * 2,
        "cls_logits": rng.normal(size=(nb, m, k1)) * 3,
        "hbb_offsets": rng.normal(size=(nb, m, 4)) * 2,
        "obb_offsets": rng.normal(size=(nb, m, 5)) * 2,
    }
    preds = {key: v.astype(dtype) for key, v in preds.items()}
    tgts = {
        "rpn_labels": rng.integers(-1, 2, size=(nb, n)),
        "rpn_offsets": rng.normal(size=(nb, n, 4)),
        "cls_labels": rng.integers(-1, k1, size=(nb, m)),
        "hbb_offsets": rng.normal(size=(nb, m, 4)),
        "obb_offsets": rng.normal(size=(nb, m, 5)),
    }
    tgts["rpn_labels"][0] = -1
    tgts["cls_labels"][1] = np.minimum(tgts["cls_labels"][1], 0)
    return preds, tgts


class TestBatchedLoss:
    @pytest.mark.parametrize("lambdas", [
        (1.0, 1.0, 1.0, 1.0, 1.0), (0.5, 2.0, 0.0, 1.5, 3.0), (-1.0, -0.0, -0.5, 2.0, -2.0),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
    def test_composite_loss_batch_matches_per_image_oracle(self, lambdas, dtype):
        nb = 4
        preds, tgts = _loss_batch(nb, dtype)
        totals, comps, grads = composite_loss_batch(preds, tgts, lambdas)
        for b in range(nb):
            want_total, want_comps, want_grads = composite_loss_oracle(
                {key: v[b] for key, v in preds.items()},
                {key: v[b] for key, v in tgts.items()},
                lambdas,
            )
            assert repr(totals[b]) == repr(want_total)
            assert {key: repr(v[b]) for key, v in comps.items()} == {
                key: repr(v) for key, v in want_comps.items()
            }
            assert sorted(grads) == sorted(want_grads)
            for key, g in grads.items():
                dense = g.dense()
                assert dense.dtype == want_grads[key].dtype, key
                assert dense[b].tobytes() == want_grads[key].tobytes(), (b, key)

    @pytest.mark.parametrize("lambdas", [(1.0,) * 5, (-1.0, -0.0, 1.0, 1.0, 1.0)])
    def test_write_scaled_is_the_dense_gradient_over_the_scale(self, lambdas):
        preds, tgts = _loss_batch(3, np.float32)
        _, _, grads = composite_loss_batch(preds, tgts, lambdas)
        for key, g in grads.items():
            want = np.zeros(g.mask.shape + g.rows.shape[1:], dtype=np.float32)
            want[...] = g.dense() / 3
            got = np.zeros_like(want)
            g.write_scaled(got, 3)
            assert got.tobytes() == want.tobytes(), key

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
    @pytest.mark.parametrize("k1", [1, 3, 7, 8, 9])
    def test_softmax_rows_are_the_trailing_axis_bytes(self, k1, dtype):
        z = _logit_rows(k1, dtype)
        kept = z.copy()
        zmax, e, s = detect._softmax_rows(z)
        want_e = np.exp(z - z.max(axis=-1, keepdims=True))
        assert np.moveaxis(e, 0, -1).tobytes() == want_e.tobytes()
        assert s.tobytes() == want_e.sum(axis=-1).tobytes()
        assert softmax(z).tobytes() == (want_e / want_e.sum(axis=-1, keepdims=True)).tobytes()
        # a row that is already contiguous in class-major order is not written
        softmax(z[0])
        softmax(z[:1])
        assert z.tobytes() == kept.tobytes()
        labels = np.arange(len(z)) % k1
        loss, grad = softmax_ce(z, labels)
        want_loss, want_grad = softmax_ce_oracle(z, labels)
        assert loss.tobytes() == want_loss.tobytes()
        assert grad.tobytes() == want_grad.tobytes()


def _shared_rpn_anchor_boxes(anchors):
    """Two boxes whose best anchor is the same one: an anchor's own box and
    a copy shifted by a pixel."""
    a = anchors[len(anchors) // 2 + 4]
    boxes = [HBox(*a), HBox(a[0] + 1, a[1], a[2] + 1, a[3])]
    best = _iou_matrix(anchors, np.stack([b.as_array() for b in boxes])).argmax(axis=0)
    assert best[0] == best[1]
    return boxes


class TestBatchedMatching:
    @pytest.mark.parametrize("stage", ["head", "rpn"])
    @pytest.mark.parametrize("mode", ["pairs", "hboxes", "mixed"])
    def test_match_batch_matches_per_image_oracle(self, stage, mode):
        anchors = np.concatenate(MATCH_LEVELS) if stage == "head" else MATCH_LEVELS[-1]
        spec = synthdata.SceneSpec(seed=3, image_size=64, min_objects=1, max_objects=4)
        scenes = [synthdata.generate_scene(spec, i) for i in range(5)]
        gts = [([o.class_id for o in s.objects], _ground_truth(s, mode)) for s in scenes]
        gts.insert(1, ([], []))  # an image without boxes, not the last
        gts.append(([1, 2], _shared_rpn_anchor_boxes(MATCH_LEVELS[-1])))
        got = match_batch(anchors, GroundTruth.from_images(gts), stage)
        for b, (classes, boxes) in enumerate(gts):
            want = match_anchors_oracle(anchors, boxes, classes, stage=stage)
            for name in ("labels", "hbb_targets", "obb_targets", "matched_gt"):
                a, w = getattr(got, name)[b], getattr(want, name)
                assert a.dtype == w.dtype and a.shape == w.shape, name
                assert a.tobytes() == w.tobytes(), (b, name)

    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_iou_of_boxes_touching_at_minus_zero_is_positive_zero(self, n):
        # min(-0.0, 1.0) - max(-1.0, 0.0) is -0.0: no overlap, +0.0 as iou_hbb
        a, b = HBox(-1.0, 0.0, -0.0, 1.0), HBox(0.0, 0.0, 1.0, 1.0)
        rows_a, rows_b = np.stack([a.as_array()] * n), np.stack([b.as_array()] * n)
        want = np.full((n, n), iou_hbb(a, b))
        assert _iou_matrix(rows_a, rows_b).tobytes() == want.tobytes()
        assert _iou_matrix(rows_b, rows_a).tobytes() == want.tobytes()

    def test_last_box_takes_a_shared_rpn_anchor(self):
        anchors = MATCH_LEVELS[-1]
        boxes = _shared_rpn_anchor_boxes(anchors)
        m = match_batch(anchors, one_image(boxes), stage="rpn")
        best = int(_iou_matrix(anchors, boxes[0].as_array()[None]).argmax())
        assert m.labels[0, best] == 1 and m.matched_gt[0, best] == 1

    @pytest.mark.parametrize("stage", ["head", "rpn"])
    def test_a_batch_without_boxes_gets_the_empty_image_labels(self, stage):
        anchors = MATCH_LEVELS[-1]
        m = match_batch(anchors, GroundTruth.from_images([([], []), (None, [])]), stage)
        want = match_anchors_oracle(anchors, [], stage=stage)
        assert m.labels.shape == (2, len(anchors))
        for b in range(2):
            assert m.labels[b].tobytes() == want.labels.tobytes()
            assert m.hbb_targets[b].tobytes() == want.hbb_targets.tobytes()

    @pytest.mark.parametrize("gts, message", [
        ([([1, 2], [HBox(0, 0, 4, 4)])], "image 0 of the batch: 2 class ids for 1 boxes"),
        ([([], []), ([1], [])], "image 1 of the batch: 1 class ids for 0 boxes"),
        ([([2], [HBox(0, 0, 4, 4)]), ([0], [HBox(0, 0, 4, 4)])],
         r"image 1 of the batch: class id 0 is outside 1\.\.3"),
        ([([4, 1], [HBox(0, 0, 4, 4)] * 2)], r"image 0 of the batch: class id 4 is outside 1\.\.3"),
    ])
    def test_ground_truth_rejects_what_the_loss_cannot_read(self, gts, message):
        with pytest.raises(ShapeError, match=message):
            GroundTruth.from_images(gts, n_classes=3)
