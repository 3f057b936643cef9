import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oriconv import synthdata
from oriconv.detect import (
    Detection,
    HBox,
    HEAD_POS_IOU,
    MatchResult,
    OBox,
    RPN_NEG_IOU,
    RPN_POS_IOU,
    _iou_matrix,
    anchor_boxes,
    assign_pyramid_level,
    composite_loss,
    decode_hbb,
    decode_hbb_array,
    decode_obb,
    decode_obb_array,
    encode_boxes,
    iou_hbb,
    iou_obb,
    match_anchors,
    nms,
    nms_indices,
    obox_from_row,
    propose_rois,
    sigmoid,
    smooth_l1,
    softmax,
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


def nms_oracle(detections, iou_threshold, oriented=False):
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    keep = []
    for i in order:
        d = detections[i]
        ok = True
        for j in keep:
            k = detections[j]
            if oriented and d.obox is not None and k.obox is not None:
                v = iou_obb(d.obox, k.obox)
            else:
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
            decode_hbb(anchors[0], offsets[0])

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
            back = decode_hbb(anchor, encode_boxes(anchor[None], centre_size(g)[None])[0])
            assert np.abs(back.as_array() - g.as_array()).max() < 1e-6

    def test_obb_roundtrip(self, rng):
        anchor = np.array([2.0, 3.0, 12.0, 11.0])
        for _ in range(20):
            g = OBox(rng.uniform(4, 9), rng.uniform(4, 9), rng.uniform(2, 6),
                     rng.uniform(2, 6), rng.uniform(0, 90))
            t = encode_boxes(anchor[None], centre_size(g)[None])[0]
            back = decode_obb(anchor, np.append(t, g.theta / 90.0))
            assert np.abs(back.as_array() - g.as_array()).max() < 1e-6

    def test_identical_anchor_zero_offsets(self):
        anchor = np.array([0.0, 0.0, 10.0, 10.0])
        t = encode_boxes(anchor[None], centre_size(HBox(0, 0, 10, 10))[None])
        assert np.abs(t).max() < 1e-12


class TestMatching:
    def make_anchors(self):
        return anchor_boxes((4, 4), 16, scales=[20.0], ratios=[1.0])

    def test_identical_anchor_positive_zero_target(self):
        an = self.make_anchors()
        gt = HBox(*an[5])
        m = match_anchors(an, [gt], stage="rpn")
        assert m.labels[5] == 1
        assert np.abs(m.hbb_targets[5]).max() < 1e-12

    def test_disjoint_all_negative(self):
        an = self.make_anchors()
        gt = HBox(1000, 1000, 1020, 1020)
        m = match_anchors(an, [gt], stage="rpn")
        # the forced best-anchor rule does not apply at IoU 0
        assert (m.labels <= 0).all()

    def test_intermediate_iou_ignored_in_rpn(self):
        an = self.make_anchors()
        # shift an anchor box to a 0.6-ish IoU with anchor 5 only
        base = an[5]
        w = base[2] - base[0]
        gt = HBox(base[0] + 0.25 * w, base[1], base[2] + 0.25 * w, base[3])
        m = match_anchors(an, [gt], stage="rpn")
        # anchor 5 is the best match for this gt, so the forced rule marks it
        # positive; a second overlapping gt-free anchor at 0.6 stays ignored
        assert m.labels[5] == 1
        others = [i for i in range(len(an)) if i != 5]
        assert set(np.unique(m.labels[others])) <= {0, -1}

    def test_head_stage_takes_class(self):
        an = self.make_anchors()
        gt = HBox(*an[3])
        m = match_anchors(an, [gt], [2], stage="head")
        assert m.labels[3] == 2
        assert (m.labels[m.labels >= 0] >= 0).all()

    def test_no_ground_truth_all_negative(self):
        an = self.make_anchors()
        m = match_anchors(an, [], stage="rpn")
        assert (m.labels == 0).all()

    def test_obb_target_fifth_offset(self):
        an = self.make_anchors()
        hb = HBox(*an[0])
        ob = OBox(0.5 * (hb.xmin + hb.xmax), 0.5 * (hb.ymin + hb.ymax),
                  hb.width, hb.height, 30.0)
        m = match_anchors(an, [(hb, ob)], stage="rpn")
        assert m.obb_targets[0][4] == pytest.approx(30.0 / 90.0)


class TestCompositeLoss:
    def perfect_case(self):
        n, m, k = 6, 8, 3
        rpn_labels = np.array([1, 0, 0, 1, 0, 0])
        preds = {
            "rpn_logits": np.where(rpn_labels == 1, 30.0, -30.0).astype(np.float64),
            "rpn_offsets": np.zeros((n, 4)),
            "cls_logits": np.zeros((m, k + 1)),
            "hbb_offsets": np.zeros((m, 4)),
            "obb_offsets": np.zeros((m, 5)),
        }
        cls_labels = np.array([1, 0, 0, 2, 0, 0, 3, 0])
        logits = np.full((m, k + 1), -30.0)
        logits[np.arange(m), cls_labels] = 30.0
        preds["cls_logits"] = logits
        tgts = {
            "rpn_labels": rpn_labels,
            "rpn_offsets": np.zeros((n, 4)),
            "cls_labels": cls_labels,
            "hbb_offsets": np.zeros((m, 4)),
            "obb_offsets": np.zeros((m, 5)),
        }
        return preds, tgts

    def test_zero_on_exact_predictions(self):
        preds, tgts = self.perfect_case()
        total, comps, _ = composite_loss(preds, tgts)
        assert total < 1e-6
        assert all(v >= 0 for v in comps.values())

    def test_smooth_l1_values(self):
        assert smooth_l1(np.array([0.5]))[0] == pytest.approx(0.125)
        assert smooth_l1(np.array([2.0]))[0] == pytest.approx(1.5)

    def test_background_only_image(self):
        preds, tgts = self.perfect_case()
        tgts["rpn_labels"] = np.zeros(6, dtype=np.int64)
        tgts["cls_labels"] = np.zeros(8, dtype=np.int64)
        preds["rpn_offsets"] = np.ones((6, 4))  # must not contribute
        preds["hbb_offsets"] = np.ones((8, 4))
        total, comps, _ = composite_loss(preds, tgts)
        assert comps["rpn_reg"] == 0.0
        assert comps["head_hbb"] == 0.0
        assert comps["head_obb"] == 0.0
        assert np.isfinite(total)

    def test_lambda_toggles(self):
        preds, tgts = self.perfect_case()
        preds["hbb_offsets"] = np.ones((8, 4))  # nonzero regression error
        total_on, comps_on, _ = composite_loss(preds, tgts, (1, 1, 1, 1, 1))
        total_off, comps_off, _ = composite_loss(preds, tgts, (1, 1, 1, 0, 1))
        assert comps_on["head_hbb"] > 0
        assert total_on - total_off == pytest.approx(comps_on["head_hbb"])

    def test_gradients_match_finite_differences(self, rng):
        from oriconv.tensor import finite_diff_check

        n, m, k = 5, 6, 2
        preds = {
            "rpn_logits": rng.normal(size=n),
            "rpn_offsets": rng.normal(size=(n, 4)),
            "cls_logits": rng.normal(size=(m, k + 1)),
            "hbb_offsets": rng.normal(size=(m, 4)),
            "obb_offsets": rng.normal(size=(m, 5)),
        }
        tgts = {
            "rpn_labels": np.array([1, 0, -1, 1, 0]),
            "rpn_offsets": rng.normal(size=(n, 4)),
            "cls_labels": np.array([1, 0, 2, -1, 0, 1]),
            "hbb_offsets": rng.normal(size=(m, 4)),
            "obb_offsets": rng.normal(size=(m, 5)),
        }
        _, _, grads = composite_loss(preds, tgts)
        for key in preds:
            def loss(p, key=key):
                q = dict(preds)
                q[key] = p
                return composite_loss(q, tgts)[0]

            err = finite_diff_check(loss, preds[key].copy(), grads[key], step=1e-5)
            assert err < 1e-4, key

    def test_loss_nonnegative(self, rng):
        preds, tgts = self.perfect_case()
        preds = {k: v + rng.normal(size=v.shape) for k, v in preds.items()}
        total, _, _ = composite_loss(preds, tgts)
        assert total >= 0


class TestNms:
    def test_single_detection(self):
        d = [Detection(0, 0.5, HBox(0, 0, 5, 5))]
        assert nms(d, 0.5) == d

    def test_identical_boxes_keep_best(self):
        d1 = Detection(0, 0.9, HBox(0, 0, 10, 10))
        d2 = Detection(0, 0.8, HBox(0, 0, 10, 10))
        kept = nms([d2, d1], 0.5)
        assert [k.score for k in kept] == [0.9]

    def test_chain_of_three(self):
        # pairwise IoUs {a-b: 0.6, b-c: 0.6, a-c: 0.1}: greedy keeps a and c
        a = Detection(0, 0.9, HBox(0, 0, 10, 4))
        b = Detection(0, 0.8, HBox(2.5, 0, 12.5, 4))
        c = Detection(0, 0.7, HBox(5.4, 0, 15.4, 4))
        assert iou_hbb(a.hbox, b.hbox) == pytest.approx(0.6, abs=0.01)
        assert iou_hbb(b.hbox, c.hbox) > 0.5
        assert iou_hbb(a.hbox, c.hbox) < 0.5
        kept = nms([a, b, c], 0.5)
        assert [k.score for k in kept] == [0.9, 0.7]

    def test_output_subset_no_retained_overlap(self, rng):
        dets = [
            Detection(0, float(rng.random()),
                      HBox(x, y, x + rng.uniform(2, 6), y + rng.uniform(2, 6)))
            for x, y in rng.uniform(0, 20, size=(30, 2))
        ]
        kept = nms(dets, 0.4)
        assert all(d in dets for d in kept)
        for i, d in enumerate(kept):
            for e in kept[i + 1 :]:
                assert iou_hbb(d.hbox, e.hbox) <= 0.4

    def test_oriented_mode(self):
        a = Detection(0, 0.9, obox=OBox(5, 5, 4, 2, 10.0))
        b = Detection(0, 0.8, obox=OBox(5, 5, 4, 2, 12.0))
        kept = nms([a, b], 0.5, oriented=True)
        assert len(kept) == 1


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
    def test_match_anchors_matches_per_positive_oracle(self, stage, mode):
        spec = synthdata.SceneSpec(seed=3, image_size=64, min_objects=1, max_objects=4)
        anchors = np.concatenate(MATCH_LEVELS) if stage == "head" else MATCH_LEVELS[-1]
        for i in range(12):
            scene = synthdata.generate_scene(spec, i)
            for sample in (scene, synthdata.augment(scene, {"hflip": True})):
                gt = _ground_truth(sample, mode)
                classes = [o.class_id for o in sample.objects]
                got = match_anchors(anchors, gt, classes, stage=stage)
                want = match_anchors_oracle(anchors, gt, classes, stage=stage)
                for name in ("labels", "hbb_targets", "obb_targets", "matched_gt"):
                    a, b = getattr(got, name), getattr(want, name)
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
            assert _outcome(lambda: decode_hbb(anchor, t[:4])) == want
            if want is not None:
                assert box_bytes(HBox(*hb[j])) == want
            want = _outcome(lambda: decode_obb_oracle(anchor, t))
            assert ob_ok[j] == (want is not None)
            assert _outcome(lambda: decode_obb(anchor, t)) == want
            if want is not None:
                assert box_bytes(obox_from_row(ob[j], offsets.dtype)) == want

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
        assert [id(d) for d in nms(dets, threshold, limit=limit)] == [id(d) for d in want]

    @given(st.data())
    def test_oriented_nms_matches_greedy_oracle(self, data):
        n = data.draw(st.integers(1, 8))
        dets = []
        for s in data.draw(st.lists(SCORES, min_size=n, max_size=n)):
            if data.draw(st.booleans()):
                dets.append(Detection(0, s, obox=data.draw(OBOXES)))
            else:
                dets.append(Detection(0, s, hbox=data.draw(GRID_HBOXES)))
        threshold = data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.5]) | st.floats(0, 1))
        limit = data.draw(st.none() | st.integers(0, n + 1))
        want = nms_oracle(dets, threshold, oriented=True)[:limit]
        got = nms(dets, threshold, oriented=True, limit=limit)
        assert [id(d) for d in got] == [id(d) for d in want]

    @given(st.data())
    def test_nms_indices_select_what_the_greedy_oracle_keeps(self, data):
        n = data.draw(st.integers(0, 10))
        dets = [
            Detection(0, s, obox=data.draw(OBOXES)) if data.draw(st.booleans())
            else Detection(0, s, hbox=data.draw(GRID_HBOXES))
            for s in data.draw(st.lists(SCORES, min_size=n, max_size=n))
        ]
        oriented = data.draw(st.booleans())
        threshold = data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.5]) | st.floats(0, 1))
        limit = data.draw(st.sampled_from([None, 0, 1, 3]))
        keep = nms_indices(
            np.array([d.hbox.as_array() for d in dets]).reshape(-1, 4),
            np.array([d.score for d in dets], dtype=np.float64),
            threshold, limit, [d.obox for d in dets] if oriented else None,
        )
        want = nms_oracle(dets, threshold, oriented=oriented)[:limit]
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
