import math

import numpy as np
import pytest

from oriconv.detect import Detection, HBox, OBox, iou_hbb, iou_obb
from oriconv.errors import ShapeError
from oriconv.metrics import (
    EvalResult,
    _area,
    _class_curves,
    evaluate,
    mean_average_precision,
)


def image_ap(detections, ground_truth):
    """AP of one image's class-0 detections against HBox ground truth, from
    `mean_average_precision` (the mean of one class is its AP)."""
    _, m = mean_average_precision([detections], [[(0, g) for g in ground_truth]], [0])
    return m


def evaluate_image(detections, ground_truth):
    """`evaluate` on one image whose ground truth is all of class 0."""
    result, _ = evaluate([detections], [[(0, g) for g in ground_truth]])
    return result


def square_pair(x, angle):
    """A 10 px square at (x, 50) as an (HBox, OBox) ground-truth pair."""
    ob = OBox(x, 50.0, 10.0, 10.0, angle)
    return ob.hull(), ob


def riemann_ap_oracle(detections, ground_truth, n=1000):
    """Independent 1000-point midpoint Riemann integration of the interpolated
    precision envelope. Exact when every recall step edge lands on a cell
    boundary, i.e. when the ground-truth count divides n."""
    _, flags, _, _ = _oracle_match_detections(detections, ground_truth, 0.5, False)
    tp = np.cumsum(np.array(flags, dtype=np.float64))
    rec, prec = tp / len(ground_truth), tp / np.arange(1, len(flags) + 1)
    total = 0.0
    for i in range(n):
        r = (i + 0.5) / n
        vals = [p for rr, p in zip(rec, prec) if rr >= r]
        total += max(vals) if vals else 0.0
    return total / n


def random_detection_set(rng, n_gt):
    gts = [HBox(i * 20, 0, i * 20 + 10, 10) for i in range(n_gt)]
    dets = []
    for i in range(n_gt):
        if rng.random() < 0.8:
            off = rng.uniform(0, 8)
            dets.append(
                Detection(0, float(rng.random()), HBox(i * 20 + off, 0, i * 20 + 10 + off, 10))
            )
    for _ in range(int(rng.integers(0, 6))):
        x = 1000 + rng.uniform(0, 5)
        dets.append(Detection(0, float(rng.random()), HBox(x, 0, x + 10, 10)))
    return dets, gts


class TestAveragePrecision:
    def test_single_correct_detection(self):
        gt = [HBox(0, 0, 10, 10)]
        dets = [Detection(0, 0.9, HBox(0, 0, 10, 10))]
        assert image_ap(dets, gt) == 1.0

    def test_no_detections(self):
        assert image_ap([], [HBox(0, 0, 10, 10)]) == 0.0

    def test_hand_integrated_example(self):
        # 2 ground truths, ranked [TP, FP, TP] -> 0.5*1 + 0.5*(2/3) = 5/6
        gts = [HBox(0, 0, 10, 10), HBox(50, 50, 60, 60)]
        dets = [
            Detection(0, 0.9, HBox(0, 0, 10, 10)),
            Detection(0, 0.8, HBox(100, 100, 110, 110)),
            Detection(0, 0.7, HBox(50, 50, 60, 60)),
        ]
        assert image_ap(dets, gts) == pytest.approx(5 / 6)

    def test_matches_riemann_oracle_100_sets(self, rng):
        # ground-truth counts divide 1000 so the midpoint oracle is exact
        checked = 0
        while checked < 100:
            n_gt = int(rng.choice([4, 5, 8, 10, 20, 25]))
            dets, gts = random_detection_set(rng, n_gt)
            if not dets:
                continue
            a = image_ap(dets, gts)
            b = riemann_ap_oracle(dets, gts)
            assert abs(a - b) < 1e-6
            checked += 1

    def test_monotone_when_appending_trailing_tp(self, rng):
        for _ in range(10):
            dets, gts = random_detection_set(rng, 10)
            matched = set()
            # find an unmatched gt
            for d in sorted(dets, key=lambda d: -d.score):
                for g_idx, g in enumerate(gts):
                    from oriconv.detect import iou_hbb

                    if iou_hbb(d.hbox, g) >= 0.5:
                        matched.add(g_idx)
                        break
            unmatched = [i for i in range(len(gts)) if i not in matched]
            if not unmatched:
                continue
            base = image_ap(dets, gts)
            min_score = min((d.score for d in dets), default=1.0)
            extra = Detection(0, min_score * 0.5, gts[unmatched[0]])
            assert image_ap(dets + [extra], gts) >= base - 1e-12

    def test_per_class_skipping(self):
        # a class with no gt and no detections is skipped from the mean
        gts = [[(1, HBox(0, 0, 10, 10))]]
        dets = [[Detection(1, 0.9, HBox(0, 0, 10, 10))]]
        per_class, m = mean_average_precision(dets, gts, classes=[1, 2])
        assert set(per_class) == {1}
        assert m == 1.0


class TestErrorTaxonomy:
    def test_localization_band(self):
        gt = [HBox(0, 0, 10, 10)]
        dets = [Detection(0, 0.9, HBox(3, 3, 13, 13))]  # IoU ~ 0.32
        r = evaluate_image(dets, gt)
        assert (r.loc_error_rate, r.bg_confusion_rate) == (1.0, 0.0)

    def test_background_band(self):
        gt = [HBox(0, 0, 10, 10)]
        dets = [Detection(0, 0.9, HBox(9.8, 9.8, 20, 20))]  # IoU < 0.1
        assert evaluate_image(dets, gt).bg_confusion_rate == 1.0

    def test_perfect_detections_no_errors(self):
        gt = [HBox(0, 0, 10, 10)]
        dets = [Detection(0, 0.9, HBox(0, 0, 10, 10))]
        result, pr_rows = evaluate([dets], [[(0, g) for g in gt]])
        assert [row[2] for row in pr_rows[0]] == [1.0]  # no false positive
        assert (result.loc_error_rate, result.bg_confusion_rate) == (0.0, 0.0)
        assert result.loc_error_mean == (0.0, 0.0)

    def test_duplicate_goes_to_other(self):
        gt = [HBox(0, 0, 10, 10)]
        dets = [
            Detection(0, 0.9, HBox(0, 0, 10, 10)),
            Detection(0, 0.8, HBox(0.5, 0, 10.5, 10)),  # IoU ~ 0.9, duplicate
        ]
        result, pr_rows = evaluate([dets], [[(0, g) for g in gt]])
        assert [row[2] for row in pr_rows[0]] == [1.0, 0.5]  # one false positive
        assert (result.loc_error_rate, result.bg_confusion_rate) == (0.0, 0.0)

    def test_classes_partition_false_positives(self, rng):
        gts = [HBox(i * 15, 0, i * 15 + 10, 10) for i in range(5)]
        dets = [
            Detection(0, float(rng.random()),
                      HBox(x, y, x + 10, y + 10))
            for x, y in rng.uniform(0, 80, size=(25, 2))
        ]
        _, flags, best_ious, _ = _oracle_match_detections(dets, gts, 0.5, False)
        fp_ious = [iou for hit, iou in zip(flags, best_ious) if not hit]
        loc = sum(0.1 <= iou < 0.5 for iou in fp_ious)
        bg = sum(iou < 0.1 for iou in fp_ious)
        assert fp_ious
        r = evaluate_image(dets, gts)
        assert r.loc_error_rate == loc / len(fp_ious)
        assert r.bg_confusion_rate == bg / len(fp_ious)

    def test_one_ground_truth_list_per_image(self):
        # the far detection of the second image is a background error once
        # that image has a (possibly empty) ground-truth entry
        gt = (0, HBox(0, 0, 10, 10))
        tp = Detection(0, 0.9, HBox(0, 0, 10, 10))
        far = Detection(0, 0.8, HBox(50, 50, 60, 60))
        result, _ = evaluate([[tp], [far]], [[gt], []])
        assert result.bg_confusion_rate == 1.0
        with pytest.raises(ShapeError, match="2 detection lists for 1 ground-truth"):
            evaluate([[tp], [far]], [[gt]])
        with pytest.raises(ShapeError):
            evaluate([[tp]], [[gt], []])

    def test_gap_normalized_by_diagonal(self):
        gt = [HBox(0, 0, 8, 6)]  # diagonal 10
        dets = [Detection(0, 0.9, HBox(4, 0, 12, 6))]  # IoU = 24/72 = 1/3
        r = evaluate_image(dets, gt)
        assert r.loc_error_rate == 1.0
        assert r.loc_error_mean[0] == pytest.approx(0.4)  # 4 px / diagonal 10


class TestOrientationError:
    """`evaluate`'s mean angle error, modulo 90, over detections at HBB
    IoU >= 0.5 with an object (squares, so a quarter turn keeps the hull)."""

    @staticmethod
    def angle_error(pred_angles, true_angles):
        gts = [square_pair(20.0 * (i + 1), a) for i, a in enumerate(true_angles)]
        dets = [Detection(0, 0.9, obox=OBox(20.0 * (i + 1), 50.0, 10.0, 10.0, a))
                for i, a in enumerate(pred_angles)]
        return evaluate_image(dets, gts).mean_angular_error

    def test_identical(self):
        assert self.angle_error([10.0, 250.0], [10.0, 250.0]) == 0.0

    def test_wraparound(self):
        assert self.angle_error([355.0], [5.0]) == pytest.approx(10.0)

    def test_hand_example(self):
        # 0 vs 10 is 10; 90 (= 0) vs 70 is 20 modulo 90
        assert self.angle_error([0.0, 90.0], [10.0, 70.0]) == pytest.approx(15.0)


class TestOrientedGroundTruth:
    def test_hbox_only_ground_truth_rejected(self):
        dets = [[Detection(0, 0.9, obox=OBox(5, 50, 10, 10, 0.0))]]
        with pytest.raises(ShapeError, match=r"\(HBox, OBox\)"):
            mean_average_precision(dets, [[(0, HBox(0, 0, 10, 10))]], [0], oriented=True)
        with pytest.raises(ShapeError):
            mean_average_precision([[]], [[(0, HBox(0, 0, 10, 10))]], [0], oriented=True)
        _, m = mean_average_precision(dets, [[(0, square_pair(5.0, 0.0))]], [0],
                                              oriented=True)
        assert m == 1.0


# ---------------------------------------------------------------------------
# Oracles: verbatim copies of the evaluation code before matching moved behind
# one `metrics._match`. They are the reference for byte identity.


def _oracle_det_iou(det, gt, oriented):
    if oriented:
        return iou_obb(det.obox, gt[1]) if det.obox is not None else 0.0
    g = gt[0] if isinstance(gt, tuple) else gt
    return iou_hbb(det.hbox, g)


def _oracle_match_detections(detections, ground_truth, iou_threshold, oriented):
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    used = [False] * len(ground_truth)
    flags = []
    best_ious = []
    matched = []
    for i in order:
        det = detections[i]
        best, best_g = 0.0, -1
        for g, gt in enumerate(ground_truth):
            v = _oracle_det_iou(det, gt, oriented)
            if v > best:
                best, best_g = v, g
        if best >= iou_threshold and best_g >= 0 and not used[best_g]:
            used[best_g] = True
            flags.append(True)
            matched.append(best_g)
        else:
            flags.append(False)
            matched.append(best_g)
        best_ious.append(best)
    return order, flags, best_ious, matched


def _oracle_mean_average_precision(per_image_detections, per_image_gt, classes, iou_threshold=0.5, oriented=False):
    per_class = {}
    for cls in classes:
        dets = []
        gts = []
        for img_id, (im_dets, im_gts) in enumerate(zip(per_image_detections, per_image_gt)):
            for d in im_dets:
                if d.class_id == cls:
                    dets.append((img_id, d))
            for g in im_gts:
                if g[0] == cls:
                    gts.append((img_id, g[1]))
        if not gts and not dets:
            continue
        if not gts:
            per_class[cls] = 0.0
            continue
        ap = _average_precision_multi_image(dets, gts, iou_threshold, oriented)
        per_class[cls] = ap
    if not per_class:
        return per_class, 0.0
    return per_class, float(np.mean(list(per_class.values())))


def _average_precision_multi_image(dets, gts, iou_threshold, oriented):
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1].score, i))
    gt_by_image = {}
    for g_idx, (img_id, g) in enumerate(gts):
        gt_by_image.setdefault(img_id, []).append((g_idx, g))
    used = [False] * len(gts)
    flags = []
    for i in order:
        img_id, det = dets[i]
        best, best_g = 0.0, -1
        for g_idx, g in gt_by_image.get(img_id, []):
            v = _oracle_det_iou(det, g, oriented)
            if v > best:
                best, best_g = v, g_idx
        if best >= iou_threshold and best_g >= 0 and not used[best_g]:
            used[best_g] = True
            flags.append(True)
        else:
            flags.append(False)
    tp = np.cumsum(np.array(flags, dtype=np.float64))
    ranks = np.arange(1, len(flags) + 1, dtype=np.float64)
    recall = tp / len(gts)
    precision = tp / ranks
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap, prev_r = 0.0, 0.0
    for r, p in zip(recall, env):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


def _oracle_error_taxonomy(detections, ground_truth, iou_threshold=0.5, oriented=False):
    order, flags, best_ious, matched = _oracle_match_detections(
        detections, ground_truth, iou_threshold, oriented
    )
    counts = {"localization": 0, "background": 0, "other": 0}
    gaps_x = []
    gaps_y = []
    for pos, i in enumerate(order):
        if flags[pos]:
            continue
        iou = best_ious[pos]
        if iou < 0.1:
            counts["background"] += 1
        elif iou < 0.5:
            counts["localization"] += 1
            g = ground_truth[matched[pos]]
            gbox = g[0] if isinstance(g, tuple) else g
            diag = math.hypot(gbox.width, gbox.height)
            d = detections[i].hbox
            gaps_x.append(
                np.array([d.xmin - gbox.xmin, d.xmax - gbox.xmax]) / diag
            )
            gaps_y.append(
                np.array([d.ymin - gbox.ymin, d.ymax - gbox.ymax]) / diag
            )
        else:
            counts["other"] += 1
    if gaps_x:
        gx = np.concatenate(gaps_x)
        gy = np.concatenate(gaps_y)
        loc_stats = {
            "mean_x": float(gx.mean()),
            "mean_y": float(gy.mean()),
            "std_x": float(gx.std()),
            "std_y": float(gy.std()),
            "gaps_x": gx.tolist(),
            "gaps_y": gy.tolist(),
        }
    else:
        loc_stats = {
            "mean_x": 0.0, "mean_y": 0.0, "std_x": 0.0, "std_y": 0.0,
            "gaps_x": [], "gaps_y": [],
        }
    return loc_stats, counts


def _oracle_taxonomy_sum(per_dets, per_gts):
    """The false-positive summation of the former `oriconv eval`."""
    counts = {"localization": 0, "background": 0, "other": 0}
    gaps_x, gaps_y = [], []
    for dets, gts in zip(per_dets, per_gts):
        st, ct = _oracle_error_taxonomy(dets, [g[1] for g in gts])
        for key in counts:
            counts[key] += ct[key]
        gaps_x.extend(st["gaps_x"])
        gaps_y.extend(st["gaps_y"])
    n_fp = sum(counts.values())
    gx = np.asarray(gaps_x) if gaps_x else np.zeros(1)
    gy = np.asarray(gaps_y) if gaps_y else np.zeros(1)
    return dict(
        loc_error_mean=(float(gx.mean()), float(gy.mean())),
        loc_error_std=(float(gx.std()), float(gy.std())),
        loc_error_rate=counts["localization"] / max(n_fp, 1),
        bg_confusion_rate=counts["background"] / max(n_fp, 1),
    )


def _mean_obb_angle_error(per_dets, per_gts) -> float:
    preds, trues = [], []
    for dets, gts in zip(per_dets, per_gts):
        for d in dets:
            if d.obox is None:
                continue
            best, best_g = 0.0, None
            for cls, pair in gts:
                v = iou_hbb(d.hbox, pair[0])
                if v > best:
                    best, best_g = v, pair
            if best >= 0.5 and best_g is not None:
                preds.append(d.obox.theta % 90.0)
                trues.append(best_g[1].theta % 90.0)
    if not preds:
        return 0.0
    d = np.abs(np.asarray(preds) - np.asarray(trues))
    return float(np.minimum(d, 90.0 - d).mean())


def jittered_image_set(rng):
    """Images of oriented objects in three classes, `(class, (HBox, OBox))`
    ground truth, and detections that jitter, duplicate, relabel or miss them,
    plus background boxes. Scores are coarse, so ties occur; some detections
    carry float32 geometry, as `detect_image` output does, or no OBox."""
    per_dets, per_gts = [], []
    for _ in range(int(rng.integers(1, 5))):
        gts, dets = [], []
        for _ in range(int(rng.integers(0, 9))):
            cls = int(rng.integers(0, 3))
            ob = OBox(*rng.uniform(10, 90, 2), *rng.uniform(6, 20, 2), rng.uniform(0, 180))
            hb = ob.hull()
            gts.append((cls, (HBox(*map(float, (hb.xmin, hb.ymin, hb.xmax, hb.ymax))), ob)))
            for _ in range(int(rng.integers(0, 3))):
                xc, yc = np.array([ob.xc, ob.yc]) + rng.normal(0, 3, 2)
                w, h = np.array([ob.w, ob.h]) * rng.uniform(0.7, 1.3, 2)
                theta = ob.theta + rng.normal(0, 15)
                label = cls if rng.random() < 0.8 else int(rng.integers(0, 3))
                score = round(float(rng.random()), 1)
                if rng.random() < 0.3:
                    fields = np.float32([xc, yc, w, h, theta])
                    db = OBox(*fields)
                    hb = db.hull()
                    hb = HBox(*np.float32([hb.xmin, hb.ymin, hb.xmax, hb.ymax]))
                    dets.append(Detection(label, score, hb, db))
                elif rng.random() < 0.15:
                    dets.append(Detection(label, score, OBox(xc, yc, w, h, theta).hull()))
                else:
                    dets.append(Detection(label, score, obox=OBox(xc, yc, w, h, theta)))
        for _ in range(int(rng.integers(0, 3))):
            x, y = rng.uniform(0, 90, 2)
            dets.append(Detection(int(rng.integers(0, 3)), round(float(rng.random()), 1),
                                  HBox(x, y, x + 8, y + 8)))
        per_gts.append(gts)
        per_dets.append(dets)
    return per_dets, per_gts


class TestOracleIdentity:
    """Every public metric and `evaluate` reproduce the oracles bit for bit.
    Oriented IoU clips polygons, so the OBB cases run on fewer sets."""

    @staticmethod
    def sets(n=40):
        rng = np.random.default_rng(2024)
        return [jittered_image_set(rng) for _ in range(n)]

    @pytest.mark.parametrize("oriented, n_sets", [(False, 40), (True, 10)])
    def test_mean_average_precision(self, oriented, n_sets):
        for per_dets, per_gts in self.sets(n_sets):
            for thr in (0.3, 0.5, 0.7):
                got = mean_average_precision(per_dets, per_gts, [0, 1, 2, 3], thr, oriented)
                want = _oracle_mean_average_precision(per_dets, per_gts, [0, 1, 2, 3], thr, oriented)
                assert repr(got) == repr(want)

    @pytest.mark.parametrize("oriented, n_sets", [(False, 40), (True, 5)])
    def test_per_image_functions(self, oriented, n_sets):
        # each image alone, its classes pooled into class 0, through the
        # image-set functions
        for per_dets, per_gts in self.sets(n_sets):
            for dets, gts in zip(per_dets, per_gts):
                pairs = [g for _, g in gts]
                pooled_dets = [[Detection(0, d.score, d.hbox, d.obox) for d in dets]]
                pooled_gts = [[(0, g) for g in pairs]]
                for thr in (0.3, 0.5, 0.7):
                    _, flags, _, _ = _oracle_match_detections(dets, pairs, thr, oriented)
                    tp = np.cumsum(np.array(flags, dtype=np.float64))
                    curves = _class_curves(pooled_dets, pooled_gts, [0], thr, oriented)
                    if curves:
                        _, rec, prec = curves[0]
                        assert rec.tobytes() == (tp / max(len(pairs), 1)).tobytes()
                        assert prec.tobytes() == (tp / np.arange(1, len(flags) + 1)).tobytes()
                    _, ap = mean_average_precision(pooled_dets, pooled_gts, [0], thr, oriented)
                    want = (
                        _average_precision_multi_image(
                            [(0, d) for d in dets], [(0, g) for g in pairs], thr, oriented
                        ) if pairs and dets else 0.0
                    )
                    assert repr(ap) == repr(want)
                if not oriented:
                    result, _ = evaluate([dets], [gts])
                    want = _oracle_taxonomy_sum([dets], [gts])
                    assert repr({key: getattr(result, key) for key in want}) == repr(want)

    def test_evaluate(self):
        for per_dets, per_gts in self.sets():
            result, pr_rows = evaluate(per_dets, per_gts)
            classes = sorted({c for gts in per_gts for c, _ in gts})
            per_class, map50 = _oracle_mean_average_precision(per_dets, per_gts, classes)
            want = EvalResult(
                per_class_ap=per_class,
                map50=map50,
                mean_angular_error=_mean_obb_angle_error(per_dets, per_gts),
                **_oracle_taxonomy_sum(per_dets, per_gts),
            )
            assert result.to_json() == want.to_json()
            assert repr(result) == repr(want)
            assert sorted(pr_rows) == classes
            for cls, rows in pr_rows.items():
                n_dets = sum(d.class_id == cls for dets in per_dets for d in dets)
                assert [r[0] for r in rows] == list(range(1, n_dets + 1))
                scores = [r[1] for r in rows]
                assert scores == sorted(scores, reverse=True)
                precision = np.array([r[2] for r in rows])
                recall = np.array([r[3] for r in rows])
                assert _area(recall, precision) == per_class[cls]
