"""Detection evaluation: classwise average precision over an image set
(`mean_average_precision`) and the whole `oriconv eval` report (`evaluate`).

One greedy matcher, `_match`, serves every score: detections in descending
score order (ties in input order) meet only the objects of their own image,
and one is a true positive when its best-overlapping object reaches the IoU
threshold and is still unused (no fallback to the next-best object).

AP is the exact area under the all-point interpolated precision-recall curve
(precision envelope), integrated piecewise at the recall increments -- the
continuous integral, not a sampled approximation. Oriented AP matches on
`iou_obb` and needs `(HBox, OBox)` ground truth.

`evaluate` reports at HBB IoU 0.5: per-class AP, mAP and each class's
precision-recall rows; the false-positive taxonomy and corner gaps of each
image's all-class match; and the mean angle error (modulo 90) against the
best-overlapping object, used or not, at IoU >= 0.5. A false positive is a
localization error at 0.1 <= IoU < 0.5 with its best-overlapping object, a
background confusion at IoU < 0.1 with every object, and "other" at
IoU >= 0.5 (a duplicate of an already matched object); the localization gap
is the detection-to-object corner offset per axis, over the object's
diagonal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .detect import Detection, HBox, OBox, iou_hbb, iou_obb
from .errors import ShapeError


@dataclass
class EvalResult:
    per_class_ap: dict
    map50: float
    loc_error_mean: tuple  # (dx mean, dy mean)
    loc_error_std: tuple
    loc_error_rate: float
    bg_confusion_rate: float
    mean_angular_error: float

    def to_json(self) -> str:
        d = asdict(self)
        d["per_class_ap"] = {str(k): v for k, v in self.per_class_ap.items()}
        return json.dumps(d, indent=2, sort_keys=True)


def _gt_hbox(gt) -> HBox:
    """The HBox of a ground truth given as an HBox or an (HBox, OBox) pair."""
    return gt[0] if isinstance(gt, tuple) else gt


def _det_iou(det: Detection, gt, oriented: bool) -> float:
    if oriented:
        return iou_obb(det.obox, gt[1]) if det.obox is not None else 0.0
    return iou_hbb(det.hbox, _gt_hbox(gt))


def _match(dets, gts, iou_threshold, oriented):
    """Greedy match (module docstring) of `[(image, Detection)]` against
    `[(image, gt)]`. Returns (order, flags, best_iou, best_gt): detection
    indices by descending score and, aligned with them, true-positive flags,
    best IoUs and indices into `gts` of the best-overlapping objects (-1 when
    nothing overlaps). Oriented matching raises ShapeError for ground truth
    that is not an `(HBox, OBox)` pair."""
    if oriented and not all(isinstance(g, tuple) and isinstance(g[1], OBox) for _, g in gts):
        raise ShapeError("oriented matching needs (HBox, OBox) ground truth pairs")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1].score, i))
    gt_by_image = {}
    for g_idx, (image, gt) in enumerate(gts):
        gt_by_image.setdefault(image, []).append((g_idx, gt))
    used = [False] * len(gts)
    flags, best_ious, best_gts = [], [], []
    for i in order:
        image, det = dets[i]
        best, best_g = 0.0, -1
        for g_idx, gt in gt_by_image.get(image, ()):
            v = _det_iou(det, gt, oriented)
            if v > best:
                best, best_g = v, g_idx
        hit = best >= iou_threshold and best_g >= 0 and not used[best_g]
        if hit:
            used[best_g] = True
        flags.append(hit)
        best_ious.append(best)
        best_gts.append(best_g)
    return order, flags, best_ious, best_gts


def _pr(flags, n_gt):
    """(recall, precision) at each rank of a match's true-positive flags."""
    tp = np.cumsum(np.array(flags, dtype=np.float64))
    ranks = np.arange(1, len(flags) + 1, dtype=np.float64)
    return tp / max(n_gt, 1), tp / ranks


def _area(recall, precision) -> float:
    """Area under the precision envelope (running max from the high-recall
    end), summed at the recall increments."""
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap, prev_r = 0.0, 0.0
    for r, p in zip(recall, env):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


def _class_curves(per_image_detections, per_image_gt, classes, iou_threshold, oriented):
    """{class: (ranked scores, recall, precision)} over an image set of
    `(class, gt)` pairs, for each class with ground truth or detections."""
    curves = {}
    for cls in classes:
        dets = [(i, d) for i, ds in enumerate(per_image_detections) for d in ds if d.class_id == cls]
        gts = [(i, g) for i, gs in enumerate(per_image_gt) for c, g in gs if c == cls]
        if not gts and not dets:
            continue
        order, flags, _, _ = _match(dets, gts, iou_threshold, oriented)
        curves[cls] = ([dets[i][1].score for i in order], *_pr(flags, len(gts)))
    return curves


def _mean_ap(curves):
    per_class = {cls: _area(recall, precision) for cls, (_, recall, precision) in curves.items()}
    return per_class, float(np.mean(list(per_class.values()))) if per_class else 0.0


def mean_average_precision(per_image_detections, per_image_gt, classes, iou_threshold=0.5, oriented=False):
    """Classwise AP over a whole image set, matched on `iou_obb` when
    `oriented`. A class with neither ground truth nor detections is skipped;
    one with detections but no ground truth scores 0. Returns (per_class
    dict, mAP)."""
    return _mean_ap(_class_curves(per_image_detections, per_image_gt, classes, iou_threshold, oriented))


LOC_LOW_IOU = 0.1
LOC_HIGH_IOU = 0.5


def _false_positives(detections, ground_truth, match):
    """Taxonomy counts and per-axis corner gaps (lists of arrays) of the false
    positives of one image's `_match` result."""
    order, flags, best_ious, best_gts = match
    counts = {"localization": 0, "background": 0, "other": 0}
    gaps_x, gaps_y = [], []
    for pos, i in enumerate(order):
        if flags[pos]:
            continue
        iou = best_ious[pos]
        if iou < LOC_LOW_IOU:
            counts["background"] += 1
        elif iou < LOC_HIGH_IOU:
            counts["localization"] += 1
            gbox = _gt_hbox(ground_truth[best_gts[pos]])
            diag = math.hypot(gbox.width, gbox.height)
            d = detections[i].hbox
            gaps_x.append(np.array([d.xmin - gbox.xmin, d.xmax - gbox.xmax]) / diag)
            gaps_y.append(np.array([d.ymin - gbox.ymin, d.ymax - gbox.ymax]) / diag)
        else:
            counts["other"] += 1
    return counts, gaps_x, gaps_y


def evaluate(per_image_detections, per_image_gt):
    """Score an image set at HBB IoU 0.5 (see the module docstring).

    `per_image_gt` holds `(class, (HBox, OBox))` pairs per image. Returns
    (EvalResult, {class: [(rank, score, precision, recall)]}) with the rows
    of every ground-truth class. Raises ShapeError unless both lists hold one
    entry per image.
    """
    if len(per_image_detections) != len(per_image_gt):
        raise ShapeError(
            f"{len(per_image_detections)} detection lists for {len(per_image_gt)} ground-truth lists"
        )
    classes = sorted({c for gts in per_image_gt for c, _ in gts})
    curves = _class_curves(per_image_detections, per_image_gt, classes, 0.5, False)
    per_class, map50 = _mean_ap(curves)
    pr_rows = {
        cls: list(zip(range(1, len(scores) + 1), scores, precision.tolist(), recall.tolist()))
        for cls, (scores, recall, precision) in curves.items()
    }
    counts = {"localization": 0, "background": 0, "other": 0}
    gaps_x, gaps_y, preds, trues = [], [], [], []
    for dets, gts in zip(per_image_detections, per_image_gt):
        boxes = [g for _, g in gts]
        match = _match([(0, d) for d in dets], [(0, g) for g in boxes], 0.5, False)
        image_counts, image_gaps_x, image_gaps_y = _false_positives(dets, boxes, match)
        for key in counts:
            counts[key] += image_counts[key]
        gaps_x += image_gaps_x
        gaps_y += image_gaps_y
        order, _, best_ious, best_gts = match
        for i, iou, g in sorted(zip(order, best_ious, best_gts)):
            if dets[i].obox is not None and iou >= 0.5:
                preds.append(dets[i].obox.theta % 90.0)
                trues.append(boxes[g][1].theta % 90.0)
    n_fp = sum(counts.values())
    gx = np.concatenate(gaps_x, dtype=np.float64) if gaps_x else np.zeros(1)
    gy = np.concatenate(gaps_y, dtype=np.float64) if gaps_y else np.zeros(1)
    if preds:
        d = np.abs(np.asarray(preds) - np.asarray(trues))
        angle_error = float(np.minimum(d, 90.0 - d).mean())
    else:
        angle_error = 0.0
    result = EvalResult(
        per_class_ap=per_class,
        map50=map50,
        loc_error_mean=(float(gx.mean()), float(gy.mean())),
        loc_error_std=(float(gx.std()), float(gy.std())),
        loc_error_rate=counts["localization"] / max(n_fp, 1),
        bg_confusion_rate=counts["background"] / max(n_fp, 1),
        mean_angular_error=angle_error,
    )
    return result, pr_rows

