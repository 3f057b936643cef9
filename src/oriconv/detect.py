"""Boxes, anchors, IoU, the box codec, matching, NMS, region proposals and the
composite detection loss.

Axis-aligned boxes are corner-coded {xmin, ymin, xmax, ymax}; oriented boxes
are {xc, yc, w, h, theta} with theta in degrees, canonicalized into [0, 90) by
swapping width/height. Box coordinates live in the continuous pixel-edge
frame (pixel centers at integer + 0.5). Box angles follow the package
convention: counterclockwise as displayed.

The box codec is one encoder and one decode core over centre-size rows
(xc, yc, w, h) against axis-aligned anchors: `encode_boxes` gives the
log-space offsets, `_decode_centre_size` inverts them, and the HBB and OBB
codecs differ only in what surrounds that pair (corners, or theta / 90 as a
fifth offset). Its logarithm and clamped exponential stay scalar `math.log`
and `math.exp`, so a row does not depend on how many rows are coded with
it: the numpy versions differ from them in the last ulp on a fraction of a
percent of inputs, which would move match targets, decoded boxes and,
through RoI choice, training losses.

Post-processing works on arrays. The decoders return boxes plus a `valid`
mask that agrees with the `HBox`/`OBox` checks. NMS has one core,
`nms_indices`: a greedy pass over [N,4] float64 boxes and [N] scores, in
descending score order with ties in row order (a stable argsort), over one
IoU matrix, that can stop after `limit` kept rows and returns their indices.
`propose_rois` and `Detector.detect_image` run it on decoded rows and build
`HBox`, `Roi` and `Detection` objects only for the rows it keeps; `nms` is
the same pass over a list of Detections, with optional oriented IoU.

Anchors are plain [N, 4] arrays. `anchor_boxes` tiles one feature level; a
detector concatenates its levels into one flat anchor axis, so
`match_anchors`, the losses and the decoders see every level as one set of
rows, and `propose_rois` takes the rows of the level its RPN reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ShapeError


@dataclass
class HBox:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        inf = math.inf
        if not (-inf < self.xmin < self.xmax < inf and -inf < self.ymin < self.ymax < inf):
            raise ShapeError(
                f"degenerate or non-finite box [{self.xmin},{self.ymin},{self.xmax},{self.ymax}]"
            )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def center(self):
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_array(self) -> np.ndarray:
        return np.array([self.xmin, self.ymin, self.xmax, self.ymax], dtype=np.float64)


@dataclass
class OBox:
    xc: float
    yc: float
    w: float
    h: float
    theta: float  # degrees in [0, 90)

    def __post_init__(self):
        fields = (self.xc, self.yc, self.w, self.h, self.theta)
        if not all(math.isfinite(v) for v in fields):
            raise ShapeError(f"oriented box needs finite fields, got {fields}")
        if self.w <= 0 or self.h <= 0:
            raise ShapeError(f"oriented box needs positive size, got {self.w}x{self.h}")
        t = self.theta % 180.0
        if t >= 90.0:
            t -= 90.0
            self.w, self.h = self.h, self.w
        self.theta = t

    @property
    def area(self) -> float:
        return self.w * self.h

    def corners(self) -> np.ndarray:
        """4x2 corner array (x, y) in consistent winding order."""
        t = math.radians(self.theta)
        # width axis rotated counterclockwise-as-displayed; y grows downward
        ux, uy = math.cos(t), -math.sin(t)
        vx, vy = math.sin(t), math.cos(t)
        hw, hh = 0.5 * self.w, 0.5 * self.h
        pts = []
        for su, sv in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
            pts.append(
                (
                    self.xc + su * hw * ux + sv * hh * vx,
                    self.yc + su * hw * uy + sv * hh * vy,
                )
            )
        return np.array(pts, dtype=np.float64)

    def hull(self) -> HBox:
        """Tight axis-aligned hull."""
        c = self.corners()
        return HBox(c[:, 0].min(), c[:, 1].min(), c[:, 0].max(), c[:, 1].max())

    def as_array(self) -> np.ndarray:
        return np.array([self.xc, self.yc, self.w, self.h, self.theta], dtype=np.float64)


@dataclass
class Detection:
    class_id: int
    score: float
    hbox: HBox = None
    obox: OBox = None

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ShapeError(f"non-finite detection score {self.score}")
        if self.hbox is None and self.obox is not None:
            self.hbox = self.obox.hull()


def iou_hbb(a: HBox, b: HBox) -> float:
    ix = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    iy = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def _polygon_area(pts: np.ndarray) -> float:
    if len(pts) < 3:
        return 0.0
    x = pts[:, 0]
    y = pts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _ensure_ccw(pts: np.ndarray) -> np.ndarray:
    x = pts[:, 0]
    y = pts[:, 1]
    signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    return pts if signed >= 0 else pts[::-1]


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clipping of `subject` by convex `clip` (CCW)."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        input_pts = output
        output = []
        if not input_pts:
            break
        prev = input_pts[-1]
        prev_side = ex * (prev[1] - ay) - ey * (prev[0] - ax)
        for cur in input_pts:
            cur_side = ex * (cur[1] - ay) - ey * (cur[0] - ax)
            if (cur_side >= 0) != (prev_side >= 0):
                # edge prev->cur crosses the clip line at parameter t
                dx, dy = cur[0] - prev[0], cur[1] - prev[1]
                denom = ex * dy - ey * dx
                if denom != 0:
                    t = -prev_side / denom
                    output.append((prev[0] + t * dx, prev[1] + t * dy))
            if cur_side >= 0:
                output.append(cur)
            prev, prev_side = cur, cur_side
    return np.array(output, dtype=np.float64) if output else np.zeros((0, 2))


def iou_obb(a: OBox, b: OBox) -> float:
    """Oriented IoU via convex polygon clipping; equals iou_hbb at theta=0."""
    ca = _ensure_ccw(a.corners())
    cb = _ensure_ccw(b.corners())
    inter = _polygon_area(_clip_polygon(ca, cb))
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return float(min(max(inter / union, 0.0), 1.0))


# ---------------------------------------------------------------------------
# anchors and target assignment


def anchor_boxes(feature_hw, stride, scales, ratios) -> np.ndarray:
    """Dense anchors tiling one feature level: [H*W*len(scales)*len(ratios), 4]
    corner-coded rows, row-major over (y, x, anchor kind)."""
    h, w = feature_hw
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    cx = (xs + 0.5) * stride
    cy = (ys + 0.5) * stride
    boxes = []
    for s in scales:
        for r in ratios:
            bw = s * math.sqrt(r)
            bh = s / math.sqrt(r)
            boxes.append(
                np.stack((cx - bw / 2, cy - bh / 2, cx + bw / 2, cy + bh / 2), axis=-1)
            )
    return np.stack(boxes, axis=2).reshape(-1, 4)


def _iou_matrix(anchors: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Vectorized axis-aligned IoU between [N,4] anchors and [G,4] boxes."""
    if len(gt) == 0:
        return np.zeros((anchors.shape[0], 0))
    ix = np.minimum(anchors[:, None, 2], gt[None, :, 2]) - np.maximum(
        anchors[:, None, 0], gt[None, :, 0]
    )
    iy = np.minimum(anchors[:, None, 3], gt[None, :, 3]) - np.maximum(
        anchors[:, None, 1], gt[None, :, 1]
    )
    inter = np.clip(ix, 0, None) * np.clip(iy, 0, None)
    area_a = (anchors[:, 2] - anchors[:, 0]) * (anchors[:, 3] - anchors[:, 1])
    area_g = (gt[:, 2] - gt[:, 0]) * (gt[:, 3] - gt[:, 1])
    return inter / (area_a[:, None] + area_g[None, :] - inter)


def _anchor_geometry(anchors: np.ndarray):
    """Widths, heights and centres of [N,4] corner-coded anchors."""
    wa = anchors[:, 2] - anchors[:, 0]
    ha = anchors[:, 3] - anchors[:, 1]
    xa = 0.5 * (anchors[:, 0] + anchors[:, 2])
    ya = 0.5 * (anchors[:, 1] + anchors[:, 3])
    return wa, ha, xa, ya


def _scaled_exp(t: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """`math.exp(min(t, 8.0)) * scale` per element.

    The exponential stays scalar `math.exp`: `np.exp` differs from it by one
    ulp on about 4.6% of float64 inputs, which would move decoded boxes and,
    through RoI choice, training losses. The product takes the dtype of
    `scale`, as a Python float times a numpy scalar does.
    """
    e = [math.exp(v) for v in np.minimum(t, 8.0).tolist()]
    return np.array(e, dtype=scale.dtype) * scale


def _decode_centre_size(anchors: np.ndarray, t: np.ndarray):
    """Centre-size columns (xc, yc, w, h) of the log-space offsets `t[:, :4]`
    against [N,4] anchors; the inverse of `encode_boxes`."""
    wa, ha, xa, ya = _anchor_geometry(anchors)
    xc = t[:, 0] * wa + xa
    yc = t[:, 1] * ha + ya
    return xc, yc, _scaled_exp(t[:, 2], wa), _scaled_exp(t[:, 3], ha)


def encode_boxes(anchors: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Log-space offsets [N,4] of centre-size rows `boxes` [N,4] xc/yc/w/h
    against [N,4] anchors; the logarithm is scalar `math.log`, like
    `_scaled_exp`'s exponential."""
    wa, ha, xa, ya = _anchor_geometry(anchors)
    logs = [[math.log(v) for v in r.tolist()] for r in (boxes[:, 2] / wa, boxes[:, 3] / ha)]
    return np.stack(((boxes[:, 0] - xa) / wa, (boxes[:, 1] - ya) / ha, *np.array(logs)), axis=1)


def decode_hbb_array(anchors: np.ndarray, t: np.ndarray):
    """Decode [N,4] log-space offsets against [N,4] anchors.

    Returns (boxes [N,4] xmin/ymin/xmax/ymax, valid [N]); `valid` is False
    where `HBox` would reject the row (a non-finite field or an empty
    extent). Row j equals
    `decode_hbb(anchors[j], t[j])` bit for bit, in the dtypes it produces.
    """
    xc, yc, w, h = _decode_centre_size(anchors, t)
    boxes = np.stack((xc - w / 2, yc - h / 2, xc + w / 2, yc + h / 2), axis=1)
    valid = (
        np.isfinite(boxes).all(axis=1)
        & (boxes[:, 2] > boxes[:, 0])
        & (boxes[:, 3] > boxes[:, 1])
    )
    return boxes, valid


def decode_hbb(anchor: np.ndarray, t: np.ndarray) -> HBox:
    """One-row `decode_hbb_array`; raises ShapeError on an invalid box."""
    boxes, _ = decode_hbb_array(np.asarray(anchor)[None], np.asarray(t)[None])
    return HBox(*boxes[0])


def decode_obb_array(anchors: np.ndarray, o: np.ndarray):
    """Decode [N,5] oriented offsets against [N,4] axis-aligned anchors.

    Returns (boxes [N,5] xc/yc/w/h/theta, valid [N]); `valid` is False where
    `OBox` would reject the row (a non-finite field, or w or h not > 0).
    Theta is `o[:, 4] * 90.0` in the offsets' dtype (float32 offsets give a
    float32 theta), widened exactly into `boxes` and not yet canonicalized;
    `obox_from_row` turns a row back into the OBox `decode_obb` returns.
    """
    xc, yc, w, h = _decode_centre_size(anchors, o)
    boxes = np.stack((xc, yc, w, h, o[:, 4] * 90.0), axis=1)
    valid = np.isfinite(boxes).all(axis=1) & (w > 0) & (h > 0)
    return boxes, valid


def obox_from_row(row: np.ndarray, offset_dtype) -> OBox:
    """OBox from one `decode_obb_array` row decoded from offsets of
    `offset_dtype`: theta goes back to the dtype `o[4] * 90.0` has, so it is
    canonicalized in that precision."""
    theta = np.result_type(offset_dtype, 90.0).type(row[4])
    return OBox(row[0], row[1], row[2], row[3], theta)


def decode_obb(anchor: np.ndarray, o: np.ndarray) -> OBox:
    """One-row `decode_obb_array`; raises ShapeError on an invalid box."""
    o = np.asarray(o)
    boxes, _ = decode_obb_array(np.asarray(anchor)[None], o[None])
    return obox_from_row(boxes[0], o.dtype)


@dataclass
class MatchResult:
    labels: np.ndarray  # rpn: 1 pos / 0 neg / -1 ignore; head: class id, 0 = bg, -1 ignore
    hbb_targets: np.ndarray  # [N, 4]
    obb_targets: np.ndarray  # [N, 5]
    matched_gt: np.ndarray  # [N] index into gt list, -1 if none


RPN_POS_IOU = 0.7
RPN_NEG_IOU = 0.3
HEAD_POS_IOU = 0.5


def match_anchors(anchors: np.ndarray, gt_boxes, gt_classes=None, stage="rpn") -> MatchResult:
    """Assign labels and regression targets to [N,4] anchor boxes.

    RPN stage: IoU >= 0.7 positive, <= 0.3 negative, in between ignored; the
    best anchor of each ground-truth box is forced positive so no object goes
    unsupervised (the usual two-stage-detector convention). Head stage:
    IoU >= 0.5 takes the matched class, everything else is background.
    gt_boxes entries may be HBox or (HBox, OBox) pairs.

    Each ground truth becomes one centre-size row per target kind, and every
    positive is encoded with one `encode_boxes` call per kind: HBB targets
    from the HBox, OBB targets from the OBox plus theta / 90 as the fifth
    offset. An HBox-only object's OBB target is its HBB target at angle 0.
    """
    n = anchors.shape[0]
    labels = np.full(n, -1 if stage == "rpn" else 0, dtype=np.int64)
    hbb_t = np.zeros((n, 4))
    obb_t = np.zeros((n, 5))
    matched = np.full(n, -1, dtype=np.int64)
    hb = [g[0] if isinstance(g, tuple) else g for g in gt_boxes]
    ob = [g[1] if isinstance(g, tuple) else None for g in gt_boxes]
    if not hb:
        if stage == "rpn":
            labels[:] = 0
        return MatchResult(labels, hbb_t, obb_t, matched)

    hbb_rows = np.array([(*b.center, b.width, b.height) for b in hb])
    obb_rows = np.array([
        (*r, 0.0) if o is None else (o.xc, o.yc, o.w, o.h, o.theta / 90.0)
        for r, o in zip(hbb_rows, ob)
    ])
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

    g = best_gt[pos]
    matched[pos] = g
    hbb_t[pos] = encode_boxes(anchors[pos], hbb_rows[g])
    obb_t[pos, :4] = encode_boxes(anchors[pos], obb_rows[g, :4])
    obb_t[pos, 4] = obb_rows[g, 4]
    return MatchResult(labels, hbb_t, obb_t, matched)


# ---------------------------------------------------------------------------
# losses


def smooth_l1(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


def smooth_l1_grad(x: np.ndarray) -> np.ndarray:
    return np.clip(x, -1.0, 1.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def binary_ce_with_logits(logits: np.ndarray, targets: np.ndarray):
    """Per-element stable BCE and its gradient w.r.t. the logits."""
    loss = np.maximum(logits, 0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    grad = sigmoid(logits) - targets
    return loss, grad


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_ce(logits: np.ndarray, labels: np.ndarray):
    """Rowwise cross-entropy with integer labels; returns (loss[N], grad[N,K]).
    Computed as logsumexp(z) - z[label], which is non-negative by construction."""
    n = logits.shape[0]
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    loss = lse - logits[np.arange(n), labels]
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad


def composite_loss(predictions: dict, targets: dict, lambdas=(1.0, 1.0, 1.0, 1.0, 1.0)):
    """Two-stage detection loss: proposal term plus head term.

    total = l1/N_cls * sum BCE(p, p*)        over sampled proposal anchors
          + l2/N_reg * sum p* smoothL1(t-t*) over positive proposal anchors
          + l3/N*_cls * sum CE(c, c*)        over sampled head anchors
          + l4/N*_reg * sum [c*>=1] smoothL1(h-h*)
          + l5/N*_reg * sum [c*>=1] smoothL1(o-o*)

    predictions: rpn_logits [N], rpn_offsets [N,4], cls_logits [M,K+1],
    hbb_offsets [M,4], obb_offsets [M,5]. targets mirror the offset keys and
    add rpn_labels [N] (1/0/-1 ignore) and cls_labels [M] (0 = background,
    -1 ignore). Regression terms are 0 (not NaN) when there are no positives.
    Returns (total, components, grads).
    """
    l1, l2, l3, l4, l5 = lambdas
    comps = {}
    grads = {}

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
    loss_c, grad_c = softmax_ce(predictions["cls_logits"], np.maximum(cl, 0))
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


# ---------------------------------------------------------------------------
# NMS and region proposals


def nms_indices(boxes, scores, iou_threshold: float, limit: int = None, oboxes=None):
    """Greedy NMS over [N,4] float64 corner-coded boxes and [N] float64
    scores; returns the kept row indices in visiting order.

    Rows are visited by descending score, ties in row order (a stable
    argsort), and each one whose IoU with every row kept so far is at most
    `iou_threshold` is kept. The pass stops once `limit` (>= 0) are kept,
    which equals slicing the full result to `limit`; None keeps all.

    Axis-aligned IoU comes from one `_iou_matrix` and equals `iou_hbb`
    pairwise. `oboxes`, if given, holds an OBox or None per row; a pair where
    both carry one uses `iou_obb(candidate, kept)` instead, evaluated only for
    the pairs the greedy pass reaches.
    """
    if len(scores) == 0 or limit == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(-scores, kind="stable").tolist()
    over = _iou_matrix(boxes, boxes) > iou_threshold
    suppressed = np.zeros(len(scores), dtype=bool)
    keep = []
    for r, i in enumerate(order):
        if suppressed[i]:
            continue
        keep.append(i)
        if len(keep) == limit:
            break
        if oboxes is not None and oboxes[i] is not None:
            for j in order[r + 1 :]:
                if not suppressed[j] and oboxes[j] is not None:
                    over[i, j] = iou_obb(oboxes[j], oboxes[i]) > iou_threshold
        suppressed |= over[i]
    return np.array(keep, dtype=np.int64)


def nms(detections, iou_threshold: float, oriented: bool = False, limit: int = None):
    """`nms_indices` over a list of Detections: their hboxes and scores in
    float64, and with `oriented` their oboxes; returns the kept Detections
    in visiting order."""
    if not detections:
        return []
    boxes = np.array(
        [(d.hbox.xmin, d.hbox.ymin, d.hbox.xmax, d.hbox.ymax) for d in detections],
        dtype=np.float64,
    )
    scores = np.array([d.score for d in detections], dtype=np.float64)
    oboxes = [d.obox for d in detections] if oriented else None
    keep = nms_indices(boxes, scores, iou_threshold, limit, oboxes)
    return [detections[i] for i in keep]


def assign_pyramid_level(w: float, h: float, n_levels: int, k0: int = 1, s0: float = 16.0) -> int:
    """Scale-to-level rule: k = clamp(floor(k0 + log2(sqrt(w*h)/s0)))."""
    k = math.floor(k0 + math.log2(max(math.sqrt(w * h), 1e-9) / s0))
    return int(min(max(k, 0), n_levels - 1))


@dataclass
class Roi:
    box: HBox
    score: float
    level: int


def propose_rois(
    logits: np.ndarray,
    offsets: np.ndarray,
    anchors: np.ndarray,
    n_levels: int,
    top_k: int = 16,
    nms_iou: float = 0.7,
):
    """Turn per-anchor scores and offsets against [N,4] anchor boxes into
    regions of interest.

    The `max(4 * top_k, 64)` anchors with the highest logits are cut out in
    descending order, anchor index on ties (`np.argsort(-logits,
    kind="stable")`), and decoded; rows `decode_hbb_array` marks invalid
    are dropped, not replaced. The rest, scored by the sigmoid of their
    logits in the logits' dtype, go through `nms_indices` at `nms_iou` until
    `top_k` are kept, and each kept RoI gets a pyramid level from its decoded
    size (`assign_pyramid_level` at its default k0 and s0). A NaN logit means
    the RPN head has diverged and raises NumericalError.
    """
    n_nan = int(np.isnan(logits).sum())
    if n_nan:
        raise NumericalError(f"non-finite RPN logits ({n_nan} NaN)")
    cut = np.argsort(-logits, kind="stable")[: max(4 * top_k, 64)]
    boxes, valid = decode_hbb_array(anchors[cut], offsets[cut])
    boxes = boxes[valid]
    scores = sigmoid(logits[cut])[valid]
    keep = nms_indices(
        boxes.astype(np.float64), scores.astype(np.float64), nms_iou, limit=top_k
    )
    rois = []
    for j in keep:
        box = HBox(*boxes[j])
        rois.append(
            Roi(box, float(scores[j]), assign_pyramid_level(box.width, box.height, n_levels))
        )
    return rois
