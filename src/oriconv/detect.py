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
mask that agrees with the `HBox`/`OBox` checks, without reducing along
their short row axis. NMS has one core, `nms_indices`: a greedy pass over
[N,4] float64 boxes and [N] scores, in descending score order with ties in
row order (a stable argsort), that can stop after `limit` kept rows, builds
IoU rows only for the rows it visits and returns the kept indices.
`propose_rois` and `Detector.detect_image` run it on decoded rows and build
`HBox`, `Roi` and `Detection` objects only for the rows it keeps, all of
them at once: `hboxes_from_rows` from `decode_hbb_array` rows and
`oboxes_from_rows` from `decode_obb_array` rows. Suppression is
axis-aligned; oriented IoU (`iou_obb`) serves the metrics.

Anchors are plain [N, 4] arrays. `anchor_boxes` tiles one feature level; a
detector concatenates its levels into one flat anchor axis, so the matcher,
the losses and the decoders see every level as one set of rows, and
`propose_rois` takes the rows of the level its RPN reads.

Training targets and the loss take a whole batch at once. `GroundTruth`
puts every image's boxes on one flat axis, `match_batch` matches them all
against one anchor set, and `composite_loss_batch` scores [B, ...] arrays,
each image from its own counts and sums, returning each gradient as the
rows its term reads (`RowGrad`). One image is a batch of one.
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
        if self.hbox is None:
            if self.obox is None:
                raise ShapeError("a detection needs an hbox, an obox or both")
            self.hbox = self.obox.hull()


def iou_hbb(a: HBox, b: HBox) -> float:
    ix = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    iy = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def _signed_area(pts: np.ndarray) -> float:
    """Shoelace area of a polygon, positive for counterclockwise corners."""
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _ensure_ccw(pts: np.ndarray) -> np.ndarray:
    return pts if _signed_area(pts) >= 0 else pts[::-1]


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
    clipped = _clip_polygon(ca, cb)
    inter = abs(_signed_area(clipped)) if len(clipped) >= 3 else 0.0
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
    """Axis-aligned IoU between [N,4] anchors and [G,4] boxes, [N, G]; each
    entry equals `iou_hbb` of its pair, +0.0 where the boxes do not overlap.

    Each coordinate is read once as a contiguous row, and the [N, G] work is
    twelve ufunc passes into three buffers, none through a Python-level
    wrapper. The formula is symmetric to the last bit, so
    `_iou_matrix(gt, anchors)` is the transpose; numpy runs the passes
    fastest with the longer axis last."""
    a0, a1, a2, a3 = np.ascontiguousarray(anchors.T)[:, :, None]
    g0, g1, g2, g3 = np.ascontiguousarray(gt.T)[:, None, :]
    ix = np.minimum(a2, g2)
    t = np.maximum(a0, g0)
    ix -= t
    iy = np.minimum(a3, g3)
    iy -= np.maximum(a1, g1, out=t)
    inter = np.maximum(ix, 0.0, out=ix)
    inter *= np.maximum(iy, 0.0, out=iy)
    union = np.add((a2 - a0) * (a3 - a1), (g2 - g0) * (g3 - g1), out=t)
    union -= inter
    return np.divide(inter, union, out=inter)


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
    out = np.empty((len(boxes), 4))
    out[:, 0] = (boxes[:, 0] - xa) / wa
    out[:, 1] = (boxes[:, 1] - ya) / ha
    ratios = np.concatenate((boxes[:, 2] / wa, boxes[:, 3] / ha)).tolist()
    out[:, 2:] = np.array(list(map(math.log, ratios))).reshape(2, -1).T
    return out


def decode_hbb_array(anchors: np.ndarray, t: np.ndarray):
    """Decode [N,4] log-space offsets against [N,4] anchors.

    Returns (boxes [N,4] xmin/ymin/xmax/ymax, valid [N]); `valid` is False
    where `HBox` would reject the row (a non-finite field or an empty
    extent), and `HBox(*boxes[j])` builds the box of a valid row j.
    """
    xc, yc, w, h = _decode_centre_size(anchors, t)
    x0, y0, x1, y1 = cols = (xc - w / 2, yc - h / 2, xc + w / 2, yc + h / 2)
    valid = np.isfinite(cols).all(axis=0) & (x1 > x0) & (y1 > y0)
    return np.stack(cols, axis=1), valid


def decode_obb_array(anchors: np.ndarray, o: np.ndarray):
    """Decode [N,5] oriented offsets against [N,4] axis-aligned anchors.

    Returns (boxes [N,5] xc/yc/w/h/theta, valid [N]); `valid` is False where
    `OBox` would reject the row (a non-finite field, or w or h not > 0).
    Theta is `o[:, 4] * 90.0` in the offsets' dtype (float32 offsets give a
    float32 theta), widened exactly into `boxes` and not yet canonicalized;
    `oboxes_from_rows` builds the OBoxes of valid rows.
    """
    cols = _decode_centre_size(anchors, o) + (o[:, 4] * 90.0,)
    valid = np.isfinite(cols).all(axis=0) & (cols[2] > 0) & (cols[3] > 0)
    return np.stack(cols, axis=1), valid


def hboxes_from_rows(rows: np.ndarray) -> list:
    """`HBox(*row)` for each [N,4] `decode_hbb_array` row, its fields numpy
    scalars of the rows' dtype."""
    return [HBox(*fields) for fields in zip(*rows.T)]


def oboxes_from_rows(rows: np.ndarray, offset_dtype) -> list:
    """OBoxes from [N,5] `decode_obb_array` rows decoded from offsets of
    `offset_dtype`. Theta goes back, in one cast, to the dtype `o[4] * 90.0`
    has, so each box is canonicalized in that precision; the other fields are
    numpy scalars of the rows' dtype."""
    theta = rows[:, 4].astype(np.result_type(offset_dtype, 90.0))
    return [OBox(*fields) for fields in zip(*rows[:, :4].T, theta)]


@dataclass
class MatchResult:
    """Per-anchor targets; `match_batch` puts an image axis in front."""

    labels: np.ndarray  # [N] rpn: 1 pos / 0 neg / -1 ignore; head: class id, 0 = bg, -1 ignore
    hbb_targets: np.ndarray  # [N, 4]
    obb_targets: np.ndarray  # [N, 5]
    matched_gt: np.ndarray  # [N] index into the image's gt list, -1 if none


RPN_POS_IOU = 0.7
RPN_NEG_IOU = 0.3
HEAD_POS_IOU = 0.5


@dataclass
class GroundTruth:
    """The boxes of B images on one flat axis of M rows, image by image.

    Box j is slot `slot[j]` of image `img[j]`; image b's boxes start at row
    `first[b]` and number `counts[b]`. `corners` are the HBox corners,
    `hbb_rows` its centre-size rows (xc, yc, w, h) and `obb_rows` the OBox's
    (xc, yc, w, h, theta / 90); an HBox-only object's OBB row is its HBB row
    at angle 0.
    """

    counts: list
    img: np.ndarray  # [M]
    slot: np.ndarray  # [M]
    first: np.ndarray  # [B]
    classes: np.ndarray  # [M] int64
    corners: np.ndarray  # [M, 4]
    hbb_rows: np.ndarray  # [M, 4]
    obb_rows: np.ndarray  # [M, 5]

    @classmethod
    def from_images(cls, gt_per_image, n_classes=None) -> "GroundTruth":
        """From a list over images of (class ids or None, boxes); boxes may
        be HBox or (HBox, OBox) pairs, and None means class 1 for every box.
        ShapeError, naming the image, when a class list and its box list
        differ in length or, given `n_classes`, a class id is outside
        1..n_classes (0 is the background)."""
        classes = []
        for b, (ids, boxes) in enumerate(gt_per_image):
            ids = [1] * len(boxes) if ids is None else list(ids)
            if len(ids) != len(boxes):
                raise ShapeError(
                    f"image {b} of the batch: {len(ids)} class ids for {len(boxes)} boxes"
                )
            if n_classes is not None:
                bad = [c for c in ids if not 1 <= c <= n_classes]
                if bad:
                    raise ShapeError(
                        f"image {b} of the batch: class id {bad[0]} is outside 1..{n_classes}"
                        " (n_classes)"
                    )
            classes += ids
        counts = [len(boxes) for _, boxes in gt_per_image]
        flat = [g for _, boxes in gt_per_image for g in boxes]
        hb = [g[0] if isinstance(g, tuple) else g for g in flat]
        ob = [g[1] if isinstance(g, tuple) else None for g in flat]
        hbb_rows = np.array([(*b.center, b.width, b.height) for b in hb]).reshape(-1, 4)
        obb_rows = np.array([
            (*r, 0.0) if o is None else (o.xc, o.yc, o.w, o.h, o.theta / 90.0)
            for r, o in zip(hbb_rows, ob)
        ]).reshape(-1, 5)
        corners = np.array([(b.xmin, b.ymin, b.xmax, b.ymax) for b in hb], dtype=np.float64)
        img = np.arange(len(counts)).repeat(counts)
        first = np.cumsum(counts) - counts
        return cls(
            counts, img, np.arange(len(flat)) - first[img], first,
            np.array(classes, dtype=np.int64), corners.reshape(-1, 4), hbb_rows, obb_rows,
        )


def match_batch(anchors: np.ndarray, gt: GroundTruth, stage="rpn") -> MatchResult:
    """Assign labels and regression targets to [N,4] anchor boxes in each of
    the B images of `gt`; the result's arrays are [B, N], [B, N, 4] and
    [B, N, 5].

    RPN stage: IoU >= 0.7 positive, <= 0.3 negative, in between ignored; the
    best anchor of each ground-truth box is forced positive so no object goes
    unsupervised (the usual two-stage-detector convention), and where boxes
    of one image share that anchor the last of them takes it. Head stage:
    IoU >= 0.5 takes the matched class, everything else is background.

    One `_iou_matrix` scores every box of the batch against every anchor,
    and the scores fill a padded [B, G, N] array (G the largest box count)
    whose padding scores -1, below any IoU: it never wins an anchor, and an
    image without boxes gets the labels of an anchor that overlaps nothing.
    Every positive of the batch is encoded in one `encode_boxes` call: HBB
    targets from the HBB rows, OBB targets from the OBB rows plus theta / 90
    as the fifth offset.
    """
    n = anchors.shape[0]
    nb = len(gt.counts)
    labels = np.full((nb, n), -1 if stage == "rpn" else 0, dtype=np.int64)
    hbb_t = np.zeros((nb, n, 4))
    obb_t = np.zeros((nb, n, 5))
    matched = np.full((nb, n), -1, dtype=np.int64)
    if not len(gt.img):
        if stage == "rpn":
            labels[:] = 0
        return MatchResult(labels, hbb_t, obb_t, matched)

    iou_flat = _iou_matrix(gt.corners, anchors)  # [M, N]
    iou = np.full((nb, max(gt.counts), n), -1.0)
    iou[gt.img, gt.slot] = iou_flat
    # each anchor's first best slot, as argmax over the slot axis picks it,
    # taken one slot at a time along the anchor rows
    best_iou = iou[:, 0].copy()
    best_gt = np.zeros((nb, n), dtype=np.int64)
    for g in range(1, iou.shape[1]):
        best_gt[iou[:, g] > best_iou] = g
        np.maximum(best_iou, iou[:, g], out=best_iou)

    if stage == "rpn":
        labels[best_iou <= RPN_NEG_IOU] = 0
        labels[best_iou >= RPN_POS_IOU] = 1
        # force the best anchor per ground truth positive; of the boxes that
        # share one, the highest slot wins, as in a loop over the boxes
        a = iou_flat.argmax(axis=1)
        hit = iou_flat[np.arange(len(a)), a] > 0
        forced = np.full((nb, n), -1, dtype=np.int64)
        np.maximum.at(forced, (gt.img[hit], a[hit]), gt.slot[hit])
        won = forced >= 0
        labels[won] = 1
        best_gt[won] = forced[won]
        pos = labels == 1
    else:
        pos = best_iou >= HEAD_POS_IOU

    at = b_idx, a_idx = pos.nonzero()
    g = best_gt[at]
    matched[at] = g
    g += gt.first[b_idx]  # into the flat box axis
    if stage != "rpn":
        labels[at] = gt.classes[g]
    # both kinds in one call, the HBB rows first
    t = encode_boxes(
        anchors[np.concatenate((a_idx, a_idx))],
        np.concatenate((gt.hbb_rows[g], gt.obb_rows[g, :4])),
    )
    hbb_t[at] = t[: len(g)]
    obb_t[at + (slice(None, 4),)] = t[len(g) :]
    obb_t[at + (4,)] = gt.obb_rows[g, 4]
    return MatchResult(labels, hbb_t, obb_t, matched)


# ---------------------------------------------------------------------------
# losses


def smooth_l1(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


def smooth_l1_grad(x: np.ndarray) -> np.ndarray:
    """x clipped to [-1, 1]; the bytes of `np.clip`, without its wrappers."""
    return np.minimum(np.maximum(x, -1.0), 1.0)


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


def _softmax_rows(z: np.ndarray, dtype=None):
    """exp(z - max) and its sums over the last axis of z [..., K], in
    `dtype` (default z's): (zmax [...], e [K, ...], s [...]).

    The values are the bytes of the trailing-axis forms `z.max(axis=-1)`,
    `np.exp(z - zmax)` and `e.sum(axis=-1)`, but each is taken across the
    contiguous rows of one transposed copy: numpy reduces and broadcasts a
    short trailing axis one row at a time, about ten times slower over
    [1920, 4]. Max is order-free; only the sign of a zero max can differ,
    and nothing below passes that sign on. numpy sums a row shorter than 8
    left to right (its pairwise sum starts blocking at 8), so those sums
    are the same column adds; wider rows take numpy's own row reduction.
    """
    e = z.transpose(z.ndim - 1, *range(z.ndim - 1)).astype(dtype or z.dtype, order="C")
    zmax = e.max(axis=0)
    np.exp(np.subtract(e, zmax, out=e), out=e)
    if len(e) < 8:
        s = e[0].copy()
        for row in e[1:]:
            s += row
    else:
        s = np.ascontiguousarray(_class_last(e)).sum(axis=-1)
    return zmax, e, s


def _class_last(e: np.ndarray) -> np.ndarray:
    """The [..., K] view of class-major [K, ...] memory."""
    return e.transpose(*range(1, e.ndim), 0)


def softmax(z: np.ndarray, dtype=None) -> np.ndarray:
    """Softmax over the last axis of z, computed in `dtype` (default z's);
    the result is a view of class-major memory."""
    _, e, s = _softmax_rows(z, dtype)
    e /= s
    return _class_last(e)


def background_nll(logits: np.ndarray) -> np.ndarray:
    """-log(p0 + 1e-12) in float64 over logits [..., K], p the softmax over
    the last axis and class 0 the background: the score hard-negative
    mining ranks by. The bytes of `-np.log(softmax(logits, np.float64)[...,
    0] + 1e-12)`, dividing only the background column."""
    _, e, s = _softmax_rows(logits, np.float64)
    p0 = np.divide(e[0], s, out=s)
    p0 += 1e-12
    return np.negative(np.log(p0, out=p0), out=p0)


def softmax_ce(logits: np.ndarray, labels: np.ndarray):
    """Cross-entropy over the last axis of logits [..., K] with integer
    labels [...]; returns (loss [...], grad [..., K]). Computed as
    logsumexp(z) - z[label], which is non-negative by construction;
    exp(z - max) and its row sums serve both the log-sum-exp and the softmax
    in the gradient, which is a view of class-major memory."""
    zmax, e, s = _softmax_rows(logits)
    lse = zmax + np.log(s)
    rows = np.arange(labels.size)
    picked = logits.reshape(-1, logits.shape[-1])[rows, labels.reshape(-1)]
    loss = lse - picked.reshape(labels.shape)
    e /= s
    e.reshape(len(e), -1)[labels.reshape(-1), rows] -= 1.0
    return loss, _class_last(e)


@dataclass
class RowGrad:
    """A [B, N, ...] loss gradient kept as the rows a term reads: `rows`
    where `mask` [B, N] is True, in image order, and `fill` in every other
    row, the lambda times zero that a masked-out row scales to."""

    mask: np.ndarray
    rows: np.ndarray
    fill: np.generic

    def dense(self) -> np.ndarray:
        out = np.full(self.mask.shape + self.rows.shape[1:], self.fill, dtype=self.rows.dtype)
        out[self.mask] = self.rows
        return out

    def write_scaled(self, out: np.ndarray, scale) -> None:
        """`out[...] = self.dense() / scale` for an `out` that holds zeros,
        writing only the rows unless the fill scales to other than +0.0."""
        fill = self.fill / scale
        if fill != 0 or np.signbit(fill):
            out[...] = fill
        out[self.mask] = self.rows / scale


def composite_loss_batch(predictions: dict, targets: dict, lambdas=(1.0, 1.0, 1.0, 1.0, 1.0)):
    """Two-stage detection loss of each of B images: proposal term plus head
    term.

    total = l1/N_cls * sum BCE(p, p*)        over sampled proposal anchors
          + l2/N_reg * sum p* smoothL1(t-t*) over positive proposal anchors
          + l3/N*_cls * sum CE(c, c*)        over sampled head anchors
          + l4/N*_reg * sum [c*>=1] smoothL1(h-h*)
          + l5/N*_reg * sum [c*>=1] smoothL1(o-o*)

    predictions: rpn_logits [B, N], rpn_offsets [B, N, 4], cls_logits
    [B, M, K+1], hbb_offsets [B, M, 4], obb_offsets [B, M, 5]. targets
    mirror the offset keys and add rpn_labels [B, N] (1/0/-1 ignore) and
    cls_labels [B, M] (0 = background, -1 ignore). Regression terms are 0
    (not NaN) when an image has no positives. Without `rpn_labels` (a
    detector with no RPN) the proposal keys are not read, `rpn_cls` and
    `rpn_reg` are reported as 0.0 and no proposal gradients are returned.

    Each term runs once over the batch, on the rows its sum reads: the
    sampled anchors for the BCE and the CE, the positives for each smooth
    L1. The counts and the sums of selected rows stay each image's own, so
    an image's loss does not depend on the rest of the batch.
    Returns (totals, components, grads): a list of B totals, each term's
    list of B values, and a `RowGrad` per prediction key.
    """
    l1, l2, l3, l4, l5 = lambdas
    nb = len(targets["cls_labels"])
    comps = {"rpn_cls": [0.0] * nb, "rpn_reg": [0.0] * nb}
    grads = {}

    if "rpn_labels" in targets:
        rl = targets["rpn_labels"]
        sampled = rl >= 0
        loss_b, grad_b = binary_ce_with_logits(
            predictions["rpn_logits"][sampled], (rl[sampled] == 1).astype(np.float64)
        )
        comps["rpn_cls"], div = _image_means(sampled, grad_b, loss_b)
        grads["rpn_logits"] = RowGrad(sampled, l1 * (grad_b / div), l1 * grad_b.dtype.type(0.0))

        pos = rl == 1
        d = predictions["rpn_offsets"][pos] - targets["rpn_offsets"][pos]
        g = smooth_l1_grad(d)
        comps["rpn_reg"], div = _image_means(pos, g, smooth_l1(d))
        grads["rpn_offsets"] = RowGrad(pos, l2 * (g / div), l2 * g.dtype.type(0.0))

    cl = targets["cls_labels"]
    csampled = cl >= 0
    loss_c, grad_c = softmax_ce(predictions["cls_logits"][csampled], cl[csampled])
    comps["head_cls"], div = _image_means(csampled, grad_c, loss_c)
    grads["cls_logits"] = RowGrad(csampled, l3 * (grad_c / div), l3 * grad_c.dtype.type(0.0))

    cpos = cl >= 1
    for key, term, lam in (("hbb_offsets", "head_hbb", l4), ("obb_offsets", "head_obb", l5)):
        d = predictions[key][cpos] - targets[key][cpos]
        g = lam * smooth_l1_grad(d)
        comps[term], div = _image_means(cpos, g, smooth_l1(d))
        grads[key] = RowGrad(cpos, g / div, lam * d.dtype.type(0.0))

    # comps holds rpn_cls, rpn_reg, head_cls, head_hbb, head_obb in that order
    totals = [l1 * a + l2 * b + l3 * c + l4 * d + l5 * e for a, b, c, d, e in zip(*comps.values())]
    return totals, comps, grads


def _image_means(mask: np.ndarray, grad_rows: np.ndarray, loss_rows: np.ndarray):
    """For a term whose rows are those `mask` [B, N] selects (image order):
    each image's `float(sum of its loss rows) / count`, the count floored
    at 1, and each gradient row's count shaped to divide `grad_rows`.

    The counts take the gradient's dtype, as a Python int divisor does; an
    int64 array would widen a float32 gradient to float64."""
    counts = mask.sum(axis=1).tolist()
    divisors = [max(c, 1) for c in counts]
    means, lo = [], 0
    for count, divisor in zip(counts, divisors):
        means.append(float(loss_rows[lo : lo + count].sum()) / divisor)
        lo += count
    per_row = np.array(divisors, dtype=grad_rows.dtype).repeat(counts)
    return means, per_row.reshape(-1, *(1,) * (grad_rows.ndim - 1))


# ---------------------------------------------------------------------------
# NMS and region proposals


def top_order(scores: np.ndarray, k: int) -> np.ndarray:
    """The first k (>= 0) of `np.argsort(-scores, kind="stable")`: indices of
    the k highest of [N] scores, descending, ties in index order, NaN last.

    A stable sort of all N costs about 100 us at N = 1920. This partitions
    at the k-th highest score and stable-sorts only the rows scored at or
    above it, which are a prefix of the full order."""
    neg = -scores
    if 0 < k < len(neg):
        part = neg.copy()
        part.partition(k - 1)
        kth = part[k - 1]
        if not np.isnan(kth):  # else fewer than k scores are not NaN
            head = (neg <= kth).nonzero()[0]
            return head[neg[head].argsort(kind="stable")][:k]
    return neg.argsort(kind="stable")[:k]


def nms_indices(boxes, scores, iou_threshold: float, limit: int = None):
    """Greedy NMS over [N,4] float64 corner-coded boxes and [N] float64
    scores; returns the kept row indices in visiting order.

    Rows are visited by descending score, ties in row order (a stable
    argsort), and each one whose IoU with every row kept so far is at most
    `iou_threshold` is kept. The pass stops once `limit` (>= 0) are kept,
    which equals slicing the full result to `limit`; None keeps all.

    A row's fate depends only on the rows visited before it, so IoU rows
    (`_iou_matrix` of the visited rows against all N, equal to `iou_hbb`
    pairwise) are built only for the prefix of the visiting order that the
    pass reaches. Each block of rows at least doubles the prefix and holds
    twice as many rows as there are kept rows still missing (2 * `limit`
    rows first); without a limit it is one N x N matrix.
    """
    n = len(scores)
    if n == 0 or limit == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(-scores, kind="stable")
    suppressed = np.zeros(n, dtype=bool)
    keep = []
    lo = 0
    while lo < n:
        wanted = n if limit is None else limit - len(keep)
        rows = order[lo : lo + max(2 * wanted, lo)]
        lo += len(rows)
        over = _iou_matrix(boxes[rows], boxes) > iou_threshold
        for i, row in zip(rows.tolist(), over):
            if suppressed[i]:
                continue
            keep.append(i)
            if len(keep) == limit:
                return np.array(keep, dtype=np.int64)
            suppressed |= row
    return np.array(keep, dtype=np.int64)


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
        boxes.astype(np.float64, copy=False), scores.astype(np.float64, copy=False), nms_iou,
        limit=top_k,
    )
    return [
        Roi(box, score, assign_pyramid_level(box.width, box.height, n_levels))
        for box, score in zip(hboxes_from_rows(boxes[keep]), scores[keep].tolist())
    ]
