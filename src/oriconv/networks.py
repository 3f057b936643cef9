"""Network assembly: declarative specs, the oriented detector, and the
orientation estimators used by the rotational-generalization experiments.
Every network is built from rotation-equivariant convolutions; the
non-equivariant control is the same network at `n_rotations=1`, whose single
filter orientation pins every field vector to angle 0. The detector's merged
fields, which its heads read, turn exactly with a quarter-turned image only
under the conditions of `netblocks`: 4 divides `n_rotations`, float64, inputs
whose pools meet no exact ties, and `use_rpn=False`. The plain-conv heads and
the RPN are not equivariant.

A NetworkSpec is plain data (JSON-serializable) describing the backbone
stages, pyramid attachments, head geometry and ablation switches. Building a
network runs a symbolic shape dry-run first, so a mismatched merge fails at
construction time with ConfigError rather than mid-training. A block that a
switch turns off (`use_lipm`, `use_ffm`, `use_rpn`) is not built, run,
trained or saved: one detector graph per spec.

The detector puts all prediction levels on one flat anchor axis: one [A, 4]
anchor array, and `Detector._layout`, the one place that spells out the
head's class-logit | HBB | OBB columns and the RPN's logit | offset columns.
Training matches, mines and scores every image of a batch in one pass over
all levels (`detect.match_batch`, `detect.composite_loss_batch`), each image
summed over its own rows; decoding runs once per image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import detect, rconv
from .errors import ConfigError, ShapeError, check_section
from .netblocks import (
    AttentionMerge,
    FeatureFusion,
    Layer,
    OrientationHead,
    PlainConv,
    PyramidStage,
    RConvLayer,
    Sequential,
    VfMaxPool,
    center_field_average,
    center_field_average_backward,
    build_image_pyramid,
    roi_gate,
)
from .tensor import Tensor, first_max


DEFAULT_BACKBONE = (
    {"size": 5, "filters": 6, "pool": 2, "tap": False},
    {"size": 3, "filters": 8, "pool": 2, "tap": True},
    {"size": 3, "filters": 8, "pool": 2, "tap": True},
)


@dataclass
class StageSpec:
    """The keys of one backbone stage and their JSON types; `size` and
    `filters` are required."""

    size: int = 3
    filters: int = 8
    pool: int = 1
    tap: bool = False


@dataclass
class NetworkSpec:
    task: str = "detection"
    n_rotations: int = 8
    # free | steerable; reaches only the backbone and pyramid-stage RConvs,
    # the attention and fusion RConvs stay free
    parametrization: str = "free"
    input_size: int = 64
    input_channels: int = 1
    backbone: tuple = DEFAULT_BACKBONE
    n_classes: int = 3
    # ablation switches: off means not built (pyramid, fusion, proposals)
    use_lipm: bool = True
    use_ffm: bool = True
    use_rpn: bool = True
    merge_channels: int = 8
    anchor_scales: tuple = ((12.0, 18.0), (24.0, 32.0))
    anchor_ratios: tuple = (0.5, 1.0, 2.0)
    rpn_top_k: int = 8
    head_window: int = 4  # orientation task: center window of pooled fields

    def __post_init__(self):
        if self.task not in ("orientation", "detection"):
            raise ConfigError(f"task must be 'orientation' or 'detection', got {self.task!r}")
        if self.parametrization not in ("free", "steerable"):
            raise ConfigError(
                f"parametrization must be 'free' or 'steerable', got {self.parametrization!r}"
            )
        for key in ("n_rotations", "n_classes", "merge_channels", "input_size",
                    "input_channels", "head_window"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.rpn_top_k < 0:
            raise ConfigError(f"rpn_top_k must be >= 0, got {self.rpn_top_k}")
        if not self.backbone:
            raise ConfigError("backbone needs at least one stage")
        for i, st in enumerate(self.backbone):
            size, pool = st["size"], st.get("pool", 1)
            if size < 1 or size % 2 == 0 or st["filters"] < 1 or pool < 1:
                raise ConfigError(f"network.backbone[{i}] needs an odd size >= 1, "
                                  f"filters >= 1 and pool >= 1, got {dict(st)}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["backbone"] = [dict(s) for s in self.backbone]
        d["anchor_scales"] = [list(s) for s in self.anchor_scales]
        d["anchor_ratios"] = list(self.anchor_ratios)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        check_section("network", d, cls)
        d = dict(d)
        if "backbone" in d:
            for i, st in enumerate(d["backbone"]):
                where = f"network.backbone[{i}]"
                if not isinstance(st, dict) or not {"size", "filters"} <= st.keys():
                    raise ConfigError(f"{where} must be an object with size and filters")
                check_section(where, st, StageSpec)
            d["backbone"] = tuple(dict(s) for s in d["backbone"])
        if "anchor_scales" in d:
            for i, scales in enumerate(d["anchor_scales"]):
                _check_positive_numbers(f"network.anchor_scales[{i}]", scales)
            d["anchor_scales"] = tuple(tuple(x) for x in d["anchor_scales"])
        if "anchor_ratios" in d:
            _check_positive_numbers("network.anchor_ratios", d["anchor_ratios"])
            d["anchor_ratios"] = tuple(d["anchor_ratios"])
        return cls(**d)

    def check_input(self, images, network: str) -> None:
        """Raise ShapeError unless `images` is [B, size, size, channels]."""
        size, chans = self.input_size, self.input_channels
        if images.ndim != 4 or images.shape[1:] != (size, size, chans):
            raise ShapeError(f"{network} input must be [B, {size}, {size}, {chans}], "
                             f"got {images.shape}")

    def anchors_per_cell(self, level: int) -> int:
        return len(self.anchor_scales[level]) * len(self.anchor_ratios)

    # -- symbolic dry run -------------------------------------------------
    def trace_backbone(self):
        """Propagate extents through the backbone; returns the tap records
        {index, size, stride, filters}, plus for detection `level`, the
        image-pyramid level whose stage feeds the tap. Raises ConfigError on
        inconsistency, before any array is allocated."""
        size = self.input_size
        stride = 1
        taps = []
        for i, st in enumerate(self.backbone):
            pool = st.get("pool", 1)
            if pool > 1:
                if size % pool:
                    raise ConfigError(
                        f"stage {i}: size {size} not divisible by pool {pool}"
                    )
                size //= pool
                stride *= pool
            if st.get("tap"):
                taps.append(
                    {"index": i, "size": size, "stride": stride, "filters": st["filters"]}
                )
        if self.task == "detection":
            if not taps:
                raise ConfigError("detection network needs at least one tap")
            if not self.backbone[-1].get("tap"):
                raise ConfigError("trailing stages after the last tap are dead")
            for a, b in zip(taps, taps[1:]):
                if a["size"] != 2 * b["size"]:
                    raise ConfigError(
                        f"taps must halve in size for fusion: {a['size']} vs {b['size']}"
                    )
            if len(self.anchor_scales) != len(taps):
                raise ConfigError(
                    f"{len(taps)} prediction levels but {len(self.anchor_scales)} anchor scale sets"
                )
            for t in taps:
                # the matching pyramid image is 2x the tap size (one pooling
                # step inside the pyramid stage)
                k = math.log2(self.input_size / (2 * t["size"]))
                if abs(k - round(k)) > 1e-9 or k < 0:
                    raise ConfigError(
                        f"tap size {t['size']} has no power-of-two pyramid level"
                    )
                t["level"] = round(k)
        return taps


def _check_positive_numbers(where: str, values) -> None:
    """Raise ConfigError unless `values` is a non-empty list of finite
    positive numbers (bools excluded)."""
    ok = isinstance(values, (list, tuple)) and values and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and math.isfinite(v) and v > 0
        for v in values
    )
    if not ok:
        raise ConfigError(
            f"{where} must be a non-empty list of positive numbers, got {values!r}"
        )


def _build_backbone(spec: NetworkSpec, rng, dtype):
    """Sequential segments split at taps; segment k ends at tap k. The first
    RConv layer reads the image, so it skips its input gradient."""
    segments = []
    current = []
    in_planes = spec.input_channels
    kind = rconv.SCALAR
    for i, st in enumerate(spec.backbone):
        current.append(
            RConvLayer(
                st["size"], in_planes, st["filters"], spec.n_rotations, kind,
                spec.parametrization, rng=rng, dtype=dtype, input_grad=i > 0,
            )
        )
        if st.get("pool", 1) > 1:
            current.append(VfMaxPool(st["pool"]))
        in_planes = 2 * st["filters"]
        kind = rconv.VECTOR
        if st.get("tap"):
            segments.append(Sequential(current))
            current = []
    if current:
        segments.append(Sequential(current))
    return segments


# ---------------------------------------------------------------------------
# detector


class Detector(Layer):
    """Single-shot oriented detector with an image-pyramid feature branch.

    Per prediction level, backbone fields and pyramid-stage fields merge in a
    spatial-attention block gated by region proposals; adjacent merged levels
    fuse coarse-into-fine; a plain conv head predicts per-anchor class logits
    plus axis-aligned (4) and oriented (5) box offsets.

    `anchors` concatenates every level's `detect.anchor_boxes` into one
    [A, 4] array (`anchor_counts` rows per level); `_layout` puts the head
    outputs on the same axis. The RPN reads the last level's rows,
    `rpn_anchors`.
    """

    SEP = "/"
    HARD_NEGATIVE_RATIO = 3

    def __init__(self, spec: NetworkSpec, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.spec = spec
        self.dtype = dtype
        self.taps = spec.trace_backbone()
        n = len(self.taps)
        self.segments = _build_backbone(spec, rng, dtype)
        if len(self.segments) != n:
            raise ConfigError("backbone segments must end at taps")

        cm = spec.merge_channels
        self.lipm_stages = [
            PyramidStage(
                spec.n_rotations, max(cm // 2, 2), cm, t["filters"], spec.input_channels,
                rng=rng, dtype=dtype, parametrization=spec.parametrization,
            )
            for t in self.taps if spec.use_lipm
        ]
        self.attention = [
            AttentionMerge(spec.n_rotations, t["filters"], t["filters"] if spec.use_lipm else 0,
                           cm, rng=rng, dtype=dtype)
            for t in self.taps
        ]
        self.fusion = [
            FeatureFusion(spec.n_rotations, cm, cm, cm, rng=rng, dtype=dtype)
            for _ in range(n - 1) if spec.use_ffm
        ]
        k = spec.n_classes
        self.head_convs = [
            PlainConv(3, 2 * cm, spec.anchors_per_cell(i) * (k + 10), rng=rng, dtype=dtype)
            for i in range(n)
        ]
        levels = [
            detect.anchor_boxes(
                (t["size"], t["size"]), t["stride"],
                spec.anchor_scales[i], spec.anchor_ratios,
            )
            for i, t in enumerate(self.taps)
        ]
        self.anchors = np.concatenate(levels)
        self.anchor_counts = [len(a) for a in levels]
        self.rpn_anchors = levels[-1]
        rpn_planes = 2 * self.taps[-1]["filters"]
        self.rpn_conv = PlainConv(
            3, rpn_planes, spec.anchors_per_cell(n - 1) * 5, rng=rng, dtype=dtype
        ) if spec.use_rpn else None

    def children(self):
        groups = (
            ("backbone", self.segments),
            ("lipm", self.lipm_stages),
            ("attention", self.attention),
            ("fusion", self.fusion),
            ("head", self.head_convs),
        )
        out = {f"{name}{i}": l for name, layers in groups for i, l in enumerate(layers)}
        if self.rpn_conv is not None:
            out["rpn"] = self.rpn_conv
        return out

    def _layout(self, head_raw=None, rpn_raw=None):
        """Put the per-level head outputs [B, H, W, a*(k+10)] and the RPN
        output [B, H, W, a*5] on their anchor axes.

        Returns the [B, A, k+10] head array and views of the columns keyed
        as `detect.composite_loss_batch` keys them: class logits (k+1), HBB
        offsets (4) and OBB offsets (5) of the head; logits (1) and offsets
        (4) of the RPN. A part whose output is None is left out (None, no views).
        Writing into a view writes the head array or the RPN output.
        """
        k = self.spec.n_classes
        head = None
        cols = {}
        if head_raw is not None:
            head = np.concatenate([r.reshape(r.shape[0], -1, k + 10) for r in head_raw], axis=1)
            cols["cls_logits"] = head[..., : k + 1]
            cols["hbb_offsets"] = head[..., k + 1 : k + 5]
            cols["obb_offsets"] = head[..., k + 5 :]
        if rpn_raw is not None:
            rpn = rpn_raw.reshape(rpn_raw.shape[0], -1, 5)
            cols["rpn_logits"] = rpn[..., 0]
            cols["rpn_offsets"] = rpn[..., 1:]
        return head, cols

    # -- forward ----------------------------------------------------------
    def forward(self, images: Tensor, training: bool = True):
        """Run the feature pipeline on a batch [B, input_size, input_size,
        input_channels]; returns the per-level head raws and the proposal
        raw, None without an RPN. Other shapes raise `ShapeError`: the
        anchors are laid out for the spec's input size. Without the pyramid
        the merges and the RPN read the backbone taps alone."""
        spec = self.spec
        spec.check_input(images, "detector")
        n = len(self.taps)

        taps_out = []
        x = images
        for seg in self.segments:
            x = seg.forward(x, training)
            taps_out.append(x)

        lipm_out = [None] * n
        if spec.use_lipm:
            pyramid = build_image_pyramid(images, self.taps[-1]["level"] + 1)
            lipm_out = [
                stage.forward(pyramid[t["level"]], training)
                for stage, t in zip(self.lipm_stages, self.taps)
            ]

        rpn_raw, gates = None, [None] * n
        if spec.use_rpn:
            rpn_feat = lipm_out[-1] if spec.use_lipm else taps_out[-1]
            rpn_raw = self.rpn_conv.forward(rpn_feat, training)
            _, cols = self._layout(rpn_raw=rpn_raw)
            rois = [
                detect.propose_rois(logits, offsets, self.rpn_anchors, n, top_k=spec.rpn_top_k)
                for logits, offsets in zip(cols["rpn_logits"], cols["rpn_offsets"])
            ]
            gates = [
                np.stack([
                    roi_gate((t["size"],) * 2, [r for r in image_rois if r.level == i],
                             t["stride"], dtype=self.dtype)
                    for image_rois in rois
                ])
                for i, t in enumerate(self.taps)
            ]

        merged = [
            merge.forward(x, y, g, training)
            for merge, x, y, g in zip(self.attention, taps_out, lipm_out, gates)
        ]
        # coarse into fine; without fusion blocks each head reads its merged level
        for k, fusion in enumerate(self.fusion, 1):
            merged[k] = fusion.forward(merged[k - 1], merged[k], training)
        head_raw = [conv.forward(x, training) for conv, x in zip(self.head_convs, merged)]
        return {"head_raw": head_raw, "rpn_raw": rpn_raw}

    def _backward(self, g_head, g_rpn_raw):
        """Reverse pass from the [B, A, k+10] head gradient on the anchor axis
        and the proposal-raw gradient (None without an RPN)."""
        spec = self.spec
        n = len(self.taps)
        g_levels = np.split(g_head, np.cumsum(self.anchor_counts)[:-1], axis=1)
        g_d = [
            conv.backward(g.reshape(g.shape[0], t["size"], t["size"], -1))
            for conv, g, t in zip(self.head_convs, g_levels, self.taps)
        ]

        # fusion chain, coarse to fine; g_d[k] becomes the gradient w.r.t. merged[k]
        for k in range(len(self.fusion), 0, -1):
            gp, g_d[k] = self.fusion[k - 1].backward(g_d[k])
            g_d[k - 1] = g_d[k - 1] + gp

        g_taps, g_lipm = map(list, zip(*(a.backward(g) for a, g in zip(self.attention, g_d))))

        if spec.use_rpn:
            g_read = g_lipm if spec.use_lipm else g_taps  # the stacks the RPN read
            g_read[-1] = g_read[-1] + self.rpn_conv.backward(g_rpn_raw)
        for stage, g in zip(self.lipm_stages, g_lipm):
            stage.backward(g)

        g = g_taps[-1]
        for k in range(n - 1, 0, -1):
            g = self.segments[k].backward(g) + g_taps[k - 1]
        self.segments[0].backward(g)

    # -- training loss ------------------------------------------------------
    def loss_and_grads(self, images: Tensor, gt_per_image, lambdas=(1.0,) * 5):
        """Forward + composite loss + full backward for one batch.

        gt_per_image: list over images of (class_ids, [(HBox, OBox), ...]),
        one entry per image and class ids in 1..n_classes; other ground
        truth raises ShapeError before the forward runs.

        The whole batch is scored in one pass. The head anchors of every
        level are matched as one set, and the RPN anchors, if there is an
        RPN, as another: one `detect.match_batch` call each over every
        image. Hard negatives are mined from one softmax over the batch, and
        one `detect.composite_loss_batch` call scores every image, each from
        its own counts and sums. Gradients accumulate into the layers;
        returns (mean loss, components), the means over images of each
        image's own total and terms.
        """
        nb = images.shape[0]
        if len(gt_per_image) != nb:
            raise ShapeError(f"ground truth for {len(gt_per_image)} images in a batch of {nb}")
        gt = detect.GroundTruth.from_images(gt_per_image, self.spec.n_classes)
        fwd = self.forward(images, training=True)
        rpn_raw = fwd["rpn_raw"]
        head, preds = self._layout(fwd["head_raw"], rpn_raw)
        m = detect.match_batch(self.anchors, gt, stage="head")
        tgts = {
            "cls_labels": self._mine_negatives(preds["cls_logits"], m.labels),
            "hbb_offsets": m.hbb_targets,
            "obb_offsets": m.obb_targets,
        }
        if rpn_raw is not None:
            rm = detect.match_batch(self.rpn_anchors, gt, stage="rpn")
            tgts["rpn_labels"], tgts["rpn_offsets"] = rm.labels, rm.hbb_targets
        losses, comps, grads = detect.composite_loss_batch(preds, tgts, lambdas)

        # the gradients, written through the same column views
        g_rpn_raw = None if rpn_raw is None else np.zeros_like(rpn_raw)
        g_head, g_cols = self._layout([np.zeros_like(head)], g_rpn_raw)
        for key, g in g_cols.items():
            grads[key].write_scaled(g, nb)
        self._backward(g_head, g_rpn_raw)
        return _sum_in_order(losses) / nb, {
            key: _sum_in_order(v) / nb for key, v in comps.items()
        }

    def _mine_negatives(self, cls_logits, cls_labels):
        """Per image of [B, A, k+1] logits and [B, A] labels, keep all
        positives and the hardest negatives at a fixed ratio; the rest are
        ignored in the classification sum (deterministic order). One float64
        softmax scores the batch; each image ranks its own negatives."""
        pos = cls_labels >= 1
        neg = cls_labels == 0
        n_keep = np.maximum(self.HARD_NEGATIVE_RATIO * pos.sum(axis=1), 8)
        mined = (neg.sum(axis=1) > n_keep).nonzero()[0]
        if not len(mined):
            return cls_labels
        neg_loss = detect.background_nll(cls_logits)
        out = cls_labels.copy()
        out[mined] = np.where(pos[mined], cls_labels[mined], -1)
        for b in mined.tolist():
            neg_idx = neg[b].nonzero()[0]
            out[b, neg_idx[detect.top_order(neg_loss[b, neg_idx], int(n_keep[b]))]] = 0
        return out

    # -- inference ----------------------------------------------------------
    def detect_image(
        self,
        image: Tensor,
        score_threshold: float = 0.3,
        nms_iou: float = 0.45,
        max_per_image: int = 40,
    ):
        """Threshold, decode and NMS the head outputs for one image.

        Every anchor of every level whose best foreground probability is at
        or above `score_threshold` is a candidate. Candidates are visited by
        descending score, ties in anchor-axis order (level, then anchor;
        `np.argsort(-score, kind="stable")`), and decoded in that order only
        until `4 * max_per_image` valid ones (both boxes accepted by
        `HBox`/`OBox`) are found; invalid rows are skipped. NMS
        (`detect.nms_indices`) then runs per class on the decoded rows, each
        stopping at `max_per_image` kept, and the kept rows are ordered by
        descending score, ties in class order (a stable argsort). Detections
        are built only for the best `max_per_image` of them.

        The tail works on arrays: each anchor's class and score (argmax's
        first maximum over the foreground probabilities) come from one
        `tensor.first_max` across the k contiguous rows of a transposed copy;
        only the best `4 * max_per_image` candidates are sorted
        (`detect.top_order`) unless invalid rows call for more; and the kept
        rows become boxes in one pass each (`detect.hboxes_from_rows`,
        `detect.oboxes_from_rows`).
        """
        k = self.spec.n_classes
        fwd = self.forward(image[None], training=False)
        _, cols = self._layout(fwd["head_raw"])
        hbb_off = cols["hbb_offsets"][0]
        obb_off = cols["obb_offsets"][0]
        probs = detect.softmax(cols["cls_logits"][0], np.float64)
        score, cls = first_max(np.ascontiguousarray(probs[:, 1:].T), 0)
        sel = np.flatnonzero(score >= score_threshold)
        cap = 4 * max_per_image
        # the best cap first; the rest are sorted only if invalid rows need them
        order = sel[detect.top_order(score[sel], cap)]
        found = []  # (anchor index, HBB row, OBB row) of valid candidates
        n_found = start = 0
        while n_found < cap and start < len(sel):
            if start == len(order):
                order = sel[np.argsort(-score[sel], kind="stable")]
            idx = order[start : start + cap - n_found]
            start += len(idx)
            hb, hb_ok = detect.decode_hbb_array(self.anchors[idx], hbb_off[idx])
            ob, ob_ok = detect.decode_obb_array(self.anchors[idx], obb_off[idx])
            ok = hb_ok & ob_ok
            found.append((idx[ok], hb[ok], ob[ok]))
            n_found += int(ok.sum())
        if not found:
            return []
        idx, hb, ob = (np.concatenate(parts) for parts in zip(*found))
        cand_cls, cand_score = cls[idx].astype(np.int64) + 1, score[idx]
        kept = []
        for c in range(1, k + 1):
            rows = np.flatnonzero(cand_cls == c)
            keep = detect.nms_indices(hb[rows], cand_score[rows], nms_iou, limit=max_per_image)
            kept.append(rows[keep])
        kept = np.concatenate(kept)
        kept = kept[np.argsort(-cand_score[kept], kind="stable")][:max_per_image]
        return [
            detect.Detection(c, s, hbox=hbox, obox=obox)
            for c, s, hbox, obox in zip(
                cand_cls[kept].tolist(), cand_score[kept].tolist(),
                detect.hboxes_from_rows(hb[kept]),
                detect.oboxes_from_rows(ob[kept], obb_off.dtype),
            )
        ]


def _sum_in_order(values) -> float:
    """0.0 + values[0] + values[1] + ..., left to right: `sum` of floats
    rounds differently from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


# ---------------------------------------------------------------------------
# orientation estimation networks


ORIENT_BACKBONE = (
    {"size": 7, "filters": 4, "pool": 2},
    {"size": 5, "filters": 6, "pool": 2},
    {"size": 3, "filters": 6, "pool": 2},
)


class OrientationEstimator(Layer):
    """Rotation-equivariant angle regressor for single-object patches.

    Fields from the final stage are averaged over a centered window and fed
    to the equivariant complex-linear head, so a rotation of the patch turns
    into the same rotation of the predicted (sin, cos) pair by construction.
    """

    SEP = "/"

    def __init__(self, spec: NetworkSpec, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.spec = spec
        segments = _build_backbone(spec, rng, dtype)
        self.trunk = Sequential([l for seg in segments for l in seg.layers])
        self.head = OrientationHead(
            spec.backbone[-1]["filters"], spec.n_rotations, rng=rng, dtype=dtype
        )
        self._cache = None

    def forward(self, images: Tensor, training: bool = True):
        self.spec.check_input(images, "orientation estimator")
        fields = self.trunk.forward(images, training)
        vecs, cache = center_field_average(fields, self.spec.head_window)
        self._cache = cache
        return self.head.forward(vecs, training)

    def backward(self, g_out: Tensor):
        gv = self.head.backward(g_out)
        gf = center_field_average_backward(self._cache, gv)
        self.trunk.backward(gf)


def angle_targets(alphas_deg: np.ndarray) -> np.ndarray:
    """(sin, cos) target rows from orientation labels in degrees."""
    a = np.radians(np.asarray(alphas_deg, dtype=np.float64))
    return np.stack([np.sin(a), np.cos(a)], axis=1)


def orientation_loss_and_grad(pred: np.ndarray, target: np.ndarray):
    """Mean squared error on (sin, cos) pairs; returns (loss, grad)."""
    diff = pred - target.astype(pred.dtype)
    loss = float(np.mean(diff**2))
    grad = (2.0 / diff.size) * diff
    return loss, grad
