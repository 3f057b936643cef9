"""Network assembly: declarative specs, the oriented detector, and the
orientation estimators used by the rotational-generalization experiments.

A NetworkSpec is plain data (JSON-serializable) describing the backbone
stages, pyramid attachments, head geometry and ablation switches. Building a
network runs a symbolic shape dry-run first, so a mismatched merge fails at
construction time with ConfigError rather than mid-training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import detect, rconv
from .errors import ConfigError, check_section
from .netblocks import (
    AttentionMerge,
    FeatureFusion,
    Layer,
    Linear,
    MaxPool,
    OrientationHead,
    PlainConv,
    PyramidStage,
    RConvLayer,
    Relu,
    Sequential,
    VfMaxPool,
    center_field_average,
    center_field_average_backward,
    build_image_pyramid,
    roi_gate,
    tanh_unit_backward,
    tanh_unit_forward,
)
from .tensor import Tensor


DEFAULT_BACKBONE = (
    {"size": 5, "filters": 6, "pool": 2, "tap": False},
    {"size": 3, "filters": 8, "pool": 2, "tap": True},
    {"size": 3, "filters": 8, "pool": 2, "tap": True},
)


@dataclass
class NetworkSpec:
    task: str = "detection"
    n_rotations: int = 8
    parametrization: str = "free"  # free | steerable
    input_size: int = 64
    input_channels: int = 1
    backbone: tuple = DEFAULT_BACKBONE
    n_classes: int = 3
    use_lipm: bool = True
    use_ffm: bool = True
    use_rpn: bool = True
    attention_mode: str = "concat"
    merge_channels: int = 8
    anchor_scales: tuple = ((12.0, 18.0), (24.0, 32.0))
    anchor_ratios: tuple = (0.5, 1.0, 2.0)
    rpn_top_k: int = 8
    head_window: int = 4  # orientation task: center window of pooled fields

    def __post_init__(self):
        if self.n_rotations < 1:
            raise ConfigError(f"rotation count must be >= 1, got {self.n_rotations}")
        if not self.backbone:
            raise ConfigError("backbone needs at least one stage")

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
            d["backbone"] = tuple(dict(s) for s in d["backbone"])
        if "anchor_scales" in d:
            d["anchor_scales"] = tuple(tuple(x) for x in d["anchor_scales"])
        if "anchor_ratios" in d:
            d["anchor_ratios"] = tuple(d["anchor_ratios"])
        return cls(**d)

    def anchors_per_cell(self, level: int) -> int:
        return len(self.anchor_scales[level]) * len(self.anchor_ratios)

    # -- symbolic dry run -------------------------------------------------
    def trace_backbone(self):
        """Propagate extents through the backbone; returns the tap records
        {index, size, stride, filters}. Raises ConfigError on inconsistency,
        before any array is allocated."""
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
        return taps


def _build_backbone(spec: NetworkSpec, rng, dtype):
    """Sequential segments split at taps; segment k ends at tap k."""
    segments = []
    current = []
    in_planes = spec.input_channels
    kind = rconv.SCALAR
    for st in spec.backbone:
        current.append(
            RConvLayer(
                st["size"], in_planes, st["filters"], spec.n_rotations, kind,
                spec.parametrization, rng=rng, dtype=dtype,
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
    """

    SEP = "/"
    K0 = 1
    S0 = 16.0
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
                spec.n_rotations, max(cm // 2, 2), cm, t["filters"],
                rng=rng, dtype=dtype, parametrization=spec.parametrization,
            )
            for t in self.taps
        ]
        self.attention = [
            AttentionMerge(
                spec.n_rotations, t["filters"], t["filters"], cm,
                mode=spec.attention_mode, rng=rng, dtype=dtype,
            )
            for t in self.taps
        ]
        self.fusion = [
            FeatureFusion(spec.n_rotations, cm, cm, cm, rng=rng, dtype=dtype)
            for _ in range(n - 1)
        ]
        k = spec.n_classes
        self.head_convs = [
            PlainConv(3, 2 * cm, spec.anchors_per_cell(i) * (k + 10), rng=rng, dtype=dtype)
            for i in range(n)
        ]
        self.anchors = [
            detect.AnchorSet.build(
                (t["size"], t["size"]), t["stride"],
                spec.anchor_scales[i], spec.anchor_ratios,
            )
            for i, t in enumerate(self.taps)
        ]
        rpn_planes = 2 * self.taps[-1]["filters"]
        self.rpn_conv = PlainConv(
            3, rpn_planes, spec.anchors_per_cell(n - 1) * 5, rng=rng, dtype=dtype
        )
        self.rpn_anchors = self.anchors[-1]

    def children(self):
        groups = (
            ("backbone", self.segments),
            ("lipm", self.lipm_stages),
            ("attention", self.attention),
            ("fusion", self.fusion),
            ("head", self.head_convs),
        )
        out = {f"{name}{i}": l for name, layers in groups for i, l in enumerate(layers)}
        out["rpn"] = self.rpn_conv
        return out

    # -- forward ----------------------------------------------------------
    def forward(self, images: Tensor, training: bool = True, use_rois: bool = True):
        """Run the feature pipeline on a batch; returns per-level merged
        features, head raws, proposal raws and the proposals per image."""
        spec = self.spec
        n = len(self.taps)

        taps_out = []
        x = images
        for seg in self.segments:
            x = seg.forward(x, training)
            taps_out.append(x)

        if spec.use_lipm:
            ks = [int(round(math.log2(spec.input_size / (2 * t["size"])))) for t in self.taps]
            pyramid = build_image_pyramid(images, ks[-1] + 1)
            lipm_out = [
                stage.forward(pyramid[k], training) for stage, k in zip(self.lipm_stages, ks)
            ]
        else:
            lipm_out = [np.zeros_like(t) for t in taps_out]

        rpn_feat = lipm_out[-1] if spec.use_lipm else taps_out[-1]
        rpn_raw = self.rpn_conv.forward(rpn_feat, training)
        rois_per_image = [[] for _ in range(images.shape[0])]
        if spec.use_rpn:
            for b in range(images.shape[0]):
                flat = rpn_raw[b].reshape(-1, 5)
                rois_per_image[b] = detect.propose_rois(
                    flat[:, 0], flat[:, 1:5], self.rpn_anchors, n,
                    top_k=spec.rpn_top_k, k0=self.K0, s0=self.S0,
                )

        merged = []
        for i, t in enumerate(self.taps):
            gates = None
            if use_rois and spec.use_rpn:
                gates = np.stack(
                    [
                        roi_gate(
                            taps_out[i].shape[1:3],
                            [r for r in rois_per_image[b] if r.level == i],
                            t["stride"],
                            dtype=self.dtype,
                        )
                        for b in range(images.shape[0])
                    ]
                )
            merged.append(
                self.attention[i].forward(taps_out[i], lipm_out[i], gates, training)
            )

        d = [merged[0]]
        for k in range(1, n):
            if spec.use_ffm:
                d.append(self.fusion[k - 1].forward(d[k - 1], merged[k], training))
            else:
                d.append(merged[k])

        head_raw = [self.head_convs[i].forward(d[i], training) for i in range(n)]
        return {
            "head_raw": head_raw,
            "rpn_raw": rpn_raw,
            "rois": rois_per_image,
        }

    def _backward(self, g_head_raw, g_rpn_raw):
        """Reverse pass once the per-level head gradients are assembled."""
        spec = self.spec
        n = len(self.taps)
        g_d = [self.head_convs[i].backward(g_head_raw[i]) for i in range(n)]

        # fusion chain, coarse to fine
        for k in range(n - 1, 0, -1):
            if spec.use_ffm:
                gp, gc = self.fusion[k - 1].backward(g_d[k])
                g_d[k - 1] = g_d[k - 1] + gp
                g_merged_k = gc
            else:
                g_merged_k = g_d[k]
            g_d[k] = g_merged_k  # now gradient w.r.t. merged[k]
        # level 0 merged gradient is g_d[0]

        g_taps = [None] * n
        g_lipm = [None] * n
        for i in range(n):
            ga, gb = self.attention[i].backward(g_d[i])
            g_taps[i] = ga
            g_lipm[i] = gb

        g_rpn_in = self.rpn_conv.backward(g_rpn_raw)
        if spec.use_lipm:
            g_lipm[-1] = g_lipm[-1] + g_rpn_in
            for i in range(n):
                self.lipm_stages[i].backward(g_lipm[i])
        else:
            g_taps[-1] = g_taps[-1] + g_rpn_in

        g = g_taps[-1]
        for k in range(n - 1, 0, -1):
            g = self.segments[k].backward(g)
            g = g + g_taps[k - 1]
        self.segments[0].backward(g)

    # -- training loss ------------------------------------------------------
    def loss_and_grads(self, images: Tensor, gt_per_image, lambdas=(1.0,) * 5):
        """Forward + composite loss + full backward for one batch.

        gt_per_image: list over images of (class_ids, [(HBox, OBox), ...]).
        Gradients accumulate into the layers; returns (mean loss, components).
        """
        spec = self.spec
        n = len(self.taps)
        nb = images.shape[0]
        fwd = self.forward(images, training=True, use_rois=True)

        g_head_raw = [np.zeros_like(fwd["head_raw"][i]) for i in range(n)]
        g_rpn_raw = np.zeros_like(fwd["rpn_raw"])
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
                m = detect.match_anchors(self.anchors[i], gt_pairs, classes, stage="head")
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

            cls_labels = self._mine_negatives(cls_logits, cls_labels)

            rm = detect.match_anchors(self.rpn_anchors, gt_pairs, classes, stage="rpn")
            rpn_flat = fwd["rpn_raw"][b].reshape(-1, 5)

            preds = {
                "rpn_logits": rpn_flat[:, 0],
                "rpn_offsets": rpn_flat[:, 1:5],
                "cls_logits": cls_logits,
                "hbb_offsets": hbb_off,
                "obb_offsets": obb_off,
            }
            tgts = {
                "rpn_labels": rm.labels,
                "rpn_offsets": rm.hbb_targets,
                "cls_labels": cls_labels,
                "hbb_offsets": hbb_t,
                "obb_offsets": obb_t,
            }
            loss, comps, grads = detect.composite_loss(preds, tgts, lambdas)
            total += loss
            for key, v in comps.items():
                comp_sum[key] = comp_sum.get(key, 0.0) + v

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

        self._backward(g_head_raw, g_rpn_raw)
        comps = {key: v / nb for key, v in comp_sum.items()}
        return total / nb, comps

    def _mine_negatives(self, cls_logits, cls_labels):
        """Keep all positives and the hardest negatives at a fixed ratio; the
        rest are ignored in the classification sum (deterministic order)."""
        pos = cls_labels >= 1
        neg = cls_labels == 0
        n_keep = max(self.HARD_NEGATIVE_RATIO * int(pos.sum()), 8)
        if int(neg.sum()) <= n_keep:
            return cls_labels
        p = detect.softmax(cls_logits.astype(np.float64))
        neg_loss = -np.log(p[:, 0] + 1e-12)
        neg_idx = np.flatnonzero(neg)
        hard = neg_idx[np.argsort(-neg_loss[neg_idx], kind="stable")[:n_keep]]
        out = np.full_like(cls_labels, -1)
        out[pos] = cls_labels[pos]
        out[hard] = 0
        return out

    # -- inference ----------------------------------------------------------
    def detect_image(
        self,
        image: Tensor,
        score_threshold: float = 0.3,
        nms_iou: float = 0.45,
        max_per_image: int = 40,
        use_rois: bool = True,
    ):
        """Threshold, decode and NMS the head outputs for one image.

        Every anchor of every level whose best foreground probability is at
        or above `score_threshold` is a candidate. Candidates are visited by
        descending score, ties in level order and then anchor order
        (`np.argsort(-score, kind="stable")`), and decoded in that order only
        until `4 * max_per_image` valid ones (both boxes accepted by
        `HBox`/`OBox`) are found; invalid rows are skipped. NMS then runs per
        class, each stopping at `max_per_image` kept, and the best
        `max_per_image` overall are returned by descending score.
        """
        k = self.spec.n_classes
        fwd = self.forward(image[None], training=False, use_rois=use_rois)
        anchors, hbb_off, obb_off, cls, score = [], [], [], [], []
        for i in range(len(self.taps)):
            raw = fwd["head_raw"][i][0].reshape(-1, k + 10)
            probs = detect.softmax(raw[:, : k + 1].astype(np.float64))
            best_cls = np.argmax(probs[:, 1:], axis=1) + 1
            best_score = probs[np.arange(raw.shape[0]), best_cls]
            sel = np.flatnonzero(best_score >= score_threshold)
            anchors.append(self.anchors[i].boxes[sel])
            hbb_off.append(raw[sel, k + 1 : k + 5])
            obb_off.append(raw[sel, k + 5 :])
            cls.append(best_cls[sel])
            score.append(best_score[sel])
        anchors, hbb_off, obb_off, cls, score = (
            np.concatenate(a) for a in (anchors, hbb_off, obb_off, cls, score)
        )
        order = np.argsort(-score, kind="stable")
        cap = 4 * max_per_image
        dets = []
        start = 0
        while len(dets) < cap and start < len(order):
            idx = order[start : start + cap - len(dets)]
            start += len(idx)
            hb, hb_ok = detect.decode_hbb_array(anchors[idx], hbb_off[idx])
            ob, ob_ok = detect.decode_obb_array(anchors[idx], obb_off[idx])
            for j in np.flatnonzero(hb_ok & ob_ok):
                a = idx[j]
                dets.append(
                    detect.Detection(
                        int(cls[a]), float(score[a]), hbox=detect.HBox(*hb[j]),
                        obox=detect.obox_from_row(ob[j], obb_off.dtype),
                    )
                )
        out = []
        for c in range(1, k + 1):
            same = [d for d in dets if d.class_id == c]
            out.extend(detect.nms(same, nms_iou, limit=max_per_image))
        out.sort(key=lambda d: -d.score)
        return out[:max_per_image]


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
        fields = self.trunk.forward(images, training)
        vecs, cache = center_field_average(fields, self.spec.head_window)
        self._cache = cache
        return self.head.forward(vecs, training)

    def backward(self, g_out: Tensor):
        gv = self.head.backward(g_out)
        gf = center_field_average_backward(self._cache, gv)
        self.trunk.backward(gf)


class BaselineOrientationCNN(Layer):
    """Parameter-matched plain-convolution baseline: same layer plan, no
    rotation weight sharing, dense head on the center window."""

    SEP = "/"

    def __init__(self, spec: NetworkSpec, rng=None, dtype=np.float32, widths=None):
        rng = rng or np.random.default_rng(0)
        self.spec = spec
        widths = widths or tuple(2 * st["filters"] for st in spec.backbone)
        layers = []
        in_c = spec.input_channels
        for st, w in zip(spec.backbone, widths):
            layers.append(PlainConv(st["size"], in_c, w, rng=rng, dtype=dtype))
            layers.append(Relu())
            if st.get("pool", 1) > 1:
                layers.append(MaxPool(st["pool"]))
            in_c = w
        self.trunk = Sequential(layers)
        win = spec.head_window
        self.dense = Linear(win * win * in_c, 2, rng=rng, dtype=dtype)
        self._cache = None

    def forward(self, images: Tensor, training: bool = True):
        feat = self.trunk.forward(images, training)
        n, h, w, c = feat.shape
        win = self.spec.head_window
        y0 = (h - win) // 2
        x0 = (w - win) // 2
        patch = feat[:, y0 : y0 + win, x0 : x0 + win, :]
        flat = patch.reshape(n, -1)
        raw = self.dense.forward(flat, training)
        s_hat, c_hat, degenerate, tcache = tanh_unit_forward(raw[:, 0], raw[:, 1])
        self._cache = (feat.shape, y0, x0, tcache)
        return np.stack([s_hat, c_hat], axis=1), degenerate

    def backward(self, g_out: Tensor):
        shape, y0, x0, tcache = self._cache
        grp, grq = tanh_unit_backward(tcache, g_out[:, 0], g_out[:, 1])
        graw = np.stack([grp, grq], axis=1)
        gflat = self.dense.backward(graw)
        win = self.spec.head_window
        n, h, w, c = shape
        gfeat = np.zeros(shape, dtype=gflat.dtype)
        gfeat[:, y0 : y0 + win, x0 : x0 + win, :] = gflat.reshape(n, win, win, c)
        self.trunk.backward(gfeat)


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
