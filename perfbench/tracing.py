"""Span tracer for the benchmark's traced mode.

The tracer wraps the public functions of each `oriconv` module from outside
the package. Modules import functions by name (`from .tensor import conv2d`),
so a function is patched under every name a caller looks up: `rconv.conv2d`
and `netblocks.conv2d` are patched separately from `tensor.conv2d`, and all of
them record the same span name. `install` patches, `remove` restores every
name it patched.

Spans are kept in memory as (name id, start, end, parent span id, op id)
tuples and written out when the run ends. A span's self time is its duration
minus the durations of its direct children; time inside an op that no span
covers is reported as the untraced remainder, so for every op the self times
plus the remainder add up to the op time.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from time import perf_counter

from oriconv import detect, fieldops, netblocks, networks, rconv, tensor, trainer


def _conv_flops(tracer, args, result):
    # GEMM-equivalent flops from the shapes: every output element is an
    # m*m*Cin dot product. Written against the output so a batched conv
    # counts the same way.
    f = args[1]
    tracer.flops += 2.0 * result.size * f.shape[0] * f.shape[1] * f.shape[2]


def _conv_bwd_flops(tracer, args, result):
    # Two GEMMs of the forward size: grad_filter and grad_input.
    f, upstream = args[1], args[2]
    tracer.flops += 4.0 * upstream.size * f.shape[0] * f.shape[1] * f.shape[2]


def _expand_key(tracer, args, result):
    bank = args[0]
    tracer.expand_keys.add((tracer.op, id(bank), hash(bank.weights.tobytes())))


def _nms_sizes(tracer, args, result):
    tracer.nms_in += len(args[0])
    tracer.nms_out += len(result)


def patch_table():
    """(owner, attribute, span name, hook) for every traced call site."""
    t = []
    # tensor: one entry per module whose code looks the function up
    for owner in (tensor, rconv, netblocks, detect):
        t.append((owner, "conv2d", "tensor.conv2d", _conv_flops))
        t.append((owner, "conv2d_backward", "tensor.conv2d_bwd", _conv_bwd_flops))
    for owner in (tensor, rconv, trainer):
        t.append((owner, "rotate_grid", "tensor.rotate_grid", None))
    for owner in (tensor, rconv):
        t.append((owner, "rotate_grid_adjoint", "tensor.rotate_grid_adjoint", None))
    # rconv
    t.append((rconv, "expand_rotations", "rconv.expand", _expand_key))
    t.append((rconv, "expand_rotations_backward", "rconv.expand_bwd", None))
    # fieldops: netblocks calls these as fieldops.<name>, trainer by name
    for attr, name in (
        ("orientation_pool_stack", "fieldops.orientation_pool"),
        ("orientation_pool_backward", "fieldops.orientation_pool_bwd"),
        ("vf_max_pool", "fieldops.vf_max_pool"),
        ("vf_max_pool_backward", "fieldops.vf_max_pool_bwd"),
        ("field_batch_norm", "fieldops.field_batch_norm"),
        ("field_batch_norm_backward", "fieldops.field_batch_norm_bwd"),
    ):
        t.append((fieldops, attr, name, None))
    t.append((trainer, "rotate_stack_90", "fieldops.rotate_stack_90", None))
    # netblocks: layer methods are looked up on the class
    t.append((netblocks.RConvLayer, "forward", "netblocks.rconv_layer_fwd", None))
    t.append((netblocks.RConvLayer, "backward", "netblocks.rconv_layer_bwd", None))
    for cls, name in (
        (netblocks.PyramidStage, "netblocks.pyramid"),
        (netblocks.AttentionMerge, "netblocks.attention"),
        (netblocks.FeatureFusion, "netblocks.fusion"),
        (netblocks.PlainConv, "netblocks.plain_conv"),
    ):
        t.append((cls, "forward", name, None))
        t.append((cls, "backward", name, None))
    for owner in (netblocks, networks):
        t.append((owner, "downsample2", "netblocks.downsample", None))
    # networks
    for cls in (networks.Detector, networks.OrientationEstimator):
        t.append((cls, "forward", "networks.forward", None))
    t.append((networks.Detector, "_backward", "networks.backward", None))
    t.append((networks.OrientationEstimator, "backward", "networks.backward", None))
    t.append((networks.Detector, "loss_and_grads", "networks.loss_and_grads", None))
    t.append((networks.Detector, "detect_image", "networks.detect_image", None))
    t.append((networks, "orientation_loss_and_grad", "networks.orientation_loss", None))
    # detect: networks calls these as detect.<name>, detect itself by name
    t.append((detect, "propose_rois", "detect.propose_rois", None))
    t.append((detect, "nms", "detect.nms", _nms_sizes))
    t.append((detect, "decode_hbb", "detect.decode", None))
    t.append((detect, "decode_obb", "detect.decode", None))
    t.append((detect, "match_anchors", "detect.match_anchors", None))
    t.append((detect, "composite_loss", "detect.composite_loss", None))
    # trainer
    t.append((trainer.SGD, "step", "trainer.sgd_step", None))
    return t


# Called ~16k times per detector training step: counted, not spanned, so the
# tracer does not dominate the time of the NMS loop that calls it.
COUNTED = ((detect, "iou_hbb", "detect.iou"),)


class Tracer:
    """In-memory spans plus the counters the per-layer ratios need."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self._stack = []
        self.calls = defaultdict(int)
        self.flops = 0.0
        self.expand_keys = set()
        self.nms_in = 0
        self.nms_out = 0
        self.op = -1
        self.absent = []
        self._installed = False
        self._wrappers = self._build()

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, nid, fn, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            parent = stack[-2] if len(stack) > 1 else -1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (nid, t0, t1, parent, self.op)
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _build(self):
        # A name a later version of the package drops is skipped and listed
        # in `absent`; its metrics then read zero.
        targets = [(o, a, n, h, True) for o, a, n, h in patch_table()]
        targets += [(o, a, n, None, False) for o, a, n in COUNTED]
        out = []
        for owner, attr, name, hook, spanned in targets:
            fn = vars(owner).get(attr)
            if not inspect.isfunction(fn):
                self.absent.append(f"{owner.__name__}.{attr}")
                continue
            wrapper = (self._span(self._name_id(name), fn, hook) if spanned
                       else self._counter(name, fn))
            out.append((owner, attr, fn, wrapper))
        return out

    def install(self, op_id):
        self.op = op_id
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
        self._installed = True

    def remove(self):
        if not self._installed:
            return
        for owner, attr, original, _ in self._wrappers:
            setattr(owner, attr, original)
        self._installed = False
        self.op = -1

    def write(self, path):
        """Span dump: a header line with the name table, then one JSON array
        [name id, start s, end s, parent span id, op id] per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def summarize(self, op_seconds):
        """Per-name self/inclusive seconds and call counts over the traced
        ops in op_seconds (op id -> op time; failed ops are left out), plus
        the untraced remainder."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, op in spans:
            if parent >= 0 and op in op_seconds:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        count = defaultdict(int)
        covered = defaultdict(float)
        for sid, (nid, t0, t1, parent, op) in enumerate(spans):
            if op not in op_seconds:
                continue
            d = t1 - t0
            name = self.names[nid]
            self_s[name] += d - child[sid]
            count[name] += 1
            if parent == -1:
                covered[op] += d
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and spans[p][0] != nid:
                p = spans[p][3]
            if p < 0:
                incl_s[name] += d
        total_op = sum(op_seconds.values())
        untraced = total_op - sum(covered[op] for op in op_seconds)
        return {
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "calls": {**count, **self.calls},
            "op_s": total_op,
            "untraced_s": untraced,
        }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, summary, n_ops, traced_p50_ms, untraced_p50_ms):
    """The per-layer metrics of BENCHMARK.json: `_ms` is mean self time per
    traced op, `_incl_ms` mean inclusive time, `_calls` mean calls per op."""
    s, inc, calls = summary["self_s"], summary["incl_s"], summary["calls"]

    def ms(name):
        return 1e3 * s.get(name, 0.0) / n_ops

    def incl_ms(name):
        return 1e3 * inc.get(name, 0.0) / n_ops

    def per_op(name):
        return calls.get(name, 0) / n_ops

    conv_s = s.get("tensor.conv2d", 0.0) + s.get("tensor.conv2d_bwd", 0.0)
    m = {
        "rconv.expand_ms": (ms("rconv.expand"), "ms"),
        "rconv.expand_bwd_ms": (ms("rconv.expand_bwd"), "ms"),
        "rconv.expand_incl_ms": (incl_ms("rconv.expand"), "ms"),
        "rconv.expand_bwd_incl_ms": (incl_ms("rconv.expand_bwd"), "ms"),
        "rconv.expand_calls": (per_op("rconv.expand"), "count"),
        "rconv.expand_useful_ratio": (
            _ratio(len(tracer.expand_keys), calls.get("rconv.expand", 0)), "ratio"),
        "tensor.conv2d_ms": (ms("tensor.conv2d"), "ms"),
        "tensor.conv2d_bwd_ms": (ms("tensor.conv2d_bwd"), "ms"),
        "tensor.conv2d_calls": (per_op("tensor.conv2d"), "count"),
        "tensor.conv2d_gflops": (_ratio(tracer.flops, conv_s) / 1e9, "GFLOP/s"),
        "tensor.rotate_grid_ms": (ms("tensor.rotate_grid"), "ms"),
        "tensor.rotate_grid_calls": (per_op("tensor.rotate_grid"), "count"),
        "tensor.rotate_grid_adjoint_ms": (ms("tensor.rotate_grid_adjoint"), "ms"),
        "fieldops.orientation_pool_ms": (ms("fieldops.orientation_pool"), "ms"),
        "fieldops.orientation_pool_bwd_ms": (ms("fieldops.orientation_pool_bwd"), "ms"),
        "fieldops.vf_max_pool_ms": (ms("fieldops.vf_max_pool"), "ms"),
        "fieldops.vf_max_pool_bwd_ms": (ms("fieldops.vf_max_pool_bwd"), "ms"),
        "fieldops.field_batch_norm_ms": (ms("fieldops.field_batch_norm"), "ms"),
        "fieldops.field_batch_norm_bwd_ms": (ms("fieldops.field_batch_norm_bwd"), "ms"),
        "netblocks.rconv_layer_fwd_ms": (ms("netblocks.rconv_layer_fwd"), "ms"),
        "netblocks.rconv_layer_bwd_ms": (ms("netblocks.rconv_layer_bwd"), "ms"),
        "netblocks.pyramid_incl_ms": (incl_ms("netblocks.pyramid"), "ms"),
        "netblocks.attention_incl_ms": (incl_ms("netblocks.attention"), "ms"),
        "netblocks.fusion_incl_ms": (incl_ms("netblocks.fusion"), "ms"),
        "netblocks.plain_conv_ms": (ms("netblocks.plain_conv"), "ms"),
        "netblocks.downsample_ms": (ms("netblocks.downsample"), "ms"),
        "networks.forward_incl_ms": (incl_ms("networks.forward"), "ms"),
        "networks.backward_incl_ms": (incl_ms("networks.backward"), "ms"),
        "networks.loss_targets_ms": (ms("networks.loss_and_grads"), "ms"),
        "networks.postprocess_ms": (ms("networks.detect_image"), "ms"),
        "detect.propose_rois_ms": (ms("detect.propose_rois"), "ms"),
        "detect.nms_ms": (ms("detect.nms"), "ms"),
        "detect.nms_keep_ratio": (_ratio(tracer.nms_out, tracer.nms_in), "ratio"),
        "detect.iou_calls": (per_op("detect.iou"), "count"),
        "detect.decode_ms": (ms("detect.decode"), "ms"),
        "detect.decode_calls": (per_op("detect.decode"), "count"),
        "detect.match_anchors_ms": (ms("detect.match_anchors"), "ms"),
        "detect.composite_loss_ms": (ms("detect.composite_loss"), "ms"),
        "trainer.sgd_step_ms": (ms("trainer.sgd_step"), "ms"),
        "trace.untraced_ms": (1e3 * summary["untraced_s"] / n_ops, "ms"),
        "trace.op_ms": (1e3 * summary["op_s"] / n_ops, "ms"),
        "trace.overhead_ratio": (_ratio(traced_p50_ms, untraced_p50_ms) - 1.0, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
