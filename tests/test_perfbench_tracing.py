"""The benchmark's traced mode patches package functions by name; a name it
cannot find is skipped and its per-layer metric reads zero. Pinning the
skipped names makes a rename of a traced function fail here instead."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_absent_names_pinned():
    assert load_tracing().Tracer().absent == [
        "oriconv.rconv.conv2d",
        "oriconv.rconv.conv2d_backward",
        "oriconv.detect.conv2d",
        "oriconv.detect.conv2d_backward",
        "oriconv.networks.downsample2",
        "oriconv.detect.nms",
        "oriconv.detect.decode_hbb",
        "oriconv.detect.decode_obb",
    ]
