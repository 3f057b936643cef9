"""Rotation-equivariant convolution toolkit.

Core stack: canonical filters expanded over sampled rotations (`rconv`),
orientation pooling into 2D vector fields (`fieldops`), a steerable filter
basis (`steerbasis`) whose composed filters `rconv` resamples like free ones,
and the detector blocks built on them (`netblocks`, `networks`).
Verification primitives (finite-difference gradient checks, exact
quarter-turn covariance) live in `tensor` and `trainer`; evaluation in
`metrics`; deterministic synthetic data in `synthdata`. The package reads
no clock, so every file it writes is a function of its inputs; timing is the
`perfbench/` harness's job.
"""

from .errors import ConfigError, NumericalError, OriconvError, ShapeError
from .tensor import (
    Tensor,
    conv2d,
    conv2d_backward,
    conv2d_filter_grad,
    finite_diff_check,
    rotate_grid,
    rotate_grid_adjoint,
)
from .rconv import CanonicalFilterBank, circular_mask, expand_rotations
from .fieldops import (
    VFBNState,
    field_batch_norm,
    orientation_pool_backward,
    orientation_pool_stack,
    vf_max_pool,
)
from .steerbasis import build_basis, compose_filters
from .detect import (
    Detection,
    HBox,
    OBox,
    anchor_boxes,
    iou_hbb,
    iou_obb,
    nms_indices,
)
from .metrics import EvalResult, mean_average_precision
from .synthdata import SceneSpec, Sample, augment, generate_orientation_patches, generate_scene
from .networks import Detector, NetworkSpec, OrientationEstimator
from .trainer import TrainConfig, train, verify_equivariance

__version__ = "0.1.0"
