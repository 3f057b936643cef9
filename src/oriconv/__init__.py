"""Rotation-equivariant convolution toolkit.

Core stack: canonical filters expanded over sampled rotations (`rconv`),
orientation pooling into 2D vector fields (`fieldops`), an analytically
steerable filter basis (`steerbasis`), and the detector blocks built on them
(`netblocks`, `networks`). Verification primitives (finite-difference
gradient checks, exact quarter-turn covariance) live in `tensor` and
`trainer`; evaluation in `metrics`; deterministic synthetic data in
`synthdata`.
"""

from .errors import ConfigError, NumericalError, OriconvError, ShapeError
from .tensor import (
    GridSampleSpec,
    Tensor,
    conv2d,
    conv2d_backward,
    finite_diff_check,
    rotate_grid,
    rotate_grid_adjoint,
)
from .rconv import (
    CanonicalFilterBank,
    RConvOutput,
    circular_mask,
    expand_rotations,
    rconv_backward,
    rconv_backward_vf,
    rconv_forward,
    rconv_forward_vf,
    rotation_angles,
)
from .fieldops import (
    VFBNState,
    VectorField,
    field_batch_norm,
    max_pool,
    orientation_pool,
    orientation_pool_backward,
    vf_max_pool,
)
from .steerbasis import BasisBank, BasisSpec, build_basis, compose_filters
from .detect import (
    AnchorSet,
    Detection,
    HBox,
    OBox,
    composite_loss,
    iou_hbb,
    iou_obb,
    match_anchors,
    nms,
)
from .metrics import (
    EvalResult,
    average_precision,
    error_taxonomy,
    mean_average_precision,
    mean_orientation_error,
    throughput,
)
from .synthdata import SceneSpec, Sample, augment, generate_orientation_patches, generate_scene
from .networks import Detector, NetworkSpec, OrientationEstimator
from .trainer import TrainConfig, train, verify_equivariance

__version__ = "0.1.0"
