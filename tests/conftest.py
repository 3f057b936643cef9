import math
import struct

import numpy as np
import pytest
from hypothesis import settings

from oriconv.checkpoint import MAGIC, VERSION
from oriconv.detect import Detection, OBox
from oriconv.rconv import expand_rotations, expand_rotations_backward
from oriconv.tensor import conv2d, conv2d_backward

# Property tests replay the same examples on every run (no flakes from a
# random draw or from a slow, contended host hitting a deadline) and stay
# within about a second each. `pytest --hypothesis-profile=<name>` overrides.
settings.register_profile(
    "oriconv", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("oriconv")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def conv2d_oracle(x, f, stride=1, padding=0):
    """Brute-force quintuple-loop cross-correlation, the reference for every
    conv test. Deliberately shares no code with the library implementation."""
    h, w, cin = x.shape
    m, _, _, cout = f.shape
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    ho = (h + 2 * padding - m) // stride + 1
    wo = (w + 2 * padding - m) // stride + 1
    y = np.zeros((ho, wo, cout), dtype=np.float64)
    for i in range(ho):
        for j in range(wo):
            for co in range(cout):
                acc = 0.0
                for ky in range(m):
                    for kx in range(m):
                        for ci in range(cin):
                            acc += xp[i * stride + ky, j * stride + kx, ci] * f[ky, kx, ci, co]
                y[i, j, co] = acc
    return y


def planes(y):
    """Channel-last responses [..., H, W, C] as the C-ordered pixel planes
    [..., C, H, W] that `tensor.conv2d` writes and the orientation pool
    reads."""
    return np.ascontiguousarray(np.moveaxis(y, -1, -3))


def filter_major(a, n):
    """Channels [..., n*C] in rotation-major order (channel r*C + c, as
    `expand_rotations` and `conv2d`'s planes hold them) reordered
    filter-major (channel c*n + r, as the orientation pool's adjoint writes
    its gradient)."""
    swapped = a.reshape(a.shape[:-1] + (n, -1)).swapaxes(-1, -2)
    return np.ascontiguousarray(swapped).reshape(a.shape)


def rotation_major(a, n):
    """The inverse of `filter_major`: channels c*n + r to r*C + c."""
    swapped = a.reshape(a.shape[:-1] + (-1, n)).swapaxes(-1, -2)
    return np.ascontiguousarray(swapped).reshape(a.shape)


def rconv_planes(x, bank):
    """The convolution `RConvLayer.forward` runs: x [..., H, W, Cin] against
    every rotated copy, as rotation-major planes [..., n*C, H, W]."""
    return conv2d(x, expand_rotations(bank))


def rconv_grads(x, bank, upstream):
    """Its adjoint as `RConvLayer.backward` runs it, for a channel-last,
    filter-major upstream [..., H, W, C*n] (`filter_major` of one in the
    planes' order): `conv2d_backward` against the filter-major expanded
    filter, then `expand_rotations_backward` of the rotation-major filter
    gradient. Returns (grad_x, canonical grad_weights)."""
    n = bank.n_rotations
    gx, gf = conv2d_backward(x, filter_major(expand_rotations(bank), n), upstream)
    return gx, expand_rotations_backward(bank, rotation_major(gf, n))


def gaussian_bump(m, sigma=2.0):
    c = 0.5 * (m - 1)
    ys, xs = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    return np.exp(-0.5 * ((ys - c) ** 2 + (xs - c) ** 2) / sigma**2)


def smooth_random_image(size, rng, channels=1, cells=6):
    """Band-limited random image: coarse noise bilinearly upsampled."""
    grid = rng.normal(size=(cells + 2, cells + 2, channels))
    out = np.zeros((size, size, channels))
    scale = cells / size
    for i in range(size):
        for j in range(size):
            fy, fx = i * scale, j * scale
            y0, x0 = int(fy), int(fx)
            dy, dx = fy - y0, fx - x0
            out[i, j] = (
                grid[y0, x0] * (1 - dy) * (1 - dx)
                + grid[y0 + 1, x0] * dy * (1 - dx)
                + grid[y0, x0 + 1] * (1 - dy) * dx
                + grid[y0 + 1, x0 + 1] * dy * dx
            )
    return out


def hbox_pair(h):
    """An HBox with its axis-aligned OBox: the ground-truth pair of an
    upright box, whose OBB row is its HBB row at angle 0."""
    return h, OBox(*h.center, h.width, h.height, 0.0)


def hbox_detection(class_id, score, h):
    """A Detection of an upright box, holding `hbox_pair`'s two boxes."""
    return Detection(class_id, score, *hbox_pair(h))


def obox_detection(class_id, score, o):
    """A Detection of an oriented box and its axis-aligned hull."""
    return Detection(class_id, score, o.hull(), o)


def huge_checkpoint_header():
    """39 bytes of checkpoint that declare one float32 tensor of
    [2**32 - 1] ** 3 values."""
    dims = struct.pack("<III", *[2**32 - 1] * 3)
    return MAGIC + struct.pack("<III", VERSION, 1, 7) + b"param/w" + struct.pack("<I", 3) + dims
