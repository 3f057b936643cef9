import math

import numpy as np
import pytest
from hypothesis import settings

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


def max_pool_oracle(x, w):
    h, wd, c = x.shape
    ho, wo = h // w, wd // w
    out = np.zeros((ho, wo, c), dtype=x.dtype)
    for i in range(ho):
        for j in range(wo):
            for k in range(c):
                out[i, j, k] = x[i * w : (i + 1) * w, j * w : (j + 1) * w, k].max()
    return out


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
