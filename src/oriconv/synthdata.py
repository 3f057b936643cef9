"""Deterministic synthetic scenes: oriented shapes on textured backgrounds
with exact box and orientation labels.

Reproducibility contract: generation is keyed by (seed, sample index, object
slot) through counter-based Philox streams, so any sample can be regenerated
in isolation. All continuous parameters are snapped to fixed-point grids
(1/8 px positions and sizes, direction cosines to 1/2^20) before any geometry
is computed, and rasterization uses 4x4 subpixel coverage counts, so the
arithmetic consists of exact dyadic operations and the output is bit-stable
across platforms. Label geometry (hulls, corners) uses the same quantized
direction vectors as the rasterizer.

Shape classes: "arrow" (unambiguous front, full 360-degree orientation),
"rect" and "ellipse". Class ids are 1-based; 0 is background.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .detect import HBox, OBox, iou_hbb
from .errors import ConfigError, ShapeError

CLASS_NAMES = ("arrow", "rect", "ellipse")
CLASS_IDS = {name: i + 1 for i, name in enumerate(CLASS_NAMES)}

_POS_Q = 8  # position/size grid: 1/8 px
_DIR_Q = 1 << 20  # direction cosine grid


@dataclass(frozen=True)
class SceneSpec:
    image_size: int = 64
    min_objects: int = 1
    max_objects: int = 3
    classes: tuple = CLASS_NAMES
    min_size: float = 12.0
    max_size: float = 26.0
    angle_range: tuple = (0.0, 360.0)  # degrees; (0, 0) pins orientation to 0
    background: tuple = (0.15, 0.45)  # intensity band of the texture
    foreground: tuple = (0.7, 0.95)
    overlap_iou: float = 0.2
    channels: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.max_objects < self.min_objects or self.min_objects < 0:
            raise ShapeError("bad object count range")
        if self.image_size < 16:
            raise ShapeError("image too small")
        for c in self.classes:
            if c not in CLASS_NAMES:
                raise ShapeError(f"unknown class {c!r}")
        if self.channels not in (1, 3):
            raise ShapeError("channels must be 1 or 3")
        for name in ("angle_range", "background", "foreground"):
            lo_hi = getattr(self, name)
            if not (isinstance(lo_hi, (tuple, list)) and len(lo_hi) == 2
                    and all(map(_finite, lo_hi)) and lo_hi[0] <= lo_hi[1]):
                raise ShapeError(f"{name} must be two finite numbers, low first, got {lo_hi!r}")
        if not (_finite(self.min_size) and _finite(self.max_size)
                and self.min_size <= self.max_size):
            raise ShapeError(
                f"min_size and max_size must be finite with min_size <= max_size, "
                f"got {self.min_size!r} and {self.max_size!r}"
            )


def _finite(value) -> bool:
    """A real number (not a bool) that is neither infinite nor NaN."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class SceneObject:
    class_name: str
    hbox: HBox
    obox: OBox
    alpha: float  # degrees in [0, 360)
    # quantized direction of the alpha axis, shared by rasterizer and labels
    ux: float = 0.0
    uy: float = 0.0
    size: float = 0.0

    @property
    def class_id(self) -> int:
        return CLASS_IDS[self.class_name]


@dataclass
class Sample:
    image: np.ndarray  # [H, W, 1 or 3] float32 in [0, 1]
    objects: list
    placement_failed: bool = False


def _rng(*key_parts) -> np.random.Generator:
    mixed = 0
    for p in key_parts:
        mixed = (mixed * 1000003 + int(p)) & ((1 << 63) - 1)
    return np.random.Generator(np.random.Philox(key=np.array([mixed, 0x9E3779B97F4A7C15], dtype=np.uint64)))


def _quant(x: float, q: int = _POS_Q) -> float:
    return round(x * q) / q


def _quant_dir(alpha_deg: float):
    a = math.radians(alpha_deg)
    ux = round(math.cos(a) * _DIR_Q) / _DIR_Q
    uy = round(-math.sin(a) * _DIR_Q) / _DIR_Q  # y grows downward
    return ux, uy


def _obox_corners_q(xc, yc, w, h, ux, uy):
    """Corners from the quantized direction pair (width axis u, height axis
    v = u rotated a quarter turn)."""
    vx, vy = -uy, ux
    pts = []
    for su, sv in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        pts.append((xc + su * 0.5 * w * ux + sv * 0.5 * h * vx,
                    yc + su * 0.5 * w * uy + sv * 0.5 * h * vy))
    return np.array(pts)


def _texture(size: int, rng: np.random.Generator, lo: float, hi: float, channels: int):
    """Smooth value noise: a coarse random grid bilinearly upsampled with
    dyadic weights, then quantized to 8-bit levels."""
    cell = 8
    gh = size // cell + 2
    grid = rng.random((gh, gh, channels))
    img = np.zeros((size, size, channels))
    ys = np.arange(size)
    g0 = ys // cell
    fy = (ys % cell) / cell
    for c in range(channels):
        rows = (
            grid[g0, :, c] * (1 - fy)[:, None] + grid[g0 + 1, :, c] * fy[:, None]
        )
        cols = (
            rows[:, g0] * (1 - fy)[None, :] + rows[:, g0 + 1] * fy[None, :]
        )
        img[:, :, c] = cols
    img = lo + (hi - lo) * img
    return np.round(img * 255.0) / 255.0


_SUB = 4  # subpixel grid per axis


def _coverage(size: int, region, inside_fn) -> np.ndarray:
    """Exact 4x4 subpixel coverage (multiples of 1/16) of `inside_fn` over the
    clipped integer region (y0, y1, x0, x1)."""
    y0, y1, x0, x1 = region
    y0 = max(y0, 0)
    x0 = max(x0, 0)
    y1 = min(y1, size)
    x1 = min(x1, size)
    if y1 <= y0 or x1 <= x0:
        return np.zeros((0, 0)), (y0, y1, x0, x1)
    offs = (np.arange(_SUB) + 0.5) / _SUB
    ys = (np.arange(y0, y1)[:, None] + offs[None, :]).reshape(-1)
    xs = (np.arange(x0, x1)[:, None] + offs[None, :]).reshape(-1)
    px, py = np.meshgrid(xs, ys)
    hits = inside_fn(px, py).astype(np.float64)
    h = y1 - y0
    w = x1 - x0
    cov = hits.reshape(h, _SUB, w, _SUB).sum(axis=(1, 3)) / (_SUB * _SUB)
    return cov, (y0, y1, x0, x1)


def _inside_shape(class_name: str, xc, yc, w, h, ux, uy):
    vx, vy = -uy, ux

    def local(px, py):
        dx = px - xc
        dy = py - yc
        return dx * ux + dy * uy, dx * vx + dy * vy

    if class_name == "rect":
        def fn(px, py):
            lx, ly = local(px, py)
            return (np.abs(lx) <= 0.5 * w) & (np.abs(ly) <= 0.5 * h)
    elif class_name == "ellipse":
        def fn(px, py):
            lx, ly = local(px, py)
            return (lx / (0.5 * w)) ** 2 + (ly / (0.5 * h)) ** 2 <= 1.0
    elif class_name == "arrow":
        # rod with a triangular head; apex at +w/2 so front != rear
        head = 0.4 * w
        body_half = 0.25 * h

        def fn(px, py):
            lx, ly = local(px, py)
            in_body = (lx >= -0.5 * w) & (lx <= 0.5 * w - head) & (np.abs(ly) <= body_half)
            frac = np.clip((0.5 * w - lx) / head, 0.0, 1.0)
            in_head = (lx > 0.5 * w - head) & (lx <= 0.5 * w) & (
                np.abs(ly) <= 0.5 * h * frac
            )
            return in_body | in_head
    else:
        raise ShapeError(f"unknown class {class_name!r}")
    return fn


def _make_object(class_name, xc, yc, size, alpha) -> SceneObject:
    xc = _quant(xc)
    yc = _quant(yc)
    size = _quant(size)
    alpha = _quant(alpha % 360.0, 64)
    ux, uy = _quant_dir(alpha)
    w = size
    h = _quant(0.5 * size)
    corners = _obox_corners_q(xc, yc, w, h, ux, uy)
    hbox = HBox(corners[:, 0].min(), corners[:, 1].min(),
                corners[:, 0].max(), corners[:, 1].max())
    obox = OBox(xc, yc, w, h, alpha)
    return SceneObject(class_name, hbox, obox, alpha, ux, uy, size)


def _render_object(img: np.ndarray, obj: SceneObject, intensity: float):
    size = img.shape[0]
    o = obj.obox
    fn = _inside_shape(obj.class_name, o.xc, o.yc, obj.size, _quant(0.5 * obj.size), obj.ux, obj.uy)
    hb = obj.hbox
    region = (int(math.floor(hb.ymin)) - 1, int(math.ceil(hb.ymax)) + 1,
              int(math.floor(hb.xmin)) - 1, int(math.ceil(hb.xmax)) + 1)
    cov, (y0, y1, x0, x1) = _coverage(size, region, fn)
    if cov.size == 0:
        return
    patch = img[y0:y1, x0:x1, :]
    blended = patch * (1.0 - cov[:, :, None]) + intensity * cov[:, :, None]
    img[y0:y1, x0:x1, :] = np.round(blended * 255.0) / 255.0


_MAX_TRIES = 25


def generate_scene(spec: SceneSpec, index: int) -> Sample:
    """Render sample `index` of the dataset described by `spec`.

    Deterministic in (spec, index). Objects overlap at most spec.overlap_iou
    by axis-aligned hull IoU; if placement fails after bounded retries the
    sample carries fewer objects and a flag.
    """
    rng = _rng(spec.seed, index)
    img = _texture(spec.image_size, rng, *spec.background, spec.channels)
    n_obj = int(rng.integers(spec.min_objects, spec.max_objects + 1))
    objects = []
    failed = False
    for slot in range(n_obj):
        orng = _rng(spec.seed, index, slot + 1)
        placed = False
        for _ in range(_MAX_TRIES):
            size = float(orng.uniform(spec.min_size, spec.max_size))
            margin = 0.80 * size  # hull half-diagonal upper bound
            if 2 * margin >= spec.image_size:
                continue
            xc = float(orng.uniform(margin, spec.image_size - margin))
            yc = float(orng.uniform(margin, spec.image_size - margin))
            a0, a1 = spec.angle_range
            alpha = a0 if a0 == a1 else float(orng.uniform(a0, a1))
            cname = spec.classes[int(orng.integers(0, len(spec.classes)))]
            obj = _make_object(cname, xc, yc, size, alpha)
            hb = obj.hbox
            if hb.xmin < 0 or hb.ymin < 0 or hb.xmax > spec.image_size or hb.ymax > spec.image_size:
                continue
            if any(iou_hbb(hb, other.hbox) > spec.overlap_iou for other in objects):
                continue
            intensity = _quant(float(orng.uniform(*spec.foreground)), 256)
            _render_object(img, obj, intensity)
            objects.append(obj)
            placed = True
            break
        if not placed:
            failed = True
    return Sample(img.astype(np.float32), objects, failed)


def generate_orientation_patches(spec: SceneSpec, count: int, patch_size: int = 80):
    """(patch, alpha_degrees) pairs, one centered arrow per square patch."""
    out = []
    for i in range(count):
        rng = _rng(spec.seed, i, 0xA11)
        img = _texture(patch_size, rng, *spec.background, spec.channels)
        size = float(rng.uniform(0.42 * patch_size, 0.58 * patch_size))
        a0, a1 = spec.angle_range
        alpha = a0 if a0 == a1 else float(rng.uniform(a0, a1))
        c = patch_size / 2.0
        obj = _make_object("arrow", c, c, size, alpha)
        intensity = _quant(float(rng.uniform(*spec.foreground)), 256)
        _render_object(img, obj, intensity)
        out.append((img.astype(np.float32), obj.alpha))
    return out


# ---------------------------------------------------------------------------
# augmentation


def augment(sample: Sample, ops: dict) -> Sample:
    """Apply {rotate_quarters: k, hflip: bool} with consistent label
    transport: boxes, orientations and direction vectors move with the image.
    Any other key raises ConfigError."""
    unknown = set(ops) - {"rotate_quarters", "hflip"}
    if unknown:
        raise ConfigError(f"unknown augment ops {sorted(unknown)}")
    img = sample.image
    objects = list(sample.objects)

    k = int(ops.get("rotate_quarters", 0)) % 4
    for _ in range(k):
        w_img = img.shape[1]
        img = np.rot90(img).copy()
        new_objs = []
        for o in objects:
            hb = o.hbox
            nh = HBox(hb.ymin, w_img - hb.xmax, hb.ymax, w_img - hb.xmin)
            ob = o.obox
            nxc, nyc = ob.yc, w_img - ob.xc
            nalpha = (o.alpha + 90.0) % 360.0
            nob = OBox(nxc, nyc, ob.w, ob.h, ob.theta + 90.0)
            ux, uy = _quant_dir(nalpha)
            new_objs.append(SceneObject(o.class_name, nh, nob, nalpha, ux, uy, o.size))
        objects = new_objs

    if ops.get("hflip"):
        w_img = img.shape[1]
        img = img[:, ::-1, :].copy()
        new_objs = []
        for o in objects:
            hb = o.hbox
            nh = HBox(w_img - hb.xmax, hb.ymin, w_img - hb.xmin, hb.ymax)
            ob = o.obox
            nalpha = (180.0 - o.alpha) % 360.0
            nob = OBox(w_img - ob.xc, ob.yc, ob.w, ob.h, -ob.theta)
            ux, uy = _quant_dir(nalpha)
            new_objs.append(SceneObject(o.class_name, nh, nob, nalpha, ux, uy, o.size))
        objects = new_objs

    return Sample(img, objects, sample.placement_failed)


# ---------------------------------------------------------------------------
# on-disk format: binary PGM/PPM images plus a JSON-record labels file


def write_image(path: str, img: np.ndarray) -> None:
    """Write [H,W,1] as binary PGM (P5) or [H,W,3] as binary PPM (P6)."""
    h, w, c = img.shape
    data = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        if c == 1:
            fh.write(f"P5\n{w} {h}\n255\n".encode())
            fh.write(data[:, :, 0].tobytes())
        elif c == 3:
            fh.write(f"P6\n{w} {h}\n255\n".encode())
            fh.write(data.tobytes())
        else:
            raise ShapeError(f"cannot write {c}-channel image")


def read_image(path: str) -> np.ndarray:
    """Read a binary PGM/PPM image, one byte per sample, as [H, W, C] float32
    in [0, 1]; a malformed header or truncated pixel data raises ShapeError."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic not in (b"P5", b"P6"):
            raise ShapeError(f"unsupported image format {magic!r} in {path}")
        dims = fh.readline().split()
        while dims and dims[0].startswith(b"#"):
            dims = fh.readline().split()
        try:
            w, h = (int(d) for d in dims)
            maxval = int(fh.readline())
        except ValueError:
            raise ShapeError(f"{path}: unreadable image header") from None
        if min(w, h) < 1 or not 1 <= maxval <= 255:
            raise ShapeError(f"{path}: size {w}x{h} is empty or maxval {maxval} not in 1..255")
        c = 1 if magic == b"P5" else 3
        raw = np.frombuffer(fh.read(h * w * c), dtype=np.uint8)
    if raw.size != h * w * c:
        raise ShapeError(f"{path} is truncated: {raw.size} of {h * w * c} pixel bytes")
    return raw.reshape(h, w, c).astype(np.float32) / maxval


def object_record(o: SceneObject) -> dict:
    return {
        "class": o.class_name,
        "hbb": [o.hbox.xmin, o.hbox.ymin, o.hbox.xmax, o.hbox.ymax],
        "obb": [o.obox.xc, o.obox.yc, o.obox.w, o.obox.h, o.obox.theta],
        "alpha": o.alpha,
    }


def object_from_record(rec: dict) -> SceneObject:
    if rec["class"] not in CLASS_IDS:
        raise ValueError(f"unknown class {rec['class']!r}, not one of {', '.join(CLASS_NAMES)}")
    hb = HBox(*rec["hbb"])
    ob = OBox(*rec["obb"])
    alpha = float(rec["alpha"])
    ux, uy = _quant_dir(alpha)
    return SceneObject(rec["class"], hb, ob, alpha, ux, uy, ob.w)


def write_dataset(out_dir: str, spec: SceneSpec, count: int) -> None:
    """Write `count` scenes: images/ plus labels.jsonl (one record per image)
    and meta.json echoing the generating spec. ShapeError, before anything is
    written, when `count` is negative."""
    if count < 0:
        raise ShapeError(f"scene count must be >= 0, got {count}")
    img_dir = os.path.join(out_dir, "images")
    os.makedirs(img_dir, exist_ok=True)
    records = []
    for i in range(count):
        sample = generate_scene(spec, i)
        ext = "pgm" if spec.channels == 1 else "ppm"
        fname = f"scene_{i:05d}.{ext}"
        write_image(os.path.join(img_dir, fname), sample.image)
        records.append(
            {
                "file": f"images/{fname}",
                "objects": [object_record(o) for o in sample.objects],
                "placement_failed": sample.placement_failed,
            }
        )
    with open(os.path.join(out_dir, "labels.jsonl"), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump({"spec": asdict(spec), "count": count, "classes": list(CLASS_NAMES)}, fh, indent=2)


def load_dataset(root: str):
    """Read a written dataset back as a list of Samples.

    A missing or unreadable `labels.jsonl` or image, a line that is not a
    JSON object with a `file` string and `objects`, and a malformed object
    record raise ConfigError naming the file and line; a malformed image
    raises ShapeError (`read_image`)."""
    labels = os.path.join(root, "labels.jsonl")
    try:
        with open(labels, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read dataset labels {labels}: {e}") from None
    samples = []
    for n, line in enumerate(lines, 1):
        if not line.strip():
            continue
        where = f"{labels} line {n}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{where} is not valid JSON: {e}") from None
        if not (isinstance(rec, dict) and isinstance(rec.get("file"), str) and "objects" in rec):
            raise ConfigError(f"{where} must be an object with a 'file' string and 'objects'")
        image = os.path.join(root, rec["file"])
        try:
            img = read_image(image)
        except OSError as e:
            raise ConfigError(f"{where}: cannot read image {image}: {e.strerror or e}") from None
        try:
            objs = [object_from_record(r) for r in rec["objects"]]
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"{where}: malformed object record ({e!r})") from None
        samples.append(Sample(img, objs, rec.get("placement_failed", False)))
    return samples
