"""Versioned binary checkpoints.

Layout: magic bytes "ORIC", format version (u32 little-endian), then a u32
tensor count followed by length-prefixed named tensors: u32 name length,
UTF-8 name, u32 rank, u32 dims, raw little-endian float32 data. Tensor names
are written in sorted order, so save -> load -> save is byte-identical.

Alongside parameters the file stores running statistics ("state/..."),
optimizer momenta ("momentum/...") and metadata scalars ("meta/step",
"meta/config_hash_lo", "meta/config_hash_hi" -- the CRC32 of the canonical
config JSON split into two 16-bit halves so each is exact in float32).
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

from .errors import ConfigError, NumericalError

MAGIC = b"ORIC"
VERSION = 1


def config_hash(config: dict) -> int:
    return zlib.crc32(json.dumps(config, sort_keys=True).encode())


def _float32(name: str, arr: np.ndarray) -> np.ndarray:
    """`arr` as the little-endian float32 the file holds; NumericalError if a
    value is not finite there (a NaN, or one that overflows the cast)."""
    with np.errstate(over="ignore", invalid="ignore"):
        data = np.ascontiguousarray(arr, dtype="<f4")
    if not np.isfinite(data).all():
        raise NumericalError(f"tensor {name!r} holds non-finite values as float32")
    return data


def _write_tensor(fh, name: str, data: np.ndarray) -> None:
    nb = name.encode()
    fh.write(struct.pack("<I", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<I", data.ndim))
    for d in data.shape:
        fh.write(struct.pack("<I", d))
    fh.write(data.tobytes())


def save_checkpoint(path: str, tensors: dict, step: int, config: dict) -> None:
    """Write named float arrays plus step and config-hash metadata. A tensor
    that is not finite in float32 raises NumericalError before the file is
    opened."""
    h = config_hash(config)
    full = dict(tensors)
    full["meta/step"] = np.array([float(step)], dtype=np.float32)
    full["meta/config_hash_lo"] = np.array([float(h & 0xFFFF)], dtype=np.float32)
    full["meta/config_hash_hi"] = np.array([float(h >> 16)], dtype=np.float32)
    data = {name: _float32(name, full[name]) for name in sorted(full)}
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(data)))
        for name, arr in data.items():
            _write_tensor(fh, name, arr)


def _read(fh, n: int, path: str) -> bytes:
    """The next `n` bytes; ConfigError, before any are read, if fewer are
    left, so no header can make the reader allocate more than the file."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ConfigError(f"{path} is truncated (wanted {n} bytes, got {left})")
    return fh.read(n)


def _read_u32(fh, path: str) -> int:
    return struct.unpack("<I", _read(fh, 4, path))[0]


def load_checkpoint(path: str):
    """Read back (tensors, step, config_hash); a malformed or truncated file
    raises ConfigError."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ConfigError(f"{path} is not a checkpoint (bad magic)")
        version = _read_u32(fh, path)
        if version != VERSION:
            raise ConfigError(f"unsupported checkpoint version {version}")
        count = _read_u32(fh, path)
        tensors = {}
        for _ in range(count):
            nlen = _read_u32(fh, path)
            name = _read(fh, nlen, path).decode()
            rank = _read_u32(fh, path)
            shape = tuple(_read_u32(fh, path) for _ in range(rank))
            data = np.frombuffer(_read(fh, 4 * math.prod(shape), path), dtype="<f4")
            tensors[name] = data.reshape(shape).copy()
    step = int(tensors.pop("meta/step")[0])
    lo = int(tensors.pop("meta/config_hash_lo")[0])
    hi = int(tensors.pop("meta/config_hash_hi")[0])
    return tensors, step, (hi << 16) | lo


def network_tensors(network, momenta: dict | None = None) -> dict:
    """Collect every persistent array of a network for checkpointing."""
    out = {}
    for k, v in network.params().items():
        out[f"param/{k}"] = v
    for k, v in network.state().items():
        out[f"state/{k}"] = v
    if momenta:
        for k, v in momenta.items():
            out[f"momentum/{k}"] = v
    return out


def restore_network(network, tensors: dict) -> dict:
    """Load parameters and state back into a network; returns the momenta.
    The `param/` and `state/` tensors must be exactly the network's, name for
    name and shape for shape; any mismatch raises ConfigError before anything
    is written."""
    want = network_tensors(network)
    got = {k: v for k, v in tensors.items() if k.startswith(("param/", "state/"))}
    missing, unknown = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    if missing or unknown:
        raise ConfigError(f"checkpoint does not fit the network: missing {missing}, "
                          f"unknown {unknown}")
    for name, arr in got.items():
        if arr.shape != want[name].shape:
            raise ConfigError(f"checkpoint tensor {name} has shape {arr.shape}, "
                              f"the network wants {want[name].shape}")
    for name, arr in got.items():
        want[name][...] = arr.astype(want[name].dtype)
    return {
        k[len("momentum/"):]: v.astype(np.float32)
        for k, v in tensors.items() if k.startswith("momentum/")
    }
