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
import struct
import zlib

import numpy as np

from .errors import ConfigError

MAGIC = b"ORIC"
VERSION = 1


def config_hash(config: dict) -> int:
    return zlib.crc32(json.dumps(config, sort_keys=True).encode())


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    data = np.ascontiguousarray(arr, dtype="<f4")
    nb = name.encode()
    fh.write(struct.pack("<I", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<I", data.ndim))
    for d in data.shape:
        fh.write(struct.pack("<I", d))
    fh.write(data.tobytes())


def save_checkpoint(path: str, tensors: dict, step: int, config: dict) -> None:
    """Write named float arrays plus step and config-hash metadata."""
    h = config_hash(config)
    full = dict(tensors)
    full["meta/step"] = np.array([float(step)], dtype=np.float32)
    full["meta/config_hash_lo"] = np.array([float(h & 0xFFFF)], dtype=np.float32)
    full["meta/config_hash_hi"] = np.array([float(h >> 16)], dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(full)))
        for name in sorted(full):
            _write_tensor(fh, name, full[name])


def _read(fh, n: int, path: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ConfigError(f"{path} is truncated (wanted {n} bytes, got {len(data)})")
    return data


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
            n = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(_read(fh, 4 * n, path), dtype="<f4").reshape(shape)
            tensors[name] = data.copy()
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
    """Load parameters and state back into a network; returns the momenta."""
    params = network.params()
    state = network.state()
    momenta = {}
    for name, arr in tensors.items():
        kind, _, key = name.partition("/")
        if kind == "param":
            if key not in params:
                raise ConfigError(f"checkpoint has unknown parameter {key!r}")
            params[key][...] = arr.astype(params[key].dtype)
        elif kind == "state":
            state[key][...] = arr.astype(state[key].dtype)
        elif kind == "momentum":
            momenta[key] = arr.astype(np.float32)
    network.apply_constraints()
    return momenta
