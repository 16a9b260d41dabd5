"""Versioned binary container for named float32 tensors plus a JSON header.

Layout: 4-byte magic "LEGO" | u32 LE format version | u32 LE header length
| UTF-8 JSON header | raw payload.  The header carries arbitrary metadata
under "meta" and a tensor manifest (name, shape, byte offset) sorted by
name; the payload is the tensors' little-endian float32 bytes in manifest
order.  Serialisation is canonical (sorted keys, fixed separators), so
save(load(x)) reproduces x byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"LEGO"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Write atomically: a temp file in the same directory, fsynced, then
    renamed over `path`, so a crash leaves the old file or the new one."""
    manifest = []
    payload = bytearray()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": len(payload)})
        payload += arr.tobytes()
    header = json.dumps({"meta": meta, "tensors": manifest},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", VERSION, len(header)))
            f.write(header)
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Tensors and meta of a checkpoint; a malformed file, or one holding a
    non-finite tensor, raises CheckpointError."""
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    if len(blob) < 12:
        raise CheckpointError(f"{path}: header truncated")
    version, header_len = struct.unpack("<II", blob[4:12])
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    if 12 + header_len > len(blob):
        raise CheckpointError(f"{path}: header truncated")
    try:
        header = json.loads(blob[12:12 + header_len].decode("utf-8"))
    except ValueError as e:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path}: unreadable header ({e})") from e
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("tensors"), list)):
        raise CheckpointError(f"{path}: header needs a 'meta' object and a 'tensors' list")
    payload = blob[12 + header_len:]
    tensors: dict[str, np.ndarray] = {}
    expected = 0
    for entry in header["tensors"]:
        name, shape, start = _manifest_entry(path, entry)
        end = start + 4 * math.prod(shape)
        if end > len(payload):
            raise CheckpointError(f"{path}: payload truncated at {name!r}")
        arr = np.frombuffer(payload[start:end], dtype="<f4").reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
        tensors[name] = arr.astype(np.float32)
        expected = max(expected, end)
    if expected != len(payload):
        raise CheckpointError(f"{path}: payload length does not match manifest")
    return tensors, header["meta"]


def _manifest_entry(path, entry) -> tuple[str, tuple[int, ...], int]:
    """(name, shape, offset) of one manifest entry, each checked."""
    def count(x):
        return type(x) is int and x >= 0

    if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list) and all(map(count, entry["shape"]))
            and count(entry.get("offset"))):
        raise CheckpointError(f"{path}: malformed manifest entry {entry!r}")
    return entry["name"], tuple(entry["shape"]), entry["offset"]
