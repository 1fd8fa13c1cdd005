"""Versioned checkpoint container: named tensors plus a config snapshot.

Layout (all little-endian): magic ``AVCK``, u32 format version, u32 config
byte length + UTF-8 config text, u32 tensor count, then per tensor sorted by
name: u16 name length + UTF-8 name, u8 rank, rank u32 extents, and the payload
in ``featio``'s storage format, which that module alone encodes and decodes.
Serialization is canonical, so save(load(x)) reproduces x byte for byte.  The
reader rejects names that are not strictly increasing (so no name given twice),
ranks outside 1..3 and NaN or Inf values; the writer refuses those ranks and
values before any file exists.  A save goes through ``featio.replace_file``, so a
failed save leaves any previous file at that path intact.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from avfuse.featio import BadMagicError, FeatureFileError, TruncatedPayloadError, narrow, replace_file, widen

CHECKPOINT_MAGIC = b"AVCK"
CHECKPOINT_VERSION = 1


class CheckpointError(FeatureFileError):
    """Structurally invalid checkpoint file."""


def save_checkpoint(path, tensors: dict[str, np.ndarray], config_text: str) -> None:
    blob = config_text.encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(blob)), blob,
             struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype=np.float64)
        if not 1 <= arr.ndim <= 3:
            raise CheckpointError(f"{path}: tensor {name!r} has rank {arr.ndim}")
        stored = narrow(arr, f"{path}: tensor {name!r}", CheckpointError)
        encoded = name.encode("utf-8")
        parts.append(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim,
                                 *arr.shape))
        parts.append(stored)
    replace_file(path, b"".join(parts))


def _utf8(raw: bytes, path, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: {what} is not UTF-8 ({exc.reason})") from exc


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    """Read tensors (widened to float64) and the config snapshot text.  Payload lengths are
    compared in Python ints, so extents whose product wraps an int64 read as truncated."""
    blob = Path(path).read_bytes()
    if len(blob) >= 4 and blob[:4] != CHECKPOINT_MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint file")
    tensors: dict[str, np.ndarray] = {}
    try:
        version, size = struct.unpack_from("<II", blob, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        config, count = struct.unpack_from(f"<{size}sI", blob, 12)
        config_text = _utf8(config, path, "config snapshot")
        offset = 16 + size
        for _ in range(count):
            (length,) = struct.unpack_from("<H", blob, offset)
            encoded, rank = struct.unpack_from(f"<{length}sB", blob, offset + 2)
            name = _utf8(encoded, path, "tensor name")
            previous = next(reversed(tensors), None)
            if previous is not None and name <= previous:
                raise CheckpointError(f"{path}: tensor names not strictly increasing: "
                                      f"{previous!r} then {name!r}")
            if not 1 <= rank <= 3:
                raise CheckpointError(f"{path}: tensor {name!r} has rank {rank}")
            shape = struct.unpack_from(f"<{rank}I", blob, offset + 3 + length)
            offset += 3 + length + 4 * rank
            end = offset + 4 * math.prod(shape)
            if end > len(blob):
                raise TruncatedPayloadError(f"{path}: checkpoint truncated")
            tensors[name] = widen(blob, offset, shape, f"{path}: tensor {name!r}", CheckpointError)
            offset = end
    except struct.error:
        raise TruncatedPayloadError(f"{path}: checkpoint truncated") from None
    if offset != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return tensors, config_text
