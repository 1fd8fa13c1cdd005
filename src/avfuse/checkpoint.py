"""Versioned checkpoint container: named tensors plus a config snapshot.

Layout (all little-endian): magic ``AVCK``, u32 format version, u32 config
byte length + UTF-8 config text, u32 tensor count, then per tensor sorted by
name: u16 name length + UTF-8 name, u8 rank, rank u32 extents, and the
single-precision payload.  Serialization is canonical, so save(load(x))
reproduces x byte for byte.  The reader rejects tensor names that are not
strictly increasing (which rules out a name given twice) and tensors holding
NaN or Inf.  A save writes a temporary file in the target's directory and
renames it over the target, so a failed save leaves any previous file at that
path intact.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from avfuse.featio import BadMagicError, FeatureFileError, TruncatedPayloadError

CHECKPOINT_MAGIC = b"AVCK"
CHECKPOINT_VERSION = 1


class CheckpointError(FeatureFileError):
    """Structurally invalid checkpoint file."""


def save_checkpoint(path, tensors: dict[str, np.ndarray], config_text: str) -> None:
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    blob = config_text.encode("utf-8")
    parts.append(struct.pack("<I", len(blob)))
    parts.append(blob)
    parts.append(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype("<f4").tobytes(order="C"))
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(parts))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.offset = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.blob):
            raise TruncatedPayloadError(f"{self.path}: checkpoint truncated")
        piece = self.blob[self.offset:self.offset + n]
        self.offset += n
        return piece

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{self.path}: {what} is not UTF-8 ({exc.reason})") from exc


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    """Read tensors (widened to float64) and the config snapshot text."""
    reader = _Reader(Path(path).read_bytes(), path)
    if reader.take(4) != CHECKPOINT_MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint file")
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    config_text = reader.text(reader.u32(), "config snapshot")
    tensors: dict[str, np.ndarray] = {}
    previous = None
    for _ in range(reader.u32()):
        name = reader.text(struct.unpack("<H", reader.take(2))[0], "tensor name")
        if previous is not None and name <= previous:
            raise CheckpointError(f"{path}: tensor names not strictly increasing: "
                                  f"{previous!r} then {name!r}")
        previous = name
        rank = struct.unpack("<B", reader.take(1))[0]
        if not 1 <= rank <= 3:
            raise CheckpointError(f"{path}: tensor {name!r} has rank {rank}")
        shape = struct.unpack(f"<{rank}I", reader.take(4 * rank))
        count = math.prod(shape)  # Python ints: extents cannot wrap around
        values = np.frombuffer(reader.take(4 * count), dtype="<f4").astype(np.float64)
        # As in load_features: squares of widened single-precision values
        # cannot overflow a double sum, so one sum of squares screens the tensor.
        if not math.isfinite(values.dot(values)):
            raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")
        tensors[name] = values.reshape(shape)
    if reader.offset != len(reader.blob):
        raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return tensors, config_text


def quantize_like_checkpoint(arr: np.ndarray) -> np.ndarray:
    """Round-trip through the on-disk precision so memory matches a reload exactly."""
    return np.asarray(arr, dtype=np.float64).astype("<f4").astype(np.float64)
