"""On-disk formats: the storage codec, feature matrices, trial lists, dataset manifests.

This module alone knows how arrays are stored, in feature files and in
checkpoints (``avfuse.checkpoint`` keeps only its container layout): as
IEEE-754 single-precision little-endian values, widened to double precision in
memory.  Feature files carry one real matrix: magic ``AVF1``, two little-endian
u32 extents (rows, cols), then the rows*cols values in row-major order.
One file per modality per utterance: ``<id>.audio.avf`` / ``<id>.visual.avf``,
each read whole by one unbuffered read, from paths built once per dataset.
Trial-list and manifest rows are ``NamedTuple``s, so a row costs what a
3-tuple costs and a list of them flattens in one pass.  An utterance id names
its files, so it holds no path separator.  Every writer refuses, before
opening its file, what its reader would refuse or change.
"""

from __future__ import annotations

import math
import os
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

FEATURE_MAGIC = b"AVF1"
_HEADER = struct.Struct("<4sII")

# Guard against absurd headers before attempting a huge allocation.
_MAX_ELEMENTS = 1 << 31


class FeatureFileError(IOError):
    """Base class for feature-file format violations."""


class BadMagicError(FeatureFileError):
    """File does not start with the expected magic bytes."""


class TruncatedPayloadError(FeatureFileError):
    """Payload shorter than the extents in the header declare."""


class ExtentError(FeatureFileError):
    """Header extents are zero or overflow sane limits."""


def narrow(values, what: str, error: type = FeatureFileError) -> bytes:
    """The stored bytes of ``values``, little-endian single precision, screened as ``widen`` screens."""
    with np.errstate(over="ignore"):
        return _screened(np.asarray(values, dtype=np.float64).astype("<f4"), what, error).tobytes()


def single_precision(values, what: str, error: type = FeatureFileError) -> np.ndarray:
    """``values`` rounded to storage precision and widened back, bitwise a save and reload."""
    return np.frombuffer(narrow(values, what, error), "<f4").astype(np.float64).reshape(np.shape(values))


def widen(blob, offset: int, shape: tuple[int, ...], what: str, error: type = FeatureFileError) -> np.ndarray:
    """The stored values of ``shape`` at byte ``offset`` of ``blob``, which the caller has checked
    it holds, widened to float64; a NaN or Inf raises ``error`` naming ``what`` and its index."""
    return _screened(np.frombuffer(blob, "<f4", math.prod(shape), offset).astype(np.float64).reshape(shape),
                     what, error)


def _screened(values: np.ndarray, what: str, error: type) -> np.ndarray:
    # A sum of squares is non-finite if a value is, or if single-precision squares
    # overflow, and one dot product is the cheapest such sum; only then are the values searched.
    flat = values.reshape(-1)
    bad = () if math.isfinite(flat.dot(flat)) else np.argwhere(~np.isfinite(values))
    if len(bad):
        index = tuple(int(i) for i in bad[0])
        raise error(f"{what}: {values[index]} at index {index} is not a finite single-precision value")
    return values


def save_features(path, matrix: np.ndarray) -> None:
    """Write a rank-2 real matrix as a single-precision feature file."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or not 0 < arr.size <= _MAX_ELEMENTS:
        raise FeatureFileError(f"{path}: feature matrix must be rank 2 with usable extents, got {arr.shape}")
    payload = narrow(arr, str(path))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FEATURE_MAGIC, *arr.shape))
        fh.write(payload)


def load_features(path) -> np.ndarray:
    """Read a feature file back as float64, validating magic, extents, payload and finiteness.

    One unbuffered ``readall`` reads the file to its end.
    """
    with open(path, "rb", buffering=0) as fh:
        blob = fh.readall()
    if len(blob) < _HEADER.size:
        raise TruncatedPayloadError(f"{path}: file shorter than header")
    magic, rows, cols = _HEADER.unpack_from(blob)
    if magic != FEATURE_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if rows == 0 or cols == 0 or rows * cols > _MAX_ELEMENTS:
        raise ExtentError(f"{path}: unusable extents {rows}x{cols}")
    expected = _HEADER.size + 4 * rows * cols
    if len(blob) < expected:
        raise TruncatedPayloadError(
            f"{path}: header declares {rows}x{cols} values but payload is short"
        )
    if len(blob) > expected:
        raise FeatureFileError(f"{path}: {len(blob) - expected} trailing bytes")
    return widen(blob, _HEADER.size, (rows, cols), path)


# ---------------------------------------------------------------------------
# Trial lists
# ---------------------------------------------------------------------------


class TrialParseError(ValueError):
    """Malformed trial-list or manifest text; message carries the file and line number."""


def text_lines(path) -> list[str]:
    """Lines of a UTF-8 text file (universal newlines); undecodable bytes raise ``TrialParseError``."""
    try:
        return Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise TrialParseError(f"{path}: not UTF-8 text at byte {exc.start}") from exc


class TrialPair(NamedTuple):
    """One verification trial: same-speaker (target) or not."""

    is_target: bool
    enroll_id: str
    test_id: str


def parse_trial_list(path) -> list[TrialPair]:
    """Parse `label enroll_id test_id` lines, label 1 = target, 0 = nontarget."""
    trials = []
    for lineno, raw in enumerate(text_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise TrialParseError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
        label, enroll_id, test_id = parts
        if label not in ("0", "1"):
            raise TrialParseError(f"{path}: line {lineno}: label must be 0 or 1, got {label!r}")
        trials.append(TrialPair(label == "1", enroll_id, test_id))
    return trials


def _refuse(path, values, bad, message: str) -> None:
    """Raise ``TrialParseError`` with ``message`` formatted by the first distinct ``bad`` value."""
    for v in dict.fromkeys(values):
        if bad(v):
            raise TrialParseError(f"{path}: {message.format(v)}")


def write_trial_list(path, trials) -> None:
    """Write `label enroll_id test_id` lines; a label is 0 or 1, an id one whitespace-free token."""
    trials = list(trials)
    _refuse(path, (t[0] for t in trials), lambda v: v not in (0, 1), "label must be 0 or 1, got {!r}")
    _refuse(path, (u for t in trials for u in t[1:]), lambda u: u.split() != [u],
            "id {!r} is empty or holds whitespace")
    with open(path, "w", encoding="utf-8") as fh:
        for t in trials:
            fh.write(f"{int(t.is_target)} {t.enroll_id} {t.test_id}\n")


# ---------------------------------------------------------------------------
# Dataset manifest and loading
# ---------------------------------------------------------------------------


class ManifestEntry(NamedTuple):
    utt_id: str
    speaker_id: str
    split: str  # "train" or "eval"


@dataclass
class Utterance:
    """Per-segment features of both modalities for one utterance."""

    utt_id: str
    speaker_id: str
    audio: np.ndarray   # audio_dim x segments
    visual: np.ndarray  # visual_dim x segments


def write_manifest(path, entries) -> None:
    """Write `utt_id<TAB>speaker_id<TAB>split` rows: unique utterance ids without a path
    separator, splits `train` or `eval`, and ids that are non-empty, without tab or line
    break, and unpadded by whitespace."""
    entries = list(entries)
    _refuse(path, (u for e in entries for u in e[:2]),
            lambda u: not u or u != u.strip() or any(c in u for c in "\t\n\r"),
            "id {!r} is empty, holds a tab or line break, or has leading or trailing whitespace")
    rows = Counter(e[0] for e in entries)
    _refuse(path, rows, lambda u: rows[u] > 1, "duplicate utterance id {!r}")
    _refuse(path, rows, lambda u: "/" in u or "\\" in u, "utterance id {!r} holds a path separator")
    _refuse(path, (e[2] for e in entries), lambda v: v not in ("train", "eval"),
            "split must be train or eval, got {!r}")
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(f"{e.utt_id}\t{e.speaker_id}\t{e.split}\n")


def read_manifest(path) -> list[ManifestEntry]:
    entries = []
    seen = set()
    for lineno, raw in enumerate(text_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3 or parts[2] not in ("train", "eval"):
            raise TrialParseError(f"{path}: line {lineno}: malformed manifest row")
        if "" in parts:
            raise TrialParseError(f"{path}: line {lineno}: empty field in manifest row")
        if "/" in parts[0] or "\\" in parts[0]:
            raise TrialParseError(f"{path}: line {lineno}: utterance id {parts[0]!r} holds a path separator")
        if parts[0] in seen:
            raise TrialParseError(f"{path}: line {lineno}: duplicate utterance id {parts[0]!r}")
        seen.add(parts[0])
        entries.append(ManifestEntry(*parts))
    return entries


def load_dataset(data_dir) -> dict[str, Utterance]:
    """Load every manifest utterance's feature pair; both modalities must agree on segments.

    Each file's path is the ``feats`` prefix, joined once as a string, plus its name.
    """
    data_dir = Path(data_dir)
    feats = os.path.join(data_dir, "feats", "")
    utterances = {}
    for entry in read_manifest(data_dir / "manifest.tsv"):
        audio = load_features(f"{feats}{entry.utt_id}.audio.avf")
        visual = load_features(f"{feats}{entry.utt_id}.visual.avf")
        if audio.shape[1] != visual.shape[1]:
            raise FeatureFileError(
                f"{entry.utt_id}: segment counts disagree ({audio.shape[1]} vs {visual.shape[1]})"
            )
        utterances[entry.utt_id] = Utterance(entry.utt_id, entry.speaker_id, audio, visual)
    return utterances


def manifest_entries(data_dir) -> list[ManifestEntry]:
    return read_manifest(Path(data_dir) / "manifest.tsv")
