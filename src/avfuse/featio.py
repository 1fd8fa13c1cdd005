"""On-disk formats: the storage codec, feature matrices, trial lists, dataset manifests.

This module alone knows how arrays are stored, in feature files and in
checkpoints (``avfuse.checkpoint`` keeps only its container layout): as
IEEE-754 single-precision little-endian values, widened to double precision in
memory.  Feature files carry one real matrix: magic ``AVF1``, two little-endian
u32 extents (rows, cols), then the rows*cols values in row-major order.
One file per modality per utterance: ``<id>.audio.avf`` / ``<id>.visual.avf``,
each read whole by raw ``os`` calls; a dataset widens and screens all at once.
Trial-list and manifest rows are ``NamedTuple``s, so a row costs what a
3-tuple costs and a list of them flattens in one pass.  An utterance id names
its files, so it holds no path separator.  Every writer refuses, before
opening its file, what its reader would refuse or change.  ``replace_file`` is
the one atomic write, of feature and embedding files, checkpoints, scores
files, trial lists, manifests and the training log.
"""

from __future__ import annotations

import itertools
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


def replace_file(path, data: bytes) -> None:
    """Write ``data`` to a temporary file in ``path``'s directory and rename it over ``path``:
    a failed write leaves any previous file at ``path`` intact and no temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_features(path, matrix: np.ndarray) -> None:
    """Write a rank-2 real matrix as a single-precision feature file."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or not 0 < arr.size <= _MAX_ELEMENTS:
        raise FeatureFileError(f"{path}: feature matrix must be rank 2 with usable extents, got {arr.shape}")
    replace_file(path, _HEADER.pack(FEATURE_MAGIC, *arr.shape) + narrow(arr, str(path)))


def _read(path) -> tuple[memoryview, tuple[int, int]]:
    """A feature file's checked payload and (rows, cols), read by raw ``os`` calls."""
    fd = os.open(path, os.O_RDONLY)
    try:
        blob = os.read(fd, size := os.fstat(fd).st_size)
        while len(blob) < size and (more := os.read(fd, size - len(blob))):
            blob += more  # one read returns at most about 2 GB
    except OSError as exc:  # a failed open names its file, a failed read does not
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
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
    return memoryview(blob)[_HEADER.size:], (rows, cols)


def load_features(path) -> np.ndarray:
    """Read a feature file back as float64, validating magic, extents, payload and finiteness."""
    payload, shape = _read(path)
    return widen(payload, 0, shape, path)


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
    lines = (f"{int(t.is_target)} {t.enroll_id} {t.test_id}\n" for t in trials)
    replace_file(path, "".join(lines).encode("utf-8"))


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
    lines = (f"{e.utt_id}\t{e.speaker_id}\t{e.split}\n" for e in entries)
    replace_file(path, "".join(lines).encode("utf-8"))


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

    One pass reads and checks every file in manifest order, so a structural fault is raised
    before a non-finite value in an earlier file.  Then one widening decodes all payloads into
    C-contiguous float64 views, bitwise ``load_features``'s, and one sum of squares screens them:
    single-precision squares cannot overflow it, so only a NaN or Inf makes it non-finite, and
    only then does ``load_features`` load each file again to name the value and its index.
    """
    data_dir = Path(data_dir)
    feats = os.path.join(data_dir, "feats", "")
    entries = read_manifest(data_dir / "manifest.tsv")
    paths = [f"{feats}{e.utt_id}.{modality}.avf" for e in entries for modality in ("audio", "visual")]
    payloads, shapes = [], []
    for entry, audio_path, visual_path in zip(entries, paths[0::2], paths[1::2]):
        (audio, a_shape), (visual, v_shape) = _read(audio_path), _read(visual_path)
        if a_shape[1] != v_shape[1]:
            raise FeatureFileError(f"{entry.utt_id}: segment counts disagree ({a_shape[1]} vs {v_shape[1]})")
        payloads += audio, visual
        shapes += a_shape, v_shape
    values = np.frombuffer(b"".join(payloads), "<f4").astype(np.float64)
    if not math.isfinite(values.dot(values)):
        for path in paths:
            load_features(path)
        raise FeatureFileError(f"{data_dir}: feature files changed while the dataset loaded")
    ends = itertools.accumulate(map(math.prod, shapes))
    arrays = (values[end - math.prod(shape):end].reshape(shape) for end, shape in zip(ends, shapes))
    return {e.utt_id: Utterance(e.utt_id, e.speaker_id, next(arrays), next(arrays)) for e in entries}


def manifest_entries(data_dir) -> list[ManifestEntry]:
    return read_manifest(Path(data_dir) / "manifest.tsv")
