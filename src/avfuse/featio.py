"""On-disk formats: the storage codec, feature matrices, trial lists, dataset manifests.

This module alone knows how arrays are stored, in feature files and in
checkpoints (``avfuse.checkpoint`` keeps only its container layout): as
IEEE-754 single-precision little-endian values, widened to double precision in
memory; ``decode`` gives a writer what it stored.  Feature files carry one real
matrix: magic ``AVF1``, two little-endian u32 extents (rows, cols), then the
rows*cols values in row-major order.
A dataset is ``manifest.tsv`` and ``feats/<id>.audio.avf`` / ``<id>.visual.avf``,
written by ``write_dataset`` and read back by ``load_dataset``, each file whole by
raw ``os`` calls, then widened and screened all at once.
Trial-list and manifest rows are ``NamedTuple``s, so a row costs what a
3-tuple costs and a list of them flattens in one pass.  An utterance id names
its files and its trials, so it is one whitespace-free token without a path
separator.  Every writer refuses, before opening its file, what its reader
would refuse or change, and every reader refuses what its writer would, so a
manifest that loads can be written back; ``write_dataset`` checks every file
before it writes one.  ``refuse_unnamed`` keeps ``write_dataset``, ``train`` and
``embed`` from writing beside earlier outputs they would not overwrite.
``replace_file`` is the one atomic write, of feature and embedding files,
checkpoints, scores files, trial lists, manifests and the training log.
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


def decode(blob, offset: int, shape: tuple[int, ...]) -> np.ndarray:
    """The stored values of ``shape`` at byte ``offset`` of ``blob`` as fresh float64, unscreened."""
    return np.frombuffer(blob, "<f4", math.prod(shape), offset).astype(np.float64).reshape(shape)


def widen(blob, offset: int, shape: tuple[int, ...], what: str, error: type = FeatureFileError) -> np.ndarray:
    """``decode`` values the caller has checked ``blob`` holds and screen them, as ``narrow`` screens
    what it stores: a NaN or Inf raises ``error`` naming ``what`` and its index."""
    return _screened(decode(blob, offset, shape), what, error)


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


def refuse_unnamed(directory, suffix: str, names, message: str) -> None:
    """Refuse a ``directory`` holding a file ending in ``suffix`` not in ``names``, which a reader would
    take for the run's: the first, in name order, raises ``FeatureFileError`` naming it, then ``message``."""
    stale = sorted(p for p in Path(directory).glob(f"*{suffix}") if p.name not in names)
    if stale:
        raise FeatureFileError(f"{stale[0]}: {message}")


def _feature_bytes(path, matrix: np.ndarray) -> bytes:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or not 0 < arr.size <= _MAX_ELEMENTS:
        raise FeatureFileError(f"{path}: feature matrix must be rank 2 with usable extents, got {arr.shape}")
    return _HEADER.pack(FEATURE_MAGIC, *arr.shape) + narrow(arr, str(path))


def save_features(path, matrix: np.ndarray) -> None:
    """Write a rank-2 real matrix as a single-precision feature file."""
    replace_file(path, _feature_bytes(path, matrix))


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
    """Per-segment features of both modalities for one utterance, and its manifest split."""

    utt_id: str
    speaker_id: str
    split: str          # "train" or "eval"
    audio: np.ndarray   # audio_dim x segments
    visual: np.ndarray  # visual_dim x segments


def write_manifest(path, entries) -> None:
    """Write `utt_id<TAB>speaker_id<TAB>split` rows: unique utterance ids that are one
    whitespace-free token without a path separator, splits `train` or `eval`, and speaker
    ids that are non-empty, without tab or line break, and unpadded by whitespace."""
    entries = list(entries)
    rows = Counter(e[0] for e in entries)
    _refuse(path, rows, lambda u: u.split() != [u], "id {!r} is empty or holds whitespace")
    _refuse(path, (e[1] for e in entries),
            lambda s: not s or s != s.strip() or any(c in s for c in "\t\n\r"),
            "id {!r} is empty, holds a tab or line break, or has leading or trailing whitespace")
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
        if parts[1] != parts[1].strip():
            raise TrialParseError(f"{path}: line {lineno}: speaker id {parts[1]!r} has leading or "
                                  f"trailing whitespace")
        if parts[0].split() != [parts[0]]:
            raise TrialParseError(f"{path}: line {lineno}: utterance id {parts[0]!r} holds whitespace")
        if "/" in parts[0] or "\\" in parts[0]:
            raise TrialParseError(f"{path}: line {lineno}: utterance id {parts[0]!r} holds a path separator")
        if parts[0] in seen:
            raise TrialParseError(f"{path}: line {lineno}: duplicate utterance id {parts[0]!r}")
        seen.add(parts[0])
        entries.append(ManifestEntry(*parts))
    return entries


def _feature_paths(data_dir, utt_ids) -> list[str]:
    """Each utterance's audio and then visual feature file, in ``utt_ids`` order."""
    feats = os.path.join(data_dir, "feats", "")
    return [f"{feats}{u}.{modality}.avf" for u in utt_ids for modality in ("audio", "visual")]


def _check_segments(utt_id: str, audio_shape, visual_shape) -> None:
    if audio_shape[1] != visual_shape[1]:
        raise FeatureFileError(f"{utt_id}: segment counts disagree ({audio_shape[1]} vs {visual_shape[1]})")


def write_dataset(data_dir, utterances: list[Utterance]) -> None:
    """Write ``manifest.tsv``, then every utterance's feature files, as ``load_dataset`` reads
    them.  Before any file is written it refuses what ``load_dataset`` would refuse or change,
    and a ``feats/`` holding an ``.avf`` file the new manifest does not name."""
    feats = os.path.join(data_dir, "feats")
    paths = _feature_paths(data_dir, [u.utt_id for u in utterances])
    refuse_unnamed(feats, ".avf", {os.path.basename(p) for p in paths},
                   "feature file not named by the new manifest; write the dataset into an empty directory")
    blobs = []
    for u, audio_path, visual_path in zip(utterances, paths[0::2], paths[1::2]):
        blobs += _feature_bytes(audio_path, u.audio), _feature_bytes(visual_path, u.visual)
        _check_segments(u.utt_id, u.audio.shape, u.visual.shape)
    os.makedirs(feats, exist_ok=True)
    write_manifest(Path(data_dir) / "manifest.tsv",
                   [ManifestEntry(u.utt_id, u.speaker_id, u.split) for u in utterances])
    for path, blob in zip(paths, blobs):
        replace_file(path, blob)


def load_dataset(data_dir) -> dict[str, Utterance]:
    """Load every manifest utterance's feature pair and split, in manifest order; both
    modalities must agree on segments.

    One pass reads and checks every file in manifest order, so a structural fault is raised
    before a non-finite value in an earlier file.  Then one widening decodes all payloads into
    C-contiguous float64 views, bitwise ``load_features``'s, and one sum of squares screens them:
    single-precision squares cannot overflow it, so only a NaN or Inf makes it non-finite, and
    only then does ``load_features`` load each file again to name the value and its index.
    """
    entries = manifest_entries(data_dir)
    paths = _feature_paths(data_dir, [e.utt_id for e in entries])
    payloads, shapes = [], []
    for entry, audio_path, visual_path in zip(entries, paths[0::2], paths[1::2]):
        (audio, a_shape), (visual, v_shape) = _read(audio_path), _read(visual_path)
        _check_segments(entry.utt_id, a_shape, v_shape)
        payloads += audio, visual
        shapes += a_shape, v_shape
    values = np.frombuffer(b"".join(payloads), "<f4").astype(np.float64)
    if not math.isfinite(values.dot(values)):
        for path in paths:
            load_features(path)
        raise FeatureFileError(f"{data_dir}: feature files changed while the dataset loaded")
    ends = itertools.accumulate(map(math.prod, shapes))
    arrays = (values[end - math.prod(shape):end].reshape(shape) for end, shape in zip(ends, shapes))
    return {e.utt_id: Utterance(*e, next(arrays), next(arrays)) for e in entries}


def manifest_entries(data_dir) -> list[ManifestEntry]:
    return read_manifest(Path(data_dir) / "manifest.tsv")
