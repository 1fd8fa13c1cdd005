"""Trial evaluation harness: embed utterances, score pairs, report metrics.

Besides the trained fusion systems (recursive joint cross-attention, plain
concatenation, two-way cross-attention), the harness scores the untrained
reference systems: single-modality statistics of the raw features, and
score-level fusion ``weight * audio + (1 - weight) * visual`` of their cosines.
Every system refuses a weight outside [0, 1]; only a trained one takes a model.
Trials are ``NamedTuple`` rows: one pass flattens the list into its cells, which
give the labels, the distinct utterance ids and each trial's enrollment and test rows.
Every trial utterance is then embedded once, in mini-batches through
``VerificationModel.embed``; each trial reads its cell of one Gram product of
the unit rows, so ``score(a, b) == score(b, a)`` bit for bit.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from avfuse.config import FUSION_MODES, ConfigError, TrainConfig
from avfuse.featio import TrialPair, Utterance
from avfuse.metrics import DcfParams, MetricsReport, ScoreSet, compute_report, write_scores
from avfuse.model import VerificationModel, check_shapes
from avfuse.objective import NormalizationError

TRAINED_SYSTEMS = FUSION_MODES
RAW_SYSTEMS = ("audio", "visual", "score_level")


class ResolutionError(KeyError):
    """Trial references utterance ids absent from the evaluation set."""

    def __str__(self) -> str:
        # KeyError quotes its argument as a key; this one is a message.
        return Exception.__str__(self)


def pooled_raw_embedding(features: np.ndarray) -> np.ndarray:
    """Untrained utterance vector: per-dimension mean and std over segments.

    A (dim, segments) utterance gives a (2*dim,) vector; a stacked
    (n, dim, segments) array gives one row per utterance.
    """
    return np.concatenate([features.mean(axis=-1), features.std(axis=-1)], axis=-1)


def _resolve(trials: list[TrialPair], utterances: dict[str, Utterance]
             ) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """One flattening pass over the trials -> (sorted distinct ids, enrollment
    rows, test rows, labels); rows index the sorted ids."""
    n = len(trials)
    cells = list(chain.from_iterable(trials))
    labels = np.fromiter(cells[0::3], np.int64, n)
    del cells[0::3]
    ids = sorted(set(cells))
    missing = [u for u in ids if u not in utterances]
    if missing:
        raise ResolutionError(f"trial utterances not found: {missing}")
    row = dict(zip(ids, range(len(ids))))
    rows = np.fromiter(map(row.__getitem__, cells), np.intp, 2 * n)
    return ids, rows[0::2], rows[1::2], labels


def embed_utterances(model: VerificationModel, ids: list[str],
                     utterances: dict[str, Utterance]) -> np.ndarray:
    """Embeddings of the given utterances, one row each in ``ids`` order, embedded in batches of the
    model's ``batch_size`` once every utterance is checked against the model's input shapes."""
    check_shapes((utterances[u] for u in ids), model.input_shapes)
    chunks = []
    for start in range(0, len(ids), model.config.batch_size):
        batch = [utterances[u] for u in ids[start:start + model.config.batch_size]]
        chunks.append(model.embed(np.stack([u.audio for u in batch]), np.stack([u.visual for u in batch])))
    return np.concatenate(chunks) if chunks else np.empty((0, model.config.embed_dim))


def _cosines(enroll_rows: np.ndarray, test_rows: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Cosine score of every trial, in trial order: its (enrollment, test) cell of the
    Gram product ``unit @ unit.T`` of the unit rows.  numpy runs it as one symmetric
    rank-k update and mirrors the triangle, so scores are symmetric bit for bit.  The
    matrix holds n_ids² doubles, about twice an all-pairs list's scores: 2 MB at 500 ids."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    if not norms.all():
        raise NormalizationError("cosine scoring: zero-norm embedding")
    unit = vectors / norms
    return (unit @ unit.T)[enroll_rows, test_rows]


def score_trials(system: str, trials: list[TrialPair], utterances: dict[str, Utterance],
                 model: VerificationModel | None = None,
                 weight: float = TrainConfig.score_fusion_weight) -> ScoreSet:
    """Score every trial with the chosen system, preserving trial order.

    Each distinct trial utterance is embedded (or pooled) once, whatever the
    number of trials it appears in.  ``weight``, the audio weight of ``score_level``,
    is refused outside [0, 1] by every system; only a trained system takes ``model``.
    A raw system names the first utterance whose shape is not the first trial utterance's.
    """
    if not 0.0 <= weight <= 1.0:
        raise ConfigError(f"score fusion weight must lie in [0, 1], got {weight}")
    if not trials:
        raise ConfigError("empty trial list")
    ids, enroll_rows, test_rows, labels = _resolve(trials, utterances)
    if system in TRAINED_SYSTEMS:
        if model is None:
            raise ConfigError(f"system {system!r} needs a trained model")
        if model.config.fusion != system:
            raise ConfigError(
                f"checkpoint was trained with fusion {model.config.fusion!r}, not {system!r}"
            )
        scores = _cosines(enroll_rows, test_rows, embed_utterances(model, ids, utterances))
    elif system in RAW_SYSTEMS:
        if model is not None:
            raise ConfigError(f"system {system!r} is untrained; it takes no model")

        first = utterances[ids[0]]
        check_shapes((utterances[u] for u in ids), (first.audio.shape, first.visual.shape))

        def raw(modality: str) -> np.ndarray:
            stacked = np.stack([getattr(utterances[u], modality) for u in ids])
            return _cosines(enroll_rows, test_rows, pooled_raw_embedding(stacked))

        if system == "score_level":
            scores = weight * raw("audio") + (1.0 - weight) * raw("visual")
        else:
            scores = raw(system)
    else:
        raise ConfigError(f"unknown evaluation system {system!r}")
    return ScoreSet(scores, labels)


def evaluate(system: str, trials: list[TrialPair], utterances: dict[str, Utterance],
             model: VerificationModel | None = None,
             dcf_params: DcfParams = DcfParams(),
             weight: float = TrainConfig.score_fusion_weight,
             scores_path=None) -> tuple[MetricsReport, ScoreSet]:
    """Score trials, optionally persist the scores file, and compute metrics."""
    score_set = score_trials(system, trials, utterances, model=model, weight=weight)
    if scores_path is not None:
        write_scores(scores_path, score_set)
    return compute_report(score_set, dcf_params), score_set

