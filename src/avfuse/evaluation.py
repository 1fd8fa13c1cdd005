"""Trial evaluation harness: embed utterances, score pairs, report metrics.

Besides the trained fusion systems (recursive joint cross-attention, plain
concatenation, two-way cross-attention), the harness scores the untrained
reference systems: single-modality statistics of the raw features, and
score-level fusion of the two single-modality cosines.  Trial utterances are
embedded in mini-batches through ``VerificationModel.embed``, each one once,
and scored as cosines grouped by enrollment utterance.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from avfuse.config import ConfigError, TrainConfig
from avfuse.featio import TrialPair, Utterance
from avfuse.fusion import score_level_fusion
from avfuse.metrics import DcfParams, MetricsReport, ScoreSet, compute_report, write_scores
from avfuse.model import VerificationModel
from avfuse.objective import NormalizationError

TRAINED_SYSTEMS = ("rjca", "concat", "cross_attention")
RAW_SYSTEMS = ("audio", "visual", "score_level")


class ResolutionError(KeyError):
    """Trial references utterance ids absent from the evaluation set."""


def pooled_raw_embedding(features: np.ndarray) -> np.ndarray:
    """Untrained utterance vector: per-dimension mean and std over segments.

    A (dim, segments) utterance gives a (2*dim,) vector; a stacked
    (n, dim, segments) array gives one row per utterance.
    """
    return np.concatenate([features.mean(axis=-1), features.std(axis=-1)], axis=-1)


def _check_ids(trials: list[TrialPair], utterances: dict[str, Utterance]) -> None:
    missing = sorted(
        {t.enroll_id for t in trials if t.enroll_id not in utterances}
        | {t.test_id for t in trials if t.test_id not in utterances}
    )
    if missing:
        raise ResolutionError(f"trial utterances not found: {missing}")


def embed_utterances(model: VerificationModel, ids: list[str],
                     utterances: dict[str, Utterance]) -> np.ndarray:
    """Embeddings of the given utterances, one row each in ``ids`` order, embedded in
    batches of the model's ``batch_size``."""
    size = model.config.batch_size
    chunks = []
    for start in range(0, len(ids), size):
        batch = [utterances[u] for u in ids[start:start + size]]
        chunks.append(model.embed(np.stack([u.audio for u in batch]),
                                  np.stack([u.visual for u in batch])))
    return np.concatenate(chunks) if chunks else np.empty((0, model.config.embed_dim))


def _cosines(trials: list[TrialPair], index: dict[str, int], vectors: np.ndarray) -> np.ndarray:
    """Cosine score of every trial, in trial order.

    Rows are scaled to unit length once; the trials of each enrollment
    utterance are then one (n_tests, e) @ (e,) product.
    """
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    if not norms.all():
        raise NormalizationError("cosine scoring: zero-norm embedding")
    unit = vectors / norms
    by_enroll: dict[str, list[int]] = {}
    for k, t in enumerate(trials):
        by_enroll.setdefault(t.enroll_id, []).append(k)
    scores = np.empty(len(trials))
    for enroll_id, positions in by_enroll.items():
        tests = [index[trials[k].test_id] for k in positions]
        scores[positions] = unit[tests] @ unit[index[enroll_id]]
    return scores


def score_trials(system: str, trials: list[TrialPair], utterances: dict[str, Utterance],
                 model: VerificationModel | None = None, weight: float = 0.5) -> ScoreSet:
    """Score every trial with the chosen system, preserving trial order.

    Each distinct trial utterance is embedded (or pooled) once, whatever the
    number of trials it appears in.
    """
    if not trials:
        raise ConfigError("empty trial list")
    _check_ids(trials, utterances)
    ids = sorted({t.enroll_id for t in trials} | {t.test_id for t in trials})
    index = {u: i for i, u in enumerate(ids)}
    if system in TRAINED_SYSTEMS:
        if model is None:
            raise ConfigError(f"system {system!r} needs a trained model")
        if model.config.fusion != system:
            raise ConfigError(
                f"checkpoint was trained with fusion {model.config.fusion!r}, not {system!r}"
            )
        scores = _cosines(trials, index, embed_utterances(model, ids, utterances))
    elif system in RAW_SYSTEMS:
        def raw(modality: str) -> np.ndarray:
            stacked = np.stack([getattr(utterances[u], modality) for u in ids])
            return _cosines(trials, index, pooled_raw_embedding(stacked))

        if system == "score_level":
            scores = score_level_fusion(raw("audio"), raw("visual"), weight)
        else:
            scores = raw(system)
    else:
        raise ConfigError(f"unknown evaluation system {system!r}")
    labels = np.array([int(t.is_target) for t in trials])
    return ScoreSet(scores, labels)


def evaluate(system: str, trials: list[TrialPair], utterances: dict[str, Utterance],
             model: VerificationModel | None = None,
             dcf_params: DcfParams = DcfParams(),
             weight: float = 0.5, scores_path=None) -> tuple[MetricsReport, ScoreSet]:
    """Score trials, optionally persist the scores file, and compute metrics."""
    score_set = score_trials(system, trials, utterances, model=model, weight=weight)
    if scores_path is not None:
        write_scores(scores_path, score_set)
    return compute_report(score_set, dcf_params), score_set


# ---------------------------------------------------------------------------
# Recursion-depth ablation harness
# ---------------------------------------------------------------------------


@dataclass
class AblationRow:
    iterations: int
    eer: float
    min_dcf: float
    final_loss: float


def iteration_ablation(base_config: TrainConfig, train_utts: list[Utterance],
                       trials: list[TrialPair], utterances: dict[str, Utterance],
                       out_dir, t_values=(1, 2, 3, 4, 5),
                       dcf_params: DcfParams = DcfParams()) -> list[AblationRow]:
    """Retrain at each recursion depth and evaluate on the same trials.

    Rows come back in ascending depth for a directly comparable report.
    """
    from avfuse.training import train  # local import to avoid a cycle

    out_dir = Path(out_dir)
    rows = []
    for t in sorted(t_values):
        config = dataclasses.replace(base_config, iterations=t, fusion="rjca")
        result = train(config, train_utts, out_dir / f"t{t}", keep_epoch_checkpoints=False)
        report, _ = evaluate("rjca", trials, utterances, model=result.model,
                             dcf_params=dcf_params)
        rows.append(AblationRow(t, report.eer, report.min_dcf, result.epoch_losses[-1]))
    return rows


def format_ablation_table(rows: list[AblationRow]) -> str:
    lines = [
        "iterations   EER (%)   minDCF    final loss",
        "----------   -------   -------   ----------",
    ]
    for row in rows:
        lines.append(
            f"{row.iterations:10d}   {100.0 * row.eer:7.3f}   {row.min_dcf:7.4f}   {row.final_loss:10.5f}"
        )
    return "\n".join(lines)
