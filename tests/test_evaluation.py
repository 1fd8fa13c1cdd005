"""Trial scoring: batched embedding and the Gram product of unit rows equal per-trial scoring."""

import dataclasses
import itertools
import re

import numpy as np
import pytest

from avfuse import evaluation
from avfuse.config import ConfigError, TrainConfig
from avfuse.evaluation import (
    ResolutionError,
    embed_utterances,
    evaluate,
    pooled_raw_embedding,
    score_trials,
)
from avfuse.featio import TrialPair, load_dataset
from avfuse.fusion import score_level_fusion
from avfuse.model import VerificationModel
from avfuse.objective import NormalizationError, cosine_score
from avfuse.synthetic import SyntheticSpec, generate_dataset


@pytest.fixture(scope="module")
def utterances(tmp_path_factory):
    spec = SyntheticSpec(n_speakers=3, utts_per_speaker=4, audio_dim=3, visual_dim=2,
                         segments=4, latent_dim=2, eval_utts_per_speaker=1, seed=8)
    data_dir = tmp_path_factory.mktemp("data")
    generate_dataset(spec, data_dir)
    return load_dataset(data_dir)


def all_pairs(utterances):
    ids = sorted(utterances)
    return [TrialPair(utterances[a].speaker_id == utterances[b].speaker_id, a, b)
            for a, b in itertools.combinations(ids, 2)]


def reference_cosines(trials, index, vectors):
    """Per-trial grouping: a dict of trial positions per enrollment id, in order of
    first appearance, then one gather per enrollment from its row of the Gram
    product of the unit rows."""
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    gram = unit @ unit.T
    by_enroll = {}
    for k, t in enumerate(trials):
        by_enroll.setdefault(t.enroll_id, []).append(k)
    scores = np.empty(len(trials))
    for enroll_id, positions in by_enroll.items():
        tests = [index[trials[k].test_id] for k in positions]
        scores[positions] = gram[index[enroll_id], tests]
    return scores


def tiny_model():
    # batch_size 5 over 12 utterances: two full chunks and a partial one.
    config = TrainConfig(audio_dim=3, visual_dim=2, segments=4, iterations=2, blstm_hidden=3,
                         asp_hidden=3, embed_dim=4, batch_size=5, seed=3)
    return VerificationModel(config, n_speakers=3)


def shuffled_trials(utterances):
    """All pairs plus a self trial and a one-trial enrollment, in shuffled order."""
    ids = sorted(utterances)
    trials = all_pairs(utterances) + [TrialPair(True, ids[3], ids[3]),
                                      TrialPair(False, ids[-1], ids[0])]
    order = np.random.default_rng(11).permutation(len(trials))
    trials = [trials[k] for k in order]
    enrolls = [t.enroll_id for t in trials]
    runs = [e for k, e in enumerate(enrolls) if k == 0 or e != enrolls[k - 1]]
    assert len(runs) > len(set(enrolls))  # some enrollment's trials are not contiguous
    assert enrolls.count(ids[-1]) == 1
    assert {t.test_id for t in trials} & set(enrolls)
    return trials


@pytest.mark.parametrize("system", ["rjca", "audio", "visual", "score_level"])
def test_scores_are_bitwise_the_per_enrollment_products(utterances, system):
    trials = shuffled_trials(utterances)
    ids = sorted(utterances)
    index = {u: i for i, u in enumerate(ids)}
    model = tiny_model() if system == "rjca" else None
    got = score_trials(system, trials, utterances, model=model, weight=0.3)

    def raw(modality):
        stacked = np.stack([getattr(utterances[u], modality) for u in ids])
        return reference_cosines(trials, index, pooled_raw_embedding(stacked))

    if system == "rjca":
        expected = reference_cosines(trials, index, embed_utterances(model, ids, utterances))
    elif system == "score_level":
        expected = score_level_fusion(raw("audio"), raw("visual"), 0.3)
    else:
        expected = raw(system)
    assert got.scores.tobytes() == expected.tobytes()
    assert got.labels.tolist() == [int(t.is_target) for t in trials]


@pytest.mark.parametrize("system", ["rjca", "audio", "visual", "score_level"])
def test_swapping_enrollment_and_test_gives_bitwise_equal_scores(utterances, system):
    trials = shuffled_trials(utterances)
    swapped = [TrialPair(t.is_target, t.test_id, t.enroll_id) for t in trials]
    model = tiny_model() if system == "rjca" else None
    got, back = (score_trials(system, ts, utterances, model=model, weight=0.3)
                 for ts in (trials, swapped))
    assert got.scores.tobytes() == back.scores.tobytes()


def test_resolve_matches_a_per_trial_dict_reference(utterances):
    trials = shuffled_trials(utterances)
    ids, enroll_rows, test_rows, labels = evaluation._resolve(trials, utterances)
    want_ids = sorted({u for t in trials for u in (t.enroll_id, t.test_id)})
    index = {u: k for k, u in enumerate(want_ids)}
    assert ids == want_ids
    for got, want in ((enroll_rows, [index[t.enroll_id] for t in trials]),
                      (test_rows, [index[t.test_id] for t in trials])):
        assert got.dtype == np.intp and got.tolist() == want
    assert labels.dtype == np.int64 and labels.tolist() == [int(t.is_target) for t in trials]


def test_missing_ids_on_both_sides_are_listed_sorted(utterances):
    ids = sorted(utterances)
    trials = [TrialPair(True, ids[0], ids[1]), TrialPair(False, "zz_test", ids[0]),
              TrialPair(False, ids[2], "b_test"), TrialPair(True, "a_enroll", "zz_test")]
    with pytest.raises(ResolutionError) as info:
        score_trials("audio", trials, utterances)
    assert str(info.value) == "trial utterances not found: ['a_enroll', 'b_test', 'zz_test']"
    assert isinstance(info.value, KeyError)


def test_evaluate_scores_and_reports_through_the_module_functions(utterances, monkeypatch):
    # Benchmark tracing wraps these two module attributes to time them.
    calls = []

    def spy(name):
        inner = getattr(evaluation, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(evaluation, name, wrapped)

    spy("score_trials")
    spy("compute_report")
    evaluate("audio", all_pairs(utterances), utterances)
    assert calls == ["score_trials", "compute_report"]


def test_model_scores_are_cosines_of_single_embeddings(utterances):
    model = tiny_model()
    trials = shuffled_trials(utterances)
    score_set = score_trials("rjca", trials, utterances, model=model)
    emb = {u: model.embed(utt.audio, utt.visual) for u, utt in utterances.items()}
    expected = [cosine_score(emb[t.enroll_id], emb[t.test_id]) for t in trials]
    assert np.abs(score_set.scores - expected).max() <= 1e-12
    assert score_set.labels.tolist() == [int(t.is_target) for t in trials]


@pytest.mark.parametrize("system", ["audio", "visual", "score_level"])
def test_raw_scores_match_per_trial_cosines(utterances, system):
    trials = shuffled_trials(utterances)
    report, score_set = evaluate(system, trials, utterances, weight=0.3)

    def raw(utt_id, modality):
        return pooled_raw_embedding(getattr(utterances[utt_id], modality))

    expected = []
    for t in trials:
        per_modality = {m: cosine_score(raw(t.enroll_id, m), raw(t.test_id, m))
                        for m in ("audio", "visual")}
        expected.append(score_level_fusion(per_modality["audio"], per_modality["visual"], 0.3)
                        if system == "score_level" else per_modality[system])
    assert np.abs(score_set.scores - expected).max() <= 1e-12
    assert list(score_set.labels) == [int(t.is_target) for t in trials]
    assert 0.0 <= report.eer <= 1.0


def test_trained_system_needs_a_model(utterances):
    with pytest.raises(ConfigError):
        score_trials("rjca", all_pairs(utterances), utterances)


def test_embedding_no_utterances_gives_no_rows():
    config = TrainConfig(audio_dim=3, visual_dim=2, segments=4, embed_dim=4)
    assert embed_utterances(VerificationModel(config, n_speakers=2), [], {}).shape == (0, 4)


def with_silent_audio(utterances):
    """The utterances with the first one's audio all zeros: a zero-norm raw audio vector."""
    first = min(utterances)
    silent = dataclasses.replace(utterances[first], audio=np.zeros_like(utterances[first].audio))
    return {**utterances, first: silent}


@pytest.mark.parametrize("system, trials, data, model, error, message", [
    ("audio", lambda u: [], lambda u: u, None, ConfigError, "empty trial list"),
    ("concat", all_pairs, lambda u: u, tiny_model, ConfigError,
     "checkpoint was trained with fusion 'rjca', not 'concat'"),
    ("bogus", all_pairs, lambda u: u, None, ConfigError, "unknown evaluation system 'bogus'"),
    ("audio", all_pairs, with_silent_audio, None, NormalizationError, "cosine scoring: zero-norm embedding"),
], ids=["empty_trial_list", "fusion_mismatch", "unknown_system", "zero_norm_embedding"])
def test_score_trials_refusals_name_the_cause(utterances, system, trials, data, model, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        score_trials(system, trials(utterances), data(utterances), model=model and model())
    assert info.type is error
