"""Trial scoring: batched embedding and grouped cosines equal per-trial scoring."""

import itertools

import numpy as np
import pytest

from avfuse.config import ConfigError, TrainConfig
from avfuse.evaluation import embed_utterances, evaluate, pooled_raw_embedding, score_trials
from avfuse.featio import TrialPair, load_dataset
from avfuse.fusion import score_level_fusion
from avfuse.model import VerificationModel
from avfuse.objective import cosine_score
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


def test_model_scores_are_cosines_of_single_embeddings(utterances):
    # batch_size 5 over 12 utterances: two full chunks and a partial one.
    config = TrainConfig(audio_dim=3, visual_dim=2, segments=4, iterations=2, blstm_hidden=3,
                         asp_hidden=3, embed_dim=4, batch_size=5, seed=3)
    model = VerificationModel(config, n_speakers=3)
    trials = all_pairs(utterances)[::-1]
    scores = score_trials("rjca", trials, utterances, model=model).scores
    emb = {u: model.embed(utt.audio, utt.visual) for u, utt in utterances.items()}
    expected = [cosine_score(emb[t.enroll_id], emb[t.test_id]) for t in trials]
    assert np.abs(scores - expected).max() <= 1e-12


@pytest.mark.parametrize("system", ["audio", "visual", "score_level"])
def test_raw_scores_match_per_trial_cosines(utterances, system):
    trials = all_pairs(utterances)
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
