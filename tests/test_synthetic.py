"""Synthetic data generation: the trial list delivers what it was asked for."""

import math
import re

import pytest

from avfuse.config import ConfigError
from avfuse.featio import parse_trial_list
from avfuse.synthetic import SyntheticSpec, generate_dataset


def test_too_few_cross_speaker_pairs_raise_with_both_counts(tmp_path):
    # 2 speakers x 2 held-out utterances: 2 target trials, so 20 nontargets
    # are requested, but only 8 ordered cross-speaker pairs exist.
    spec = SyntheticSpec(n_speakers=2, utts_per_speaker=3, eval_utts_per_speaker=2,
                         nontargets_per_target=10)
    out_dir = tmp_path / "data"
    with pytest.raises(ConfigError, match=r"requested 20 nontarget.*found only 8"):
        generate_dataset(spec, out_dir)
    assert list(tmp_path.rglob("*")) == [], "a failed spec must leave no files behind"


def test_default_ratio_delivers_every_requested_nontarget(tmp_path):
    spec = SyntheticSpec(n_speakers=4, utts_per_speaker=3, audio_dim=3, visual_dim=2,
                         segments=4, latent_dim=2, eval_utts_per_speaker=2)
    generate_dataset(spec, tmp_path)
    trials = parse_trial_list(tmp_path / "trials.txt")
    targets = sum(t.is_target for t in trials)
    assert targets == 4
    assert len(trials) - targets == 4 * spec.nontargets_per_target


@pytest.mark.parametrize("fields, message", [
    (dict(latent_dim=0), "latent_dim must be >= 1"),
    (dict(visual_noise=-0.1), "noise levels must lie in [0, inf)"),
    (dict(audio_noise=math.nan), "noise levels must lie in [0, inf)"),
    (dict(visual_noise=math.inf), "noise levels must lie in [0, inf)"),
    (dict(utts_per_speaker=3, eval_utts_per_speaker=3),
     "eval_utts_per_speaker must leave at least one training utterance"),
    (dict(eval_utts_per_speaker=-1), "eval_utts_per_speaker must leave at least one training utterance"),
    (dict(seed=-1), "seed must be >= 0"),
], ids=["int_below_one", "negative_noise", "nan_noise", "infinite_noise", "no_training_utterance",
        "negative_held_out", "negative_seed"])
def test_invalid_spec_is_a_config_error(fields, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as info:
        SyntheticSpec(**fields)
    assert info.type is ConfigError
