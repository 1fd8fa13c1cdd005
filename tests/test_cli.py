"""Command line end to end: synth, then train, then embed and evaluate, on a tiny dataset."""

from dataclasses import fields

import numpy as np
import pytest

from avfuse import cli
from avfuse.checkpoint import load_checkpoint, save_checkpoint
from avfuse.featio import TrialPair, load_dataset, load_features, write_trial_list
from avfuse.model import VerificationModel
from avfuse.synthetic import SyntheticSpec

DIMS = ["--audio-dim", "3", "--visual-dim", "2", "--segments", "4"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A synthesized dataset and the final checkpoint of one training epoch on it."""
    root = tmp_path_factory.mktemp("cli")
    data, run = root / "data", root / "run"
    assert cli.main(["synth", "--out", str(data), "--speakers", "3", "--utts-per-speaker", "3",
                     "--latent-dim", "2", "--eval-utts-per-speaker", "2", *DIMS]) == 0
    # batch_size 4 over 9 utterances: embed runs two full batches and a partial one.
    assert cli.main(["train", "--data", str(data), "--out", str(run), "--epochs", "1",
                     "--iterations", "2", "--blstm-hidden", "3", "--asp-hidden", "3",
                     "--embed-dim", "4", "--batch-size", "4", *DIMS]) == 0
    return data, run / "final.ckpt"


def test_synth_train_embed(trained, tmp_path):
    data, checkpoint = trained
    emb = tmp_path / "emb"
    assert cli.main(["embed", "--checkpoint", str(checkpoint), "--data", str(data),
                     "--out", str(emb)]) == 0

    utterances = load_dataset(data)
    assert sorted(p.name for p in emb.iterdir()) == sorted(f"{u}.emb.avf" for u in utterances)
    model = VerificationModel.from_checkpoint(checkpoint)
    for utt_id, utt in utterances.items():
        stored = load_features(emb / f"{utt_id}.emb.avf")
        assert stored.shape == (4, 1)
        np.testing.assert_allclose(stored[:, 0], model.embed(utt.audio, utt.visual), rtol=1e-6)


def evaluate_args(data, tmp_path, *flags):
    utts = load_dataset(data)
    by_speaker = sorted(utts, key=lambda u: (utts[u].speaker_id, u))
    enroll, same, other = by_speaker[0], by_speaker[1], by_speaker[-1]
    write_trial_list(tmp_path / "trials.txt", [TrialPair(True, enroll, same),
                                               TrialPair(False, enroll, other)])
    return ["evaluate", "--data", str(data), "--trials", str(tmp_path / "trials.txt"), *flags]


def test_evaluate_rejects_config_input_for_a_trained_system(trained, tmp_path, capsys):
    data, checkpoint = trained
    args = evaluate_args(data, tmp_path, "--system", "rjca", "--checkpoint", str(checkpoint))
    assert cli.main(args) == 0
    capsys.readouterr()
    assert cli.main(args + ["--config", str(tmp_path / "nonexistent.cfg"),
                            "--iterations", "x"]) == 2
    assert capsys.readouterr().err == ("error: rjca uses its checkpoint's config; "
                                       "remove --config --iterations\n")


def test_evaluate_raw_system_takes_config_flags(trained, tmp_path, capsys):
    data, _ = trained
    args = evaluate_args(data, tmp_path, "--system", "score_level")
    assert cli.main(args + ["--score-fusion-weight", "0.3"]) == 0
    assert cli.main(args + ["--score-fusion-weight", "x"]) == 2
    assert "error: score_fusion_weight" in capsys.readouterr().err


def test_evaluate_names_a_missing_trial_utterance(trained, tmp_path, capsys):
    data, _ = trained
    enroll = sorted(load_dataset(data))[0]
    write_trial_list(tmp_path / "trials.txt", [TrialPair(True, enroll, "nosuch_utt")])
    args = ["evaluate", "--data", str(data), "--trials", str(tmp_path / "trials.txt"),
            "--system", "audio"]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == "error: trial utterances not found: ['nosuch_utt']\n"


def test_evaluate_names_a_checkpoint_with_a_bad_speaker_count(trained, tmp_path, capsys):
    data, checkpoint = trained
    tensors, config_text = load_checkpoint(checkpoint)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, tensors, config_text.replace("n_speakers = 3", "n_speakers = x"))
    assert cli.main(evaluate_args(data, tmp_path, "--system", "rjca", "--checkpoint", str(bad))) == 2
    assert capsys.readouterr().err == f"error: {bad}: n_speakers: expected an integer, got 'x'\n"


@pytest.mark.parametrize("held_out", ["1", "0"])
def test_synth_without_target_trials_writes_nothing(tmp_path, capsys, held_out):
    out = tmp_path / "data"
    assert cli.main(["synth", "--out", str(out), "--speakers", "3", "--utts-per-speaker", "3",
                     "--eval-utts-per-speaker", held_out, *DIMS]) == 2
    assert capsys.readouterr().err == (f"error: --eval-utts-per-speaker {held_out} gives no target "
                                       "trials; hold out at least 2 utterances per speaker\n")
    assert not out.exists()


# The synth flags in SyntheticSpec field order.
SYNTH_FLAGS = ["--speakers", "--utts-per-speaker", "--audio-dim", "--visual-dim", "--segments",
               "--latent-dim", "--audio-noise", "--visual-noise", "--eval-utts-per-speaker",
               "--nontargets-per-target", "--seed"]


def test_every_synthetic_spec_field_has_a_synth_flag_defaulting_to_the_spec():
    parser = cli.build_parser()
    defaults = parser.parse_args(["synth", "--out", "data"])
    specs = list(fields(SyntheticSpec))
    assert len(specs) == len(SYNTH_FLAGS)
    for flag, field in zip(SYNTH_FLAGS, specs):
        assert getattr(defaults, field.name) == field.default, flag
        assert type(getattr(defaults, field.name)) is type(field.default), flag
        given = parser.parse_args(["synth", "--out", "data", flag, "3"])
        assert getattr(given, field.name) == 3, flag
