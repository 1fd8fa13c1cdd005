"""Command line end to end: synth, then train, then embed and evaluate, on a tiny dataset."""

from dataclasses import fields

import numpy as np
import pytest

from avfuse import cli
from avfuse.checkpoint import load_checkpoint, save_checkpoint
from avfuse.config import TrainConfig
from avfuse.evaluation import score_trials
from avfuse.featio import TrialPair, load_dataset, load_features, parse_trial_list, write_trial_list
from avfuse.gradcheck import DEFAULT_TOLERANCE
from avfuse.metrics import DcfParams
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


def test_evaluate_echoes_a_trained_systems_seed_and_refuses_config_input(trained, tmp_path, capsys):
    data, checkpoint = trained
    args = evaluate_args(data, tmp_path, "--system", "rjca", "--checkpoint", str(checkpoint))
    assert cli.main(args) == 0
    seed = VerificationModel.from_checkpoint(checkpoint).config.seed
    assert capsys.readouterr().out.startswith(f"seed = {seed}\n")
    for flags in (["--config", str(tmp_path / "run.cfg")], ["--iterations", "2"]):
        with pytest.raises(SystemExit) as refused:
            cli.main(args + flags)
        assert refused.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err


def test_evaluate_score_level_takes_its_weight_and_echoes_no_seed(trained, tmp_path, capsys):
    data, _ = trained
    scores = tmp_path / "scores.txt"
    args = evaluate_args(data, tmp_path, "--system", "score_level", "--scores-out", str(scores))
    trials = parse_trial_list(tmp_path / "trials.txt")
    utterances = load_dataset(data)
    for weight in ("0.3", "0.5"):
        assert cli.main(args + ["--score-fusion-weight", weight]) == 0
        assert "seed" not in capsys.readouterr().out
        want = score_trials("score_level", trials, utterances, weight=float(weight))
        rows = [line.split() for line in scores.read_text(encoding="utf-8").splitlines()]
        assert [int(label) for label, _ in rows] == want.labels.tolist()
        assert np.array_equal([float(score) for _, score in rows], want.scores)
    assert cli.main(args + ["--score-fusion-weight", "1.5"]) == 2
    assert capsys.readouterr().err == "error: score fusion weight must lie in [0, 1], got 1.5\n"
    with pytest.raises(SystemExit) as refused:
        cli.main(args + ["--score-fusion-weight", "x"])
    assert refused.value.code == 2


def test_evaluate_score_level_weight_defaults_to_one_half(trained, tmp_path):
    data, _ = trained
    scores = tmp_path / "scores.txt"
    args = evaluate_args(data, tmp_path, "--system", "score_level", "--scores-out", str(scores))
    assert cli.main(args + ["--score-fusion-weight", "0.5"]) == 0
    given = scores.read_bytes()
    assert cli.main(args) == 0
    assert scores.read_bytes() == given


@pytest.mark.parametrize("system", ["rjca", "audio"])
def test_evaluate_refuses_the_score_fusion_weight_outside_score_level(trained, tmp_path, capsys,
                                                                     system):
    data, checkpoint = trained
    flags = ["--checkpoint", str(checkpoint)] if system == "rjca" else []
    args = evaluate_args(data, tmp_path, "--system", system, *flags, "--score-fusion-weight", "2")
    assert cli.main(args) == 2
    assert capsys.readouterr().err == (f"error: system {system!r} does not read "
                                       "--score-fusion-weight; remove it\n")


def test_evaluate_refuses_a_checkpoint_for_a_raw_system(trained, tmp_path, capsys):
    data, checkpoint = trained
    args = evaluate_args(data, tmp_path, "--system", "audio", "--checkpoint", str(checkpoint))
    assert cli.main(args) == 2
    assert capsys.readouterr().err == "error: system 'audio' is untrained; remove --checkpoint\n"


def test_evaluate_names_a_missing_trial_utterance(trained, tmp_path, capsys):
    data, _ = trained
    enroll = sorted(load_dataset(data))[0]
    write_trial_list(tmp_path / "trials.txt", [TrialPair(True, enroll, "nosuch_utt")])
    args = ["evaluate", "--data", str(data), "--trials", str(tmp_path / "trials.txt"),
            "--system", "audio"]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == "error: trial utterances not found: ['nosuch_utt']\n"


def test_evaluate_names_an_empty_trial_file(trained, tmp_path, capsys):
    data, _ = trained
    (tmp_path / "empty.txt").write_text("\n  \n", encoding="utf-8")
    args = ["evaluate", "--data", str(data), "--trials", str(tmp_path / "empty.txt"),
            "--system", "audio"]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'empty.txt'}: empty trial list\n"


def test_evaluate_names_a_checkpoint_with_a_bad_speaker_count(trained, tmp_path, capsys):
    data, checkpoint = trained
    tensors, config_text = load_checkpoint(checkpoint)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, tensors, config_text.replace("n_speakers = 3", "n_speakers = x"))
    assert cli.main(evaluate_args(data, tmp_path, "--system", "rjca", "--checkpoint", str(bad))) == 2
    assert capsys.readouterr().err == f"error: {bad}: n_speakers: expected an integer, got 'x'\n"


@pytest.mark.parametrize("fusion", ["concat", "rjca"])
def test_evaluate_and_embed_refuse_data_off_the_checkpoint_dims(fusion, tmp_path, capsys):
    # A checkpoint for 4 segments, and data with 6.
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--speakers", "3", "--utts-per-speaker", "3",
                     "--latent-dim", "2", "--audio-dim", "3", "--visual-dim", "2", "--segments", "6"]) == 0
    config = TrainConfig(fusion=fusion, audio_dim=3, visual_dim=2, segments=4, blstm_hidden=3,
                         asp_hidden=3, embed_dim=4)
    VerificationModel(config, n_speakers=3).save(tmp_path / "model.ckpt")
    checkpoint = ["--checkpoint", str(tmp_path / "model.ckpt")]
    capsys.readouterr()
    assert cli.main(evaluate_args(data, tmp_path, "--system", fusion, *checkpoint)) == 2
    assert cli.main(["embed", *checkpoint, "--data", str(data), "--out", str(tmp_path / "emb")]) == 2
    expected = "do not match the model's (audio_dim, segments) = (3, 4)\n"
    assert capsys.readouterr().err == (f"error: audio features of shape (3, 3, 6) {expected}"
                                       f"error: audio features of shape (9, 3, 6) {expected}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_reports_divergence_as_an_error(trained, tmp_path, capsys):
    data, _ = trained
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(run), "--epochs", "2",
                     "--learning-rate", "1e300", "--iterations", "2", "--blstm-hidden", "3",
                     "--asp-hidden", "3", "--embed-dim", "4", "--batch-size", "4", *DIMS]) == 2
    assert capsys.readouterr().err == "error: non-finite loss at epoch 1, utterance spk001_utt00\n"
    assert not (run / "final.ckpt").exists()


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


def test_evaluate_has_no_train_config_flag_but_the_score_fusion_weight(capsys):
    parser = cli.build_parser()
    base = ["evaluate", "--data", "data", "--trials", "trials.txt"]
    defaults = parser.parse_args(base)
    assert defaults.score_fusion_weight is None
    assert parser.parse_args(base + ["--score-fusion-weight", "0.25"]).score_fusion_weight == 0.25
    flags = [f"--{f.name.replace('_', '-')}" for f in fields(TrainConfig)] + ["--config"]
    for flag in flags:
        if flag == "--score-fusion-weight":
            continue
        with pytest.raises(SystemExit):
            parser.parse_args(base + [flag, "1"])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err, flag


def test_cost_and_tolerance_flags_default_to_the_library_constants():
    parser = cli.build_parser()
    base = ["evaluate", "--data", "data", "--trials", "trials.txt"]
    defaults, dcf = parser.parse_args(base), DcfParams()
    assert (defaults.p_target, defaults.c_miss, defaults.c_fa) == (dcf.p_target, dcf.c_miss, dcf.c_fa)
    given = parser.parse_args(base + ["--p-target", "0.01", "--c-miss", "10", "--c-fa", "2"])
    assert (given.p_target, given.c_miss, given.c_fa) == (0.01, 10.0, 2.0)
    assert parser.parse_args(["gradcheck"]).tolerance == DEFAULT_TOLERANCE
