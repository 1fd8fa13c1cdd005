"""Command line end to end: synth, then train, then embed and evaluate, on a tiny dataset."""

import shutil
from dataclasses import fields

import numpy as np
import pytest

from avfuse import cli, featio, gradcheck
from avfuse.checkpoint import load_checkpoint, save_checkpoint
from avfuse.config import TrainConfig
from avfuse.evaluation import score_trials
from avfuse.featio import (TrialPair, load_dataset, load_features, parse_trial_list, save_features,
                           write_trial_list)
from avfuse.metrics import DcfParams
from avfuse.model import VerificationModel
from avfuse.synthetic import SyntheticSpec
from avfuse.training import train

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


def test_train_fits_the_manifest_train_split_and_saves_every_epoch(trained, tmp_path):
    data, checkpoint = trained
    train_split = [u for u in load_dataset(data).values() if u.split == "train"]
    result = train(VerificationModel.from_checkpoint(checkpoint).config, train_split, tmp_path)
    assert result.checkpoint_path.read_bytes() == checkpoint.read_bytes()
    epoch = "epoch_000.ckpt"
    assert (tmp_path / epoch).read_bytes() == (checkpoint.parent / epoch).read_bytes()


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


def test_evaluate_refuses_bad_dcf_flags_before_it_loads_anything(trained, tmp_path, capsys):
    data, checkpoint = trained
    args = evaluate_args(data, tmp_path, "--system", "rjca", "--checkpoint", str(checkpoint))
    args[args.index("--data") + 1] = str(tmp_path / "missing")
    assert cli.main(args + ["--p-target", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: p_target must lie strictly between 0 and 1\n"
    assert "seed =" not in captured.out


def test_evaluate_refuses_a_trained_system_without_a_checkpoint(trained, tmp_path, capsys):
    data, _ = trained
    assert cli.main(evaluate_args(data, tmp_path, "--system", "rjca")) == 2
    assert capsys.readouterr().err == "error: system 'rjca' requires --checkpoint\n"


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


def check_commands_name_the_first_utterance_off(tmp_path, capsys, off, segments, every, fusions):
    # Models for 4 segments.  Either spk001_utt00 alone has 5, or every utterance has 6.  The
    # trials pair every utterance, so train, embed and evaluate each check the same first
    # utterance off, before writing anything.  A raw system takes the first trial utterance's shape.
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--speakers", "4", "--utts-per-speaker", "3",
                     "--latent-dim", "2", *DIMS[:-1], str(segments if every else 4)]) == 0
    rng = np.random.default_rng(0)
    for modality, dim in () if every else (("audio", 3), ("visual", 2)):
        save_features(data / "feats" / f"{off}.{modality}.avf", rng.uniform(-1, 1, size=(dim, segments)))
    ids = sorted(load_dataset(data))
    write_trial_list(tmp_path / "trials.txt", [TrialPair(False, a, b) for a in ids for b in ids if a < b])
    evaluate = ["evaluate", "--data", str(data), "--trials", str(tmp_path / "trials.txt"), "--system"]
    capsys.readouterr()
    assert cli.main(["train", "--data", str(data), "--out", str(tmp_path / "run"), *DIMS]) == 2
    for fusion in fusions:
        config = TrainConfig(fusion=fusion, audio_dim=3, visual_dim=2, segments=4, blstm_hidden=3,
                             asp_hidden=3, embed_dim=4)
        VerificationModel(config, n_speakers=4).save(tmp_path / "model.ckpt")
        checkpoint = ["--checkpoint", str(tmp_path / "model.ckpt")]
        assert cli.main(["embed", *checkpoint, "--data", str(data), "--out", str(tmp_path / "emb")]) == 2
        assert cli.main([*evaluate, fusion, *checkpoint]) == 2
    raw = () if every else ("audio", "visual", "score_level")
    for system in raw:
        assert cli.main([*evaluate, system]) == 2
    assert not (tmp_path / "run").exists() and not (tmp_path / "emb").exists()
    message = f"error: utterance {off}: audio features of shape (3, {segments}) do not match (3, 4)\n"
    assert capsys.readouterr().err == (1 + 2 * len(fusions) + len(raw)) * message


@pytest.mark.parametrize("off, segments", [("spk001_utt00", 5)], ids=["one_utterance_off"])
def test_commands_name_the_first_utterance_off_the_model_shape(tmp_path, capsys, off, segments):
    check_commands_name_the_first_utterance_off(tmp_path, capsys, off, segments, every=False,
                                                fusions=("rjca", "concat"))


@pytest.mark.parametrize("fusion", ["concat", "rjca"])
def test_evaluate_and_embed_refuse_data_off_the_checkpoint_dims(fusion, tmp_path, capsys):
    check_commands_name_the_first_utterance_off(tmp_path, capsys, "spk000_utt00", 6, every=True,
                                                fusions=(fusion,))


def test_train_reads_the_manifest_once(trained, tmp_path, monkeypatch):
    data, _ = trained
    paths, read = [], featio.read_manifest
    monkeypatch.setattr(featio, "read_manifest", lambda path: paths.append(path) or read(path))
    assert cli.main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--epochs", "1",
                     "--blstm-hidden", "3", "--asp-hidden", "3", "--embed-dim", "4", *DIMS]) == 0
    assert paths == [data / "manifest.tsv"]


def test_embed_refuses_an_utterance_id_that_leaves_its_directories(trained, tmp_path, capsys):
    # Feature files where the id's path leads, so only the refusal stops embed
    # reading them and writing <out>/../../outside.emb.avf.
    data, checkpoint = trained
    copy = tmp_path / "root" / "data"
    shutil.copytree(data, copy)
    rng = np.random.default_rng(0)
    for modality, dim in (("audio", 3), ("visual", 2)):
        save_features(tmp_path / "root" / f"outside.{modality}.avf", rng.uniform(-1, 1, size=(dim, 4)))
    with open(copy / "manifest.tsv", "a", encoding="utf-8") as fh:
        fh.write("../../outside\tspk000\teval\n")
    out = tmp_path / "out" / "a" / "emb"
    assert cli.main(["embed", "--checkpoint", str(checkpoint), "--data", str(copy), "--out", str(out)]) == 2
    assert "utterance id '../../outside' holds a path separator" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not list(tmp_path.rglob("*.emb.avf"))


def files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_train_refuses_an_out_holding_a_checkpoint_it_would_not_overwrite(trained, tmp_path, capsys):
    data, _ = trained
    run = tmp_path / "run"
    args = ["train", "--data", str(data), "--out", str(run), "--iterations", "2", "--blstm-hidden", "3",
            "--asp-hidden", "3", "--embed-dim", "4", "--batch-size", "4", *DIMS]
    assert cli.main([*args, "--epochs", "3"]) == 0
    written = files(run)
    # The same config again names the same files and writes the same bytes.
    assert cli.main([*args, "--epochs", "3"]) == 0
    assert files(run) == written
    # One epoch leaves epoch_001.ckpt and epoch_002.ckpt unnamed: nothing is written, the first is named.
    capsys.readouterr()
    assert cli.main([*args, "--epochs", "1"]) == 2
    assert capsys.readouterr().err == (f"error: {run / 'epoch_001.ckpt'}: checkpoint not named by this run; "
                                       "train into an empty directory\n")
    assert files(run) == written


def test_embed_refuses_an_out_holding_an_embedding_it_would_not_overwrite(trained, tmp_path, capsys):
    data, checkpoint = trained
    emb = tmp_path / "emb"
    args = ["embed", "--checkpoint", str(checkpoint), "--data", str(data), "--out", str(emb)]
    assert cli.main(args) == 0
    written = files(emb)
    assert cli.main(args) == 0
    assert files(emb) == written
    # A stray embedding, and one embedding changed so that a rewrite would show.
    save_features(emb / "stale.emb.avf", np.ones((4, 1)))
    save_features(emb / sorted(written)[0], np.zeros((4, 1)))
    before = files(emb)
    capsys.readouterr()
    assert cli.main(args) == 2
    assert capsys.readouterr().err == (f"error: {emb / 'stale.emb.avf'}: embedding not named by this run; "
                                       "embed into an empty directory\n")
    assert files(emb) == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_reports_divergence_as_an_error(trained, tmp_path, capsys):
    data, _ = trained
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(run), "--epochs", "2",
                     "--learning-rate", "1e300", "--iterations", "2", "--blstm-hidden", "3",
                     "--asp-hidden", "3", "--embed-dim", "4", "--batch-size", "4", *DIMS]) == 2
    # The checkpoint's first tensor in name order that cannot be stored is named.
    assert capsys.readouterr().err == (f"error: epoch 0: {run / 'epoch_000.ckpt'}: tensor 'aam.weights': -inf "
                                       "at index (0, 0) is not a finite single-precision value\n")
    assert not (run / "final.ckpt").exists()
    # A diverging run leaves no checkpoint its own loader refuses.
    for path in run.glob("*.ckpt"):
        VerificationModel.from_checkpoint(path)


def test_train_refuses_a_nan_momentum_before_writing(trained, tmp_path, capsys):
    data, _ = trained
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(run), "--epochs", "1",
                     "--optimizer", "momentum", "--momentum", "nan", *DIMS]) == 2
    assert capsys.readouterr().err == "error: momentum must lie in [0, 1)\n"
    assert not run.exists()  # so no checkpoint either


@pytest.mark.parametrize("flags, message", [
    (["--aam-margin", "2"], "margin must lie in [0, pi/2)"),
    (["--aam-scale", "0"], "scale must lie in (0, inf)"),
    (["--seed", "-1"], "seed must be >= 0"),
], ids=["aam_margin", "aam_scale", "negative_seed"])
def test_train_refuses_a_bad_setting_before_writing(trained, tmp_path, capsys, flags, message):
    data, _ = trained
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(run), "--epochs", "1",
                     *flags, *DIMS]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not run.exists()


@pytest.mark.parametrize("command", ["synth", "gradcheck"])
def test_a_negative_seed_is_refused_by_name(tmp_path, capsys, command):
    out = tmp_path / "data"
    assert cli.main([command, "--seed", "-1", *(["--out", str(out)] if command == "synth" else [])]) == 2
    assert capsys.readouterr() == ("", "error: seed must be >= 0\n")
    assert not out.exists()


@pytest.mark.parametrize("held_out", ["1", "0"])
def test_synth_without_target_trials_writes_nothing(tmp_path, capsys, held_out):
    out = tmp_path / "data"
    assert cli.main(["synth", "--out", str(out), "--speakers", "3", "--utts-per-speaker", "3",
                     "--eval-utts-per-speaker", held_out, *DIMS]) == 2
    assert capsys.readouterr().err == (f"error: --eval-utts-per-speaker {held_out} gives no target "
                                       "trials; hold out at least 2 utterances per speaker\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "train", "synth"])
def test_a_flag_prefix_is_refused_and_writes_nothing(trained, tmp_path, capsys, command):
    # Each prefix names one flag, --scores-out, --iterations and --speakers, and
    # the command would run to the end with that flag in full.
    data, checkpoint = trained
    out = tmp_path / "out"
    args = {
        "evaluate": evaluate_args(data, tmp_path, "--system", "rjca", "--checkpoint", str(checkpoint),
                                  "--scores", str(out)),
        "train": ["train", "--data", str(data), "--out", str(out), "--epochs", "1", "--iter", "5",
                  "--blstm-hidden", "3", "--asp-hidden", "3", "--embed-dim", "4", *DIMS],
        "synth": ["synth", "--out", str(out), "--speak", "7", "--utts-per-speaker", "3", *DIMS],
    }[command]
    with pytest.raises(SystemExit) as refused:
        cli.main(args)
    assert refused.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err
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


@pytest.mark.parametrize("flag", ["--c-miss", "--c-fa"])
def test_evaluate_refuses_a_nan_cost(trained, tmp_path, capsys, flag):
    data, _ = trained
    assert cli.main(evaluate_args(data, tmp_path, "--system", "audio", flag, "nan")) == 2
    assert capsys.readouterr().err == "error: costs must lie in (0, inf)\n"


def test_gradcheck_passes_one_row_per_layer_check_in_order(capsys):
    assert cli.main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = lines[3:-2]
    assert lines[0] == "seed = 0"
    assert [row.split()[0] for row in rows] == list(gradcheck.LAYER_CHECKS)
    assert all(row.split()[-1] == "PASS" for row in rows)
    assert lines[-2:] == ["", "gradcheck: PASS (tolerance 0.0001)"]


def test_gradcheck_over_tolerance_exits_one_with_a_fail_row(capsys, monkeypatch):
    monkeypatch.setattr(gradcheck, "LAYER_CHECKS", {"asp": gradcheck.LAYER_CHECKS["asp"]})
    monkeypatch.setattr(gradcheck, "TOLERANCE", 1e-30)
    assert cli.main(["gradcheck"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].split()[0] == "asp" and lines[3].split()[-1] == "FAIL"
    assert lines[-1] == "gradcheck: FAIL (tolerance 1e-30)"
