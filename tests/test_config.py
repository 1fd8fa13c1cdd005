"""Training config: field validation, CLI flags derived from the fields, text round trip,
and the defaults other modules read from it."""

import inspect
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfuse import cli, gradcheck
from avfuse.config import ConfigError, TrainConfig, config_to_text, load_config, parse_config_text
from avfuse.featio import load_dataset
from avfuse.fusion import JcaStepParams
from avfuse.model import VerificationModel
from avfuse.objective import AamHead
from avfuse.synthetic import SyntheticSpec, generate_dataset


def parse_train_args(*flags):
    return cli.build_parser().parse_args(["train", "--data", "d", "--out", "o", *flags])


def test_unknown_fusion_mode_rejected():
    with pytest.raises(ConfigError, match="fusion"):
        TrainConfig(fusion="gated")


def test_every_field_has_a_cli_flag():
    for field in fields(TrainConfig):
        args = parse_train_args(f"--{field.name.replace('_', '-')}", "7")
        assert getattr(args, field.name) == "7", field.name


def test_flags_reach_the_resolved_config():
    config = cli._resolve_config(parse_train_args("--use-blstm", "false", "--iterations", "2"))
    assert config == TrainConfig(use_blstm=False, iterations=2)


def test_malformed_flag_value_is_a_reported_error(tmp_path, capsys):
    code = cli.main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "run"),
                     "--iterations", "x"])
    assert code == 2
    assert "error: iterations: expected an integer, got 'x'" in capsys.readouterr().err


def test_defaults_restated_elsewhere_are_the_train_config_defaults(tmp_path):
    config = TrainConfig()
    spec = SyntheticSpec()
    generate_dataset(spec, tmp_path)
    utterance = load_dataset(tmp_path)["spk000_utt00"]
    assert utterance.audio.shape == (config.audio_dim, config.segments)
    assert utterance.visual.shape == (config.visual_dim, config.segments)
    model = VerificationModel(config, n_speakers=spec.n_speakers)
    assert model.embed(utterance.audio, utterance.visual).shape == (config.embed_dim,)
    head = AamHead.init(3, 4, np.random.default_rng(0))
    for built in (head, AamHead(head.weights)):
        assert (built.scale, built.margin) == (config.aam_scale, config.aam_margin)
    for function in (JcaStepParams.shapes, JcaStepParams.init, gradcheck.check_fusion):
        assert inspect.signature(function).parameters["fusion"].default == config.fusion
    evaluate_args = cli.build_parser().parse_args(["evaluate", "--data", "d", "--trials", "t"])
    assert evaluate_args.system == config.fusion


def test_default_config_text_round_trip():
    assert TrainConfig(**parse_config_text(config_to_text(TrainConfig()))) == TrainConfig()


# Lines built from real keys, separators and values of every field type, plus arbitrary text.
_CONFIG_TEXT = st.one_of(
    st.text(max_size=48),
    st.lists(st.sampled_from(["epochs", "use_blstm", "learning_rate", "fusion", "bogus", "=", " = ",
                              "#", "3", "-1", "true", "no", "0.5", "nan", "1e999", "x", "\n", "\r",
                              "\x0b", "\u2028"]),
             max_size=16).map("".join),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(text=_CONFIG_TEXT)
def test_arbitrary_config_text_parses_or_raises_a_config_error(text):
    try:
        parse_config_text(text)
    except ConfigError:
        pass


def test_repeated_key_is_a_config_error_naming_both_lines():
    with pytest.raises(ConfigError, match="config line 3: key 'seed' already set on line 1"):
        parse_config_text("seed = 1\nepochs = 2\nseed = 2\n")


@pytest.mark.parametrize("content, message", [
    (b"epochs = 1\nbogus = 3\n", "config line 2: unknown key 'bogus'"),
    (b"seed = \xff\n", "'utf-8' codec can't decode byte 0xff"),
], ids=["unknown_key", "not_utf8"])
def test_bad_config_file_is_reported_with_its_path(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(content)
    code = cli.main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "run"),
                     "--config", str(bad)])
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {bad}: {message}")


@pytest.mark.parametrize("build, message", [
    (lambda: TrainConfig(embed_dim=0), "embed_dim must be >= 1"),
    (lambda: TrainConfig(optimizer="sgd"), "optimizer must be one of ('adam', 'momentum'), got 'sgd'"),
    (lambda: TrainConfig(learning_rate=-1e-3), "learning_rate must lie in [0, inf)"),
    (lambda: TrainConfig(learning_rate=math.nan), "learning_rate must lie in [0, inf)"),
    (lambda: load_config(None, {"learning_rate": "inf"}), "learning_rate must lie in [0, inf)"),
    (lambda: TrainConfig(momentum=math.nan), "momentum must lie in [0, 1)"),
    (lambda: TrainConfig(momentum=-3.0), "momentum must lie in [0, 1)"),
    (lambda: TrainConfig(momentum=1.0), "momentum must lie in [0, 1)"),
    (lambda: TrainConfig(momentum=math.inf), "momentum must lie in [0, 1)"),
    (lambda: load_config(None, {"momentum": "nan"}), "momentum must lie in [0, 1)"),
    (lambda: load_config(None, {"momentum": "-3"}), "momentum must lie in [0, 1)"),
    (lambda: load_config(None, {"momentum": "1.0"}), "momentum must lie in [0, 1)"),
    (lambda: load_config(None, {"momentum": "inf"}), "momentum must lie in [0, 1)"),
    (lambda: TrainConfig(score_fusion_weight=-0.1), "score_fusion_weight must lie in [0, 1]"),
    (lambda: TrainConfig(score_fusion_weight=1.5), "score_fusion_weight must lie in [0, 1]"),
    (lambda: TrainConfig(seed=-1), "seed must be >= 0"),
    (lambda: load_config(None, {"seed": "-1"}), "seed must be >= 0"),
    (lambda: load_config(None, {"use_blstm": "maybe"}), "use_blstm: expected a boolean, got 'maybe'"),
    (lambda: load_config(None, {"learning_rate": "fast"}), "learning_rate: expected a number, got 'fast'"),
], ids=["int_below_one", "unknown_optimizer", "negative_learning_rate", "nan_learning_rate",
        "infinite_learning_rate", "nan_momentum", "negative_momentum", "unit_momentum",
        "infinite_momentum", "nan_momentum_flag", "negative_momentum_flag", "unit_momentum_flag",
        "infinite_momentum_flag", "fusion_weight_below_zero",
        "fusion_weight_above_one", "negative_seed", "negative_seed_flag", "bad_boolean", "bad_number"])
def test_invalid_field_values_are_config_errors_naming_the_field(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as info:
        build()
    assert info.type is ConfigError
