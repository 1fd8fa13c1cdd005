"""Checkpoint container: round trip, atomic replacement on a failed save, malformed headers
and malformed config snapshots."""

import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfuse.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from avfuse.config import FIELD_TYPES, ConfigError, TrainConfig, config_to_text
from avfuse.featio import TruncatedPayloadError
from avfuse.model import VerificationModel, parse_config_snapshot


def test_round_trip_is_canonical(tmp_path):
    tensors = {"b": np.arange(6.0).reshape(2, 3), "a": np.array([0.5, -1.25])}
    save_checkpoint(tmp_path / "one.ckpt", tensors, "seed = 1\n")
    loaded, config_text = load_checkpoint(tmp_path / "one.ckpt")
    assert config_text == "seed = 1\n"
    assert sorted(loaded) == ["a", "b"]
    assert np.array_equal(loaded["b"], tensors["b"])
    save_checkpoint(tmp_path / "two.ckpt", loaded, config_text)
    assert (tmp_path / "one.ckpt").read_bytes() == (tmp_path / "two.ckpt").read_bytes()


def test_failed_save_keeps_previous_file_and_leaves_no_temp_file(tmp_path, tear_writes):
    target = tmp_path / "final.ckpt"
    save_checkpoint(target, {"w": np.ones((2, 2))}, "seed = 1\n")
    previous = target.read_bytes()
    tear_writes()
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(target, {"w": np.zeros((3, 3))}, "seed = 2\n")
    assert target.read_bytes() == previous
    assert os.listdir(tmp_path) == ["final.ckpt"]


@pytest.mark.parametrize("shared", [False, True], ids=["per_step", "shared_weights"])
def test_a_saved_model_holds_every_parameter_as_its_checkpoint_stores_it(tmp_path, shared):
    model = VerificationModel(TrainConfig(audio_dim=3, visual_dim=2, segments=4, blstm_hidden=3, asp_hidden=3,
                                          embed_dim=4, share_fusion_weights=shared), n_speakers=3)
    model.save(tmp_path / "final.ckpt")
    tensors, _ = load_checkpoint(tmp_path / "final.ckpt")
    params = model.named_parameters()
    assert sorted(params) == sorted(tensors)
    for name, tensor in params.items():
        assert tensor.data.dtype == np.float64 and tensor.data.tobytes() == tensors[name].tobytes(), name


def tensor_entry(name: bytes, shape: tuple[int, ...], values=()) -> bytes:
    """One hand-built AVCK tensor: name, rank, extents and the given payload values."""
    return (struct.pack("<H", len(name)) + name + struct.pack(f"<B{len(shape)}I", len(shape), *shape)
            + np.asarray(values, "<f4").tobytes())


def checkpoint_bytes(config: bytes, *entries: bytes) -> bytes:
    """A hand-built AVCK file holding the given tensor entries."""
    return b"AVCK" + struct.pack("<II", 1, len(config)) + config + struct.pack("<I", len(entries)) + b"".join(entries)


def with_version(blob: bytes, version: int) -> bytes:
    """A hand-built AVCK file with its format version replaced."""
    return blob[:4] + struct.pack("<I", version) + blob[8:]


@pytest.mark.parametrize("blob, message", [
    (with_version(checkpoint_bytes(b"seed = 1\n", tensor_entry(b"w", (1,), [1.0])), 2),
     "unsupported checkpoint version 2"),
    (checkpoint_bytes(b"", tensor_entry(b"w", ())), "tensor 'w' has rank 0"),
    (checkpoint_bytes(b"", tensor_entry(b"w", (1, 1, 1, 1), [1.0])), "tensor 'w' has rank 4"),
    (checkpoint_bytes(b"", tensor_entry(b"w", (1,), [1.0])) + b"\0", "trailing bytes after last tensor"),
], ids=["version", "rank_0", "rank_4", "trailing_bytes"])
def test_malformed_container_is_a_checkpoint_error_naming_the_path(tmp_path, blob, message):
    (tmp_path / "bad.ckpt").write_bytes(blob)
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(tmp_path / 'bad.ckpt'))}: {message}$") as info:
        load_checkpoint(tmp_path / "bad.ckpt")
    assert info.type is CheckpointError


@pytest.mark.parametrize("config, name, what", [(b"seed = \xff\n", b"w", "config snapshot"),
                                                (b"seed = 1\n", b"w\xc3", "tensor name")])
def test_undecodable_text_is_a_checkpoint_error(tmp_path, config, name, what):
    (tmp_path / "bad.ckpt").write_bytes(checkpoint_bytes(config, tensor_entry(name, (1,))))
    with pytest.raises(CheckpointError, match=f"bad.ckpt: {what} is not UTF-8"):
        load_checkpoint(tmp_path / "bad.ckpt")


def test_extents_whose_product_overflows_int64_are_a_truncated_payload(tmp_path):
    # 2**31 * 2**31 * 4 wraps to 0 in int64, which would read an empty payload.
    (tmp_path / "huge.ckpt").write_bytes(checkpoint_bytes(b"", tensor_entry(b"w", (2**31, 2**31, 4))))
    with pytest.raises(TruncatedPayloadError, match="huge.ckpt: checkpoint truncated"):
        load_checkpoint(tmp_path / "huge.ckpt")


@pytest.mark.parametrize("first, second", [(b"w", b"w"), (b"w", b"b")], ids=["duplicate", "descending"])
def test_names_not_strictly_increasing_are_a_checkpoint_error(tmp_path, first, second):
    # A reader keeping the last of two same-named tensors would load the
    # duplicate file as {"w": [2.0]}.
    blob = checkpoint_bytes(b"seed = 1\n", tensor_entry(first, (1,), [1.0]), tensor_entry(second, (1,), [2.0]))
    (tmp_path / "twice.ckpt").write_bytes(blob)
    with pytest.raises(CheckpointError, match=f"twice.ckpt: tensor names not strictly increasing: "
                                              f"{first.decode()!r} then {second.decode()!r}"):
        load_checkpoint(tmp_path / "twice.ckpt")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_tensor_is_a_checkpoint_error_naming_the_tensor(tmp_path, bad):
    # Loaded silently, a NaN ASP bias makes every embedding NaN.
    model = VerificationModel(TrainConfig(audio_dim=3, visual_dim=2, segments=4, blstm_hidden=3,
                                          asp_hidden=3, embed_dim=4), n_speakers=3)
    model.save(tmp_path / "final.ckpt")
    tensors, config_text = load_checkpoint(tmp_path / "final.ckpt")
    tensors["asp.bias"][1, 0] = bad
    message = rf"poisoned.ckpt: tensor 'asp.bias': {bad} at index \(1, 0\) is not a finite single-precision"
    with pytest.raises(CheckpointError, match=message):
        save_checkpoint(tmp_path / "poisoned.ckpt", tensors, config_text)
    assert sorted(os.listdir(tmp_path)) == ["final.ckpt"]
    entries = [tensor_entry(name.encode(), value.shape, value.reshape(-1))
               for name, value in sorted(tensors.items())]
    (tmp_path / "poisoned.ckpt").write_bytes(checkpoint_bytes(config_text.encode(), *entries))
    with pytest.raises(CheckpointError, match=message):
        VerificationModel.from_checkpoint(tmp_path / "poisoned.ckpt")


@pytest.mark.parametrize("speaker_lines, message", [
    ("n_speakers = x\n", "n_speakers: expected an integer, got 'x'"),
    ("n_speakers = 3\nn_speakers = 4\n", "config line 21: key 'n_speakers' already set on line 20"),
    ("n_speakers_total = 3\n", "config line 20: unknown key 'n_speakers_total'"),
    ("n_speakers = 3\nn_speakers_total = 4\n", "unknown key 'n_speakers_total'"),
    ("", "checkpoint config snapshot has no n_speakers line"),
], ids=["not_an_integer", "repeated", "prefix_only", "prefix_next_to_key", "missing"])
def test_bad_n_speakers_lines_are_a_checkpoint_error(tmp_path, speaker_lines, message):
    # The key is matched exactly: a prefix match would read n_speakers_total as the count.
    config = (config_to_text(TrainConfig()) + speaker_lines).encode()
    (tmp_path / "speakers.ckpt").write_bytes(checkpoint_bytes(config))
    with pytest.raises(CheckpointError, match=f"speakers.ckpt: .*{message}"):
        VerificationModel.from_checkpoint(tmp_path / "speakers.ckpt")



# Values in forms the parser takes, plus ones the parser or the model refuses, by the kind of key.
_SNAPSHOT_VALUES = {"int": [" 1", "2 ", " 3 ", "1_0", "0", "x"], "bool": ["true", " FALSE", "yes", "0", "1", "maybe"],
                    "float": [" 0.5", "1e-3", "-0.0", "3e1", "0.25", "nan"],
                    "fusion": [" rjca", "concat ", "cross_attention", "gated"], "optimizer": ["adam", " momentum", "sgd"]}
_SNAPSHOT_KINDS = {**FIELD_TYPES, "fusion": "fusion", "optimizer": "optimizer", "n_speakers": "int"}


@st.composite
def snapshot_texts(draw):
    """Some TrainConfig fields and the n_speakers line, in any order, with comments and blank lines."""
    keys = draw(st.lists(st.sampled_from(sorted(FIELD_TYPES)), unique=True, max_size=8))
    keys.insert(draw(st.integers(0, len(keys))), "n_speakers")
    ends = st.sampled_from(["\n", "  # note\n", "\n\n"])
    return "".join(f"{key} ={draw(st.sampled_from(_SNAPSHOT_VALUES[_SNAPSHOT_KINDS[key]]))}{draw(ends)}"
                   for key in keys)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(text=snapshot_texts())
def test_a_snapshot_that_parses_is_rendered_back_and_parses_back_equal(text):
    # A snapshot the model refuses to build from (n_speakers 0, scale -0.0) is never saved.
    try:
        config, n_speakers = parse_config_snapshot(text)
        model = VerificationModel(config, n_speakers)
    except ConfigError:
        return
    assert parse_config_snapshot(model._config_snapshot()) == (config, n_speakers)
