"""Checkpoint container: round trip, atomic replacement on a failed save, malformed headers
and malformed config snapshots."""

import os
import struct

import numpy as np
import pytest

from avfuse import checkpoint
from avfuse.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from avfuse.config import TrainConfig, config_to_text
from avfuse.featio import TruncatedPayloadError
from avfuse.model import VerificationModel


def test_round_trip_is_canonical(tmp_path):
    tensors = {"b": np.arange(6.0).reshape(2, 3), "a": np.array([0.5, -1.25])}
    save_checkpoint(tmp_path / "one.ckpt", tensors, "seed = 1\n")
    loaded, config_text = load_checkpoint(tmp_path / "one.ckpt")
    assert config_text == "seed = 1\n"
    assert sorted(loaded) == ["a", "b"]
    assert np.array_equal(loaded["b"], tensors["b"])
    save_checkpoint(tmp_path / "two.ckpt", loaded, config_text)
    assert (tmp_path / "one.ckpt").read_bytes() == (tmp_path / "two.ckpt").read_bytes()


def test_failed_save_keeps_previous_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "final.ckpt"
    save_checkpoint(target, {"w": np.ones((2, 2))}, "seed = 1\n")
    previous = target.read_bytes()

    real_open = open

    class TornWriter:
        """Writes the first half of the payload, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(checkpoint, "open", lambda *a, **k: TornWriter(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(target, {"w": np.zeros((3, 3))}, "seed = 2\n")
    assert target.read_bytes() == previous
    assert os.listdir(tmp_path) == ["final.ckpt"]


def tensor_entry(name: bytes, shape: tuple[int, ...], values=()) -> bytes:
    """One hand-built AVCK tensor: name, rank, extents and the given payload values."""
    return (struct.pack("<H", len(name)) + name + struct.pack(f"<B{len(shape)}I", len(shape), *shape)
            + np.asarray(values, "<f4").tobytes())


def checkpoint_bytes(config: bytes, *entries: bytes) -> bytes:
    """A hand-built AVCK file holding the given tensor entries."""
    return b"AVCK" + struct.pack("<II", 1, len(config)) + config + struct.pack("<I", len(entries)) + b"".join(entries)


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
    save_checkpoint(tmp_path / "poisoned.ckpt", tensors, config_text)
    with pytest.raises(CheckpointError, match="poisoned.ckpt: tensor 'asp.bias' holds a non-finite value"):
        VerificationModel.from_checkpoint(tmp_path / "poisoned.ckpt")


@pytest.mark.parametrize("speaker_lines, message", [
    ("n_speakers = x\n", "n_speakers: expected an integer, got 'x'"),
    ("n_speakers = 3\nn_speakers = 4\n", "2 n_speakers lines, expected one"),
    ("n_speakers_total = 3\n", "0 n_speakers lines, expected one"),
    ("n_speakers = 3\nn_speakers_total = 4\n", "unknown key 'n_speakers_total'"),
], ids=["not_an_integer", "repeated", "prefix_only", "prefix_next_to_key"])
def test_bad_n_speakers_lines_are_a_checkpoint_error(tmp_path, speaker_lines, message):
    # The key is matched exactly: a prefix match would read n_speakers_total as the count.
    config = (config_to_text(TrainConfig()) + speaker_lines).encode()
    (tmp_path / "speakers.ckpt").write_bytes(checkpoint_bytes(config))
    with pytest.raises(CheckpointError, match=f"speakers.ckpt: .*{message}"):
        VerificationModel.from_checkpoint(tmp_path / "speakers.ckpt")
