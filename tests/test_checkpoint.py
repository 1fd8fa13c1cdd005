"""Checkpoint container: round trip and atomic replacement on a failed save."""

import os

import numpy as np
import pytest

from avfuse import checkpoint
from avfuse.checkpoint import load_checkpoint, save_checkpoint


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
