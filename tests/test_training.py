"""Training: bitwise reproducibility and the non-finite gradient guard."""

import numpy as np
import pytest

from avfuse import autodiff as ad
from avfuse.config import TrainConfig
from avfuse.featio import load_dataset, manifest_entries
from avfuse.synthetic import SyntheticSpec, generate_dataset
from avfuse.training import DivergenceError, train


@pytest.fixture(scope="module")
def tiny_train_set(tmp_path_factory):
    spec = SyntheticSpec(n_speakers=3, utts_per_speaker=4, audio_dim=3, visual_dim=2,
                         segments=4, latent_dim=2, eval_utts_per_speaker=1, seed=5)
    data_dir = tmp_path_factory.mktemp("data")
    generate_dataset(spec, data_dir)
    utterances = load_dataset(data_dir)
    return [utterances[e.utt_id] for e in manifest_entries(data_dir) if e.split == "train"]


def tiny_config(**overrides):
    values = dict(audio_dim=3, visual_dim=2, segments=4, iterations=2, blstm_hidden=3,
                  asp_hidden=3, embed_dim=4, batch_size=4, epochs=2, seed=11)
    values.update(overrides)
    return TrainConfig(**values)


def test_same_config_gives_byte_identical_checkpoint_and_log(tiny_train_set, tmp_path):
    runs = [train(tiny_config(), tiny_train_set, tmp_path / name) for name in ("a", "b")]
    first, second = runs
    assert first.checkpoint_path.read_bytes() == second.checkpoint_path.read_bytes()
    assert first.log_path.read_bytes() == second.log_path.read_bytes()
    for epoch in range(2):
        name = f"epoch_{epoch:03d}.ckpt"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_non_finite_gradient_stops_training_and_names_the_parameter(tiny_train_set, tmp_path,
                                                                     monkeypatch):
    real_lstm = ad.lstm

    def poisoned_lstm(x, w_input, w_recurrent, bias, reverse=False):
        # A backward that emits NaN for the backward direction's recurrent
        # weights while leaving the forward value, and so the loss, finite.
        out = real_lstm(x, w_input, w_recurrent, bias, reverse)
        if reverse:
            ad._record(lambda: ad._accumulate(w_recurrent, np.full(w_recurrent.shape, np.nan)),
                       (w_recurrent,))
        return out

    monkeypatch.setattr(ad, "lstm", poisoned_lstm)
    with pytest.raises(DivergenceError, match=r"epoch 0, parameter blstm\.bw\.w_recurrent"):
        train(tiny_config(), tiny_train_set, tmp_path)
    assert not (tmp_path / "final.ckpt").exists()
