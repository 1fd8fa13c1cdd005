"""Training: bitwise reproducibility, the per-sample reference, and the non-finite guards."""

import numpy as np
import pytest

from avfuse import autodiff as ad
from avfuse.autodiff import Tape
from avfuse.config import TrainConfig
from avfuse.featio import load_dataset, manifest_entries
from avfuse.model import VerificationModel
from avfuse.synthetic import SyntheticSpec, generate_dataset
from avfuse.training import DivergenceError, Optimizer, speaker_index_map, train


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
        # The reverse direction's output passes through one more recorded op
        # whose backward hands its gradient on unchanged and emits NaN for the
        # recurrent weights; the forward value, and so the loss, stays finite.
        out = real_lstm(x, w_input, w_recurrent, bias, reverse)
        if not reverse:
            return out
        passed = ad.Tensor._wrap(out.data)

        def backward(g):
            ad._accumulate(out, g)
            ad._accumulate(w_recurrent, np.full(w_recurrent.shape, np.nan))

        ad._record(backward, passed)
        return passed

    monkeypatch.setattr(ad, "lstm", poisoned_lstm)
    with pytest.raises(DivergenceError, match=r"epoch 0, parameter blstm\.bw\.w_recurrent"):
        train(tiny_config(), tiny_train_set, tmp_path)
    assert not (tmp_path / "final.ckpt").exists()


def reference_epoch_losses(config, utts):
    """The per-sample loop batched training replaced: one tape per utterance."""
    speakers = speaker_index_map(utts)
    model = VerificationModel(config, n_speakers=len(speakers))
    optimizer = Optimizer(list(model.named_parameters().values()), config)
    shuffle_rng = np.random.default_rng(config.seed + 1)
    order = sorted(range(len(utts)), key=lambda i: utts[i].utt_id)
    epoch_losses = []
    for _ in range(config.epochs):
        perm = shuffle_rng.permutation(len(order))
        losses = []
        for start in range(0, len(perm), config.batch_size):
            batch = [utts[order[i]] for i in perm[start:start + config.batch_size]]
            model.zero_grads()
            for utt in batch:
                with Tape() as tape:
                    loss = model.loss(utt.audio, utt.visual, speakers[utt.speaker_id])
                tape.backward(loss, seed=1.0 / len(batch))
                losses.append(loss.item())
            optimizer.step()
        epoch_losses.append(float(np.mean(losses)))
        model.quantize_single_precision()
    return epoch_losses


def test_batched_training_matches_per_sample_loop(tiny_train_set, tmp_path):
    config = tiny_config()
    result = train(config, tiny_train_set, tmp_path)
    reference = reference_epoch_losses(config, tiny_train_set)
    assert len(result.epoch_losses) == len(reference) == 2
    for got, want in zip(result.epoch_losses, reference):
        assert abs(got - want) <= 1e-9 * abs(want)


def test_non_finite_loss_names_its_utterance(tiny_train_set, tmp_path, monkeypatch):
    config = tiny_config()
    real_cross_entropy = ad.cross_entropy_index

    def poisoned(logits, index):
        # NaN in the second utterance of the batch, the others left finite.
        out = real_cross_entropy(logits, index)
        out.data[1] = np.nan
        return out

    monkeypatch.setattr(ad, "cross_entropy_index", poisoned)
    order = sorted(tiny_train_set, key=lambda u: u.utt_id)
    perm = np.random.default_rng(config.seed + 1).permutation(len(order))
    second = order[perm[1]].utt_id
    with pytest.raises(DivergenceError, match=rf"epoch 0, utterance {second}$"):
        train(config, tiny_train_set, tmp_path)
    assert not (tmp_path / "final.ckpt").exists()
