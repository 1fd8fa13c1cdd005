"""One forward over a (B, dim, segments) batch equals B single-utterance forwards."""

import numpy as np
import pytest

from avfuse import autodiff as ad
from avfuse.autodiff import Tape
from avfuse.config import TrainConfig
from avfuse.model import VerificationModel

BATCH = 3
N_SPEAKERS = 4

CONFIGS = {
    "rjca": {},
    "share_fusion_weights": {"share_fusion_weights": True},
    "concat": {"fusion": "concat"},
    "cross_attention": {"fusion": "cross_attention"},
    "no_blstm": {"use_blstm": False},
}


def tiny_model(**overrides):
    values = dict(audio_dim=3, visual_dim=2, segments=4, iterations=3, blstm_hidden=3,
                  asp_hidden=3, embed_dim=4, seed=21)
    values.update(overrides)
    return VerificationModel(TrainConfig(**values), n_speakers=N_SPEAKERS)


def tiny_batch(seed=0):
    rng = np.random.default_rng(seed)
    audio = rng.uniform(-1, 1, size=(BATCH, 3, 4))
    visual = rng.uniform(-1, 1, size=(BATCH, 2, 4))
    labels = np.array([1, 3, 1])
    return audio, visual, labels


def gradients(model):
    return {name: None if t.grad is None else t.grad.copy()
            for name, t in model.named_parameters().items()}


def per_sample(model, audio, visual, labels):
    """The reference: one tape and one backward per utterance, seeded 1/B."""
    model.zero_grads()
    losses = []
    for b in range(len(labels)):
        with Tape() as tape:
            loss = model.loss(audio[b], visual[b], int(labels[b]))
        tape.backward(loss, seed=1.0 / len(labels))
        losses.append(loss.item())
    return np.array(losses), gradients(model)


def batched(model, audio, visual, labels):
    model.zero_grads()
    with Tape() as tape:
        losses = model.loss(audio, visual, labels)
        total = ad.sum_all(losses)
    tape.backward(total, seed=1.0 / len(labels))
    assert losses.shape == (len(labels), 1, 1)
    return losses.data.reshape(-1), gradients(model)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_batched_losses_and_gradients_match_per_sample(name):
    model = tiny_model(**CONFIGS[name])
    data = tiny_batch()
    ref_losses, ref_grads = per_sample(model, *data)
    losses, grads = batched(model, *data)
    assert np.abs(losses - ref_losses).max() <= 1e-12
    assert grads.keys() == ref_grads.keys()
    for param, grad in grads.items():
        assert grad is not None and ref_grads[param] is not None, param
        assert np.abs(grad - ref_grads[param]).max() <= 1e-12, param


@pytest.mark.parametrize("name", list(CONFIGS))
def test_batched_embed_rows_match_single_embeds(name):
    model = tiny_model(**CONFIGS[name])
    audio, visual, _ = tiny_batch(seed=1)
    rows = model.embed(audio, visual)
    assert rows.shape == (BATCH, 4)
    for b in range(BATCH):
        single = model.embed(audio[b], visual[b])
        assert single.shape == (4,)
        assert np.abs(rows[b] - single).max() <= 1e-12


def test_single_utterance_loss_is_one_value():
    model = tiny_model()
    audio, visual, labels = tiny_batch()
    loss = model.loss(audio[0], visual[0], int(labels[0]))
    assert loss.shape == (1, 1)
    assert np.isfinite(loss.item())
