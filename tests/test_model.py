"""One forward over a (B, dim, segments) batch equals B single-utterance forwards."""

import numpy as np
import pytest

from avfuse import autodiff as ad
from avfuse.autodiff import Constant, Tape, Tensor
from avfuse.config import TrainConfig
from avfuse.fusion import cross_attention_step, joint_representation, rjca_forward
from avfuse.model import VerificationModel
from avfuse.objective import aam_loss
from avfuse.temporal import asp, blstm_forward, project_embedding

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


def zero_grads(model):
    for tensor in model.named_parameters().values():
        tensor.grad = None


def gradients(model):
    return {name: None if t.grad is None else t.grad.copy()
            for name, t in model.named_parameters().items()}


def per_sample(model, audio, visual, labels):
    """The reference: one tape and one backward per utterance, seeded 1/B."""
    zero_grads(model)
    losses = []
    for b in range(len(labels)):
        with Tape() as tape:
            loss = model.loss(audio[b], visual[b], int(labels[b]))
        tape.backward(loss, seed=1.0 / len(labels))
        losses.append(loss.item())
    return np.array(losses), gradients(model)


def batched(model, audio, visual, labels):
    zero_grads(model)
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


# Per config: overrides, then model.loss tape records on Tensor and on Constant
# inputs.  The default model, and fusion_deep's shape: RJCA at T=5 over 32
# segments, no BLSTM.  Two-way cross-attention stacks no raw inputs, so it
# keeps its count.
FULL_SIZE = {
    "default": ({}, 15, 14),
    "fusion_deep": ({"segments": 32, "iterations": 5, "use_blstm": False}, 20, 19),
    "concat": ({"fusion": "concat"}, 6, 5),
    "concat_no_blstm": ({"fusion": "concat", "use_blstm": False}, 5, 4),
    "cross_attention": ({"fusion": "cross_attention"}, 8, 8),
}


def _embed_stack(model, audio, visual):
    """``model.embed_tensors`` without its constant inputs: whatever leaves
    come in, Tensor or Constant, the fusion stage attends them as they are."""
    config = model.config
    if config.fusion == "rjca":
        steps = model.fusion_steps * (config.iterations if config.share_fusion_weights else 1)
        fused = rjca_forward(audio, visual, steps).joint
    elif config.fusion == "cross_attention":
        fused = cross_attention_step(audio, visual, model.cross_params).joint
    else:
        fused = joint_representation(audio, visual)
    if model.blstm is not None:
        fused = blstm_forward(fused, model.blstm)
    return project_embedding(asp(fused, model.asp), model.projection)


def _loss_backward(model, forward, batch):
    """Run ``forward`` for the losses and backward of their mean: the loss's tape
    records, the losses and the parameter gradients."""
    zero_grads(model)
    with Tape() as tape:
        losses = forward()
    records = len(tape)
    with tape:
        total = ad.sum_all(losses)
    tape.backward(total, seed=1.0 / batch)
    return records, losses.data.tobytes(), {name: g.tobytes() for name, g in gradients(model).items()}


@pytest.mark.parametrize("name", list(FULL_SIZE))
def test_constant_inputs_give_bitwise_the_tensor_inputs_parameter_gradients(name):
    overrides, tensor_records, constant_records = FULL_SIZE[name]
    config = TrainConfig(**overrides)
    model = VerificationModel(config, n_speakers=N_SPEAKERS)
    rng = np.random.default_rng(5)
    audio = rng.standard_normal((6, config.audio_dim, config.segments))
    visual = rng.standard_normal((6, config.visual_dim, config.segments))
    labels = rng.integers(0, N_SPEAKERS, size=6)
    tensors, constants = (Tensor(audio), Tensor(visual)), (Constant(audio), Constant(visual))
    runs = [_loss_backward(model, lambda: aam_loss(_embed_stack(model, *inputs), labels, model.aam), 6)
            for inputs in (tensors, constants)]
    runs.append(_loss_backward(model, lambda: model.loss(audio, visual, labels), 6))  # constants inside
    # The fusion stage on Tensor inputs, as a layer-by-layer probe runs it, is
    # the model's: it takes them as constants too.
    runs.append(_loss_backward(model, lambda: aam_loss(model.embed_tensors(*tensors), labels, model.aam), 6))
    assert [records for records, _, _ in runs] == [tensor_records] + 3 * [constant_records]
    assert all(t.grad is not None for t in tensors)
    assert all(t.grad is None for t in constants)
    assert all(run[1:] == runs[0][1:] for run in runs[1:])
