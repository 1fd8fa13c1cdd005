"""One forward over a (B, dim, segments) batch equals B single-utterance forwards."""

import re

import numpy as np
import pytest

from avfuse import autodiff as ad
from avfuse.autodiff import Constant, Tape, Tensor, named_tensors
from avfuse.config import FUSION_MODES, ConfigError, TrainConfig
from avfuse.fusion import fuse
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


@pytest.mark.parametrize("name", ["rjca", "concat"])
@pytest.mark.parametrize("modality, shape", [("audio", (BATCH, 3, 6)), ("visual", (BATCH, 2, 6)),
                                             ("audio", (BATCH, 4, 4)), ("visual", (BATCH, 3, 4))])
def test_fuse_refuses_features_off_the_config_dims(name, modality, shape):
    model = tiny_model(**CONFIGS[name])
    audio, visual, _ = tiny_batch()
    inputs = {"audio": audio, "visual": visual, modality: np.ones(shape)}
    dims = (3, 4) if modality == "audio" else (2, 4)
    message = (f"{modality} features of shape {shape} do not match the model's "
               f"({modality}_dim, segments) = {dims}")
    with pytest.raises(ad.ShapeError, match=re.escape(message)):
        model.embed(inputs["audio"], inputs["visual"])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("modality", ["audio", "visual"])
@pytest.mark.parametrize("batched", [False, True])
def test_non_finite_features_raise_from_embed(batched, modality, value):
    # The features are held without a copy, but still screened.
    model = tiny_model()
    audio, visual, _ = tiny_batch()
    inputs = {"audio": audio, "visual": visual} if batched else {"audio": audio[0], "visual": visual[0]}
    inputs[modality][..., 1, 2] = value
    with pytest.raises(ad.NonFiniteError):
        model.embed(inputs["audio"], inputs["visual"])


# Each mode's fusion stage as the paper defines it: step count, and each step's
# correlation projections (audio, visual) keyed on the joint stack or the other modality.
JOINT_KEY = {"corr_proj_audio": (3, 5), "corr_proj_visual": (2, 5)}
CROSS_KEY = {"corr_proj_audio": (3, 2), "corr_proj_visual": (2, 3)}
PAPER_STAGES = {"rjca": (3, JOINT_KEY), "cross_attention": (1, CROSS_KEY), "concat": (0, None)}


@pytest.mark.parametrize("fusion", FUSION_MODES)
def test_each_fusion_mode_builds_the_stage_the_paper_defines(fusion):
    model = tiny_model(fusion=fusion)
    n_steps, key_shapes = PAPER_STAGES[fusion]
    assert len(model.fusion_steps) == n_steps
    assert model.cross == (key_shapes is CROSS_KEY)
    for step in model.fusion_steps:
        shapes = {name: t.shape for name, t in named_tensors(step).items()}
        assert {name: shapes[name] for name in key_shapes} == key_shapes
    # With no steps there is no key, so the key rule changes nothing.
    audio, visual, _ = tiny_batch()
    assert fuse(Tensor(audio), Tensor(visual), [], cross=True).data.tobytes() == \
        fuse(Tensor(audio), Tensor(visual), []).data.tobytes()


@pytest.mark.parametrize("use_blstm", [True, False])
@pytest.mark.parametrize("fusion", ["rjca", "cross_attention", "concat"])
def test_embed_and_loss_leave_the_callers_features_unchanged(fusion, use_blstm):
    # The model holds float64 C-contiguous features as they are, a batch's
    # items (views) included, and writes to none of them.
    model = tiny_model(fusion=fusion, use_blstm=use_blstm)
    audio, visual, labels = tiny_batch()
    kept = audio.tobytes(), visual.tobytes()
    for a, v, y in ((audio, visual, labels), (audio[0], visual[0], int(labels[0]))):
        model.embed(a, v)
        with Tape() as tape:
            loss = ad.sum_all(model.loss(a, v, y))
        tape.backward(loss)
    assert (audio.tobytes(), visual.tobytes()) == kept


def test_single_utterance_loss_is_one_value():
    model = tiny_model()
    audio, visual, labels = tiny_batch()
    loss = model.loss(audio[0], visual[0], int(labels[0]))
    assert loss.shape == (1, 1)
    assert np.isfinite(loss.item())


# Per config: overrides, then model.loss tape records on Tensor and on Constant
# inputs.  The default model, and fusion_deep's shape: RJCA at T=5 over 32
# segments, no BLSTM.  The fusion stage is one record in every mode, on
# constant inputs too, so each layer is one record.
FULL_SIZE = {
    "default": ({}, 5, 5),
    "fusion_deep": ({"segments": 32, "iterations": 5, "use_blstm": False}, 4, 4),
    "concat": ({"fusion": "concat"}, 5, 5),
    "concat_no_blstm": ({"fusion": "concat", "use_blstm": False}, 4, 4),
    "cross_attention": ({"fusion": "cross_attention"}, 5, 5),
}


def _embed_stack(model, audio, visual):
    """``model.embed_tensors`` without its constant inputs: whatever leaves
    come in, Tensor or Constant, the fusion stage attends them as they are."""
    fused = fuse(audio, visual, model.fusion_steps, model.cross)
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


def state_with(model, name, shape):
    """The model's parameter arrays with the named one swapped for zeros of ``shape``."""
    arrays = {n: t.data for n, t in model.named_parameters().items()}
    arrays[name] = np.zeros(shape)
    return arrays


@pytest.mark.parametrize("build, message", [
    (lambda: VerificationModel(TrainConfig(), n_speakers=0), "n_speakers must be >= 1"),
    (lambda: tiny_model().load_state(state_with(tiny_model(), "aam.weights", (5, 4))),
     "parameter aam.weights: shape (5, 4) != expected (4, 4)"),
    (lambda: tiny_model().load_state(state_with(tiny_model(), "asp.bias", (3,))),
     "parameter asp.bias: shape (3,) != expected (3, 1)"),
], ids=["no_speakers", "more_classes", "rank_one_bias"])
def test_model_refusals_are_config_errors(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as info:
        build()
    assert info.type is ConfigError
