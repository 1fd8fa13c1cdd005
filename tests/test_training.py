"""Training: bitwise reproducibility, the per-sample reference, and the non-finite guards."""

import dataclasses
import re

import numpy as np
import pytest

from avfuse import autodiff as ad
from avfuse.autodiff import Tape, Tensor
from avfuse.config import ConfigError, TrainConfig
from avfuse.featio import load_dataset
from avfuse.model import VerificationModel
from avfuse.synthetic import SyntheticSpec, generate_dataset
from avfuse.training import DivergenceError, Optimizer, speaker_index_map, train

from test_model import zero_grads


@pytest.fixture(scope="module")
def tiny_train_set(tmp_path_factory):
    spec = SyntheticSpec(n_speakers=3, utts_per_speaker=4, audio_dim=3, visual_dim=2,
                         segments=4, latent_dim=2, eval_utts_per_speaker=1, seed=5)
    data_dir = tmp_path_factory.mktemp("data")
    generate_dataset(spec, data_dir)
    return [u for u in load_dataset(data_dir).values() if u.split == "train"]


def tiny_config(**overrides):
    values = dict(audio_dim=3, visual_dim=2, segments=4, iterations=2, blstm_hidden=3,
                  asp_hidden=3, embed_dim=4, batch_size=4, epochs=2, seed=11)
    values.update(overrides)
    return TrainConfig(**values)


# Every fusion mode, with and without the BLSTM: the optimizer has no path for a
# parameter that one batched backward leaves without a gradient.
GRADIENT_CONFIGS = {
    "rjca": {},
    "shared_weights": dict(share_fusion_weights=True),
    "cross_attention": dict(fusion="cross_attention"),
    "concat": dict(fusion="concat"),
    "rjca_t5_no_blstm": dict(iterations=5, use_blstm=False),
    "concat_no_blstm": dict(fusion="concat", use_blstm=False),
    "cross_attention_no_blstm": dict(fusion="cross_attention", use_blstm=False),
}


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("overrides", list(GRADIENT_CONFIGS.values()), ids=list(GRADIENT_CONFIGS))
def test_one_batched_backward_reaches_every_parameter(tiny_train_set, overrides, batch):
    speakers = speaker_index_map(tiny_train_set)
    model = VerificationModel(tiny_config(**overrides), n_speakers=len(speakers))
    utts = tiny_train_set[:batch]
    with Tape() as tape:
        losses = model.loss(np.stack([u.audio for u in utts]), np.stack([u.visual for u in utts]),
                            np.array([speakers[u.speaker_id] for u in utts]))
        total = ad.sum_all(losses)
    tape.backward(total)
    named = model.named_parameters()
    assert [name for name, t in named.items() if t.grad is None] == []
    assert all(t.grad.shape == t.data.shape for t in named.values())


def test_same_config_gives_byte_identical_checkpoint_and_log(tiny_train_set, tmp_path):
    runs = [train(tiny_config(), tiny_train_set, tmp_path / name) for name in ("a", "b")]
    first, second = runs
    assert first.checkpoint_path.read_bytes() == second.checkpoint_path.read_bytes()
    assert first.log_path.read_bytes() == second.log_path.read_bytes()
    for epoch in range(2):
        name = f"epoch_{epoch:03d}.ckpt"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_a_run_stopped_at_a_later_epoch_keeps_the_log_of_its_checkpoints(tiny_train_set, tmp_path,
                                                                         monkeypatch):
    full = train(tiny_config(), tiny_train_set, tmp_path / "full")
    save, calls = VerificationModel.save, []

    def poisoning_second_call(model, path):
        calls.append(path)
        if len(calls) == 2:
            model.aam.weights.data[0, 0] = np.inf
        save(model, path)

    monkeypatch.setattr(VerificationModel, "save", poisoning_second_call)
    stopped = tmp_path / "stopped"
    message = (f"epoch 1: {stopped / 'epoch_001.ckpt'}: tensor 'aam.weights': inf at index (0, 0) "
               "is not a finite single-precision value")
    with pytest.raises(DivergenceError, match=f"^{re.escape(message)}$"):
        train(tiny_config(), tiny_train_set, stopped)
    assert sorted(p.name for p in stopped.iterdir()) == ["epoch_000.ckpt", "train_log.txt"]
    assert (stopped / "epoch_000.ckpt").read_bytes() == (tmp_path / "full" / "epoch_000.ckpt").read_bytes()
    first_line = full.log_path.read_bytes().splitlines(keepends=True)[0]
    assert (stopped / "train_log.txt").read_bytes() == first_line == b"epoch 0 loss %r\n" % full.epoch_losses[0]


def test_non_finite_gradient_stops_training_and_names_the_parameter(tiny_train_set, tmp_path,
                                                                     monkeypatch):
    real_blstm = ad.blstm

    def poisoned_blstm(x, forward, backward):
        # The output passes through one more recorded op whose backward
        # hands its gradient on unchanged and emits NaN for the backward
        # direction's recurrent weights; the forward value, and so the loss,
        # stays finite.
        out = real_blstm(x, forward, backward)
        passed = ad.Tensor._wrap(out.data)
        w_recurrent = backward[1]

        def backward_pass(g):
            ad._accumulate(out, g)
            ad._accumulate(w_recurrent, np.full(w_recurrent.shape, np.nan))

        ad._record(backward_pass, passed)
        return passed

    monkeypatch.setattr(ad, "blstm", poisoned_blstm)
    with pytest.raises(DivergenceError, match=r"step 1, parameter blstm\.bw\.w_recurrent"):
        train(tiny_config(), tiny_train_set, tmp_path)
    assert not (tmp_path / "final.ckpt").exists()


def reference_epoch_losses(config, utts, path):
    """The per-sample loop batched training replaced: one tape per utterance, and each epoch
    ends by rounding the parameters through a save."""
    speakers = speaker_index_map(utts)
    model = VerificationModel(config, n_speakers=len(speakers))
    optimizer = Optimizer(model.named_parameters(), config)
    shuffle_rng = np.random.default_rng(config.seed + 1)
    order = sorted(range(len(utts)), key=lambda i: utts[i].utt_id)
    epoch_losses = []
    for _ in range(config.epochs):
        perm = shuffle_rng.permutation(len(order))
        losses = []
        for start in range(0, len(perm), config.batch_size):
            batch = [utts[order[i]] for i in perm[start:start + config.batch_size]]
            zero_grads(model)
            for utt in batch:
                with Tape() as tape:
                    loss = model.loss(utt.audio, utt.visual, speakers[utt.speaker_id])
                tape.backward(loss, seed=1.0 / len(batch))
                losses.append(loss.item())
            optimizer.step()
        epoch_losses.append(float(np.mean(losses)))
        model.save(path)
    return epoch_losses


def test_batched_training_matches_per_sample_loop(tiny_train_set, tmp_path):
    config = tiny_config()
    result = train(config, tiny_train_set, tmp_path)
    reference = reference_epoch_losses(config, tiny_train_set, tmp_path / "reference.ckpt")
    assert len(result.epoch_losses) == len(reference) == 2
    for got, want in zip(result.epoch_losses, reference):
        assert abs(got - want) <= 1e-9 * abs(want)


def test_non_finite_loss_names_its_utterance(tiny_train_set, tmp_path, monkeypatch):
    config = tiny_config()
    real_head = ad.aam_cross_entropy

    def poisoned(*args):
        # NaN in the second utterance of the batch, the others left finite.
        out = real_head(*args)
        out.data[1] = np.nan
        return out

    monkeypatch.setattr(ad, "aam_cross_entropy", poisoned)
    order = sorted(tiny_train_set, key=lambda u: u.utt_id)
    perm = np.random.default_rng(config.seed + 1).permutation(len(order))
    second = order[perm[1]].utt_id
    with pytest.raises(DivergenceError, match=rf"epoch 0, utterance {second}$"):
        train(config, tiny_train_set, tmp_path)
    assert not (tmp_path / "final.ckpt").exists()


class OutOfPlaceOptimizer:
    """The optimizer step with every update building new arrays: the oracle of the in-place one."""

    def __init__(self, params, config):
        self.params = params
        self.kind = config.optimizer
        self.lr = config.learning_rate
        self.momentum = config.momentum
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.step_count += 1
        for i, p in enumerate(self.params):
            grad = p.grad
            if self.kind == "adam":
                self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * grad
                self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * grad * grad
                m_hat = self.m[i] / (1 - self.beta1 ** self.step_count)
                v_hat = self.v[i] / (1 - self.beta2 ** self.step_count)
                p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            else:
                self.m[i] = self.momentum * self.m[i] + grad
                p.data = p.data - self.lr * self.m[i]


@pytest.mark.parametrize("kind", ["adam", "momentum"])
def test_in_place_step_is_bitwise_the_out_of_place_formula(kind):
    rng = np.random.default_rng(31)
    shapes = [(40, 30), (64, 1), (2, 2), (1, 50)]
    # Small parameters, so the last bits of every update survive the subtraction.
    initial = [1e-3 * rng.standard_normal(shape) for shape in shapes]
    config = TrainConfig(optimizer=kind, learning_rate=0.01)
    params = [Tensor(a) for a in initial]
    reference_params = [Tensor(a) for a in initial]
    optimizer = Optimizer(dict(enumerate(params)), config)
    reference = OutOfPlaceOptimizer(reference_params, config)
    for _ in range(6):
        grads = [rng.standard_normal(shape) for shape in shapes]
        for p, q, g in zip(params, reference_params, grads):
            p.grad = q.grad = g
        optimizer.step()
        reference.step()
        for p, q in zip(params, reference_params):
            assert p.data.tobytes() == q.data.tobytes()
    for mine, theirs in zip(optimizer._flat[:2], (reference.m, reference.v)):
        assert mine.tobytes() == np.concatenate([a.ravel() for a in theirs]).tobytes()


def test_a_missing_gradient_raises_before_anything_is_updated():
    rng = np.random.default_rng(32)
    params = [Tensor(rng.standard_normal(shape)) for shape in [(3, 4), (5, 1), (1, 7)]]
    optimizer = Optimizer(dict(enumerate(params)), TrainConfig())
    for p in params:
        p.grad = rng.standard_normal(p.data.shape)
    optimizer.step()
    for i in (0, 2):  # the step released every gradient; only params[1] stays without one
        params[i].grad = rng.standard_normal(params[i].data.shape)
    before = [p.data.copy() for p in params], optimizer._flat[:2].copy()
    with pytest.raises(TypeError):
        optimizer.step()
    assert optimizer.step_count == 1
    assert [p.data.tobytes() for p in params] == [a.tobytes() for a in before[0]]
    assert optimizer._flat[:2].tobytes() == before[1].tobytes()


def test_guard_names_a_nan_gradient_but_passes_finite_ones_whose_sum_overflows():
    params = {"a": Tensor(np.ones((1, 3))), "b": Tensor(np.ones((2, 2))), "c": Tensor(np.ones((1, 1)))}
    optimizer = Optimizer(params, TrainConfig(optimizer="momentum"))

    def set_grads(c):
        params["a"].grad = np.full((1, 3), 1e308)  # finite entries whose sums overflow to +inf and -inf
        params["b"].grad = np.full((2, 2), -1e308)
        params["c"].grad = np.array([[c]])

    set_grads(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(sum(t.grad.sum() for t in params.values()))
    optimizer.step()
    assert optimizer.step_count == 1
    set_grads(np.nan)
    before = [t.data.copy() for t in params.values()], optimizer._flat[:2].copy()
    with pytest.raises(DivergenceError, match=r"step 2, parameter c$"):
        optimizer.step()
    assert optimizer.step_count == 1  # refused before anything was updated
    assert all(np.array_equal(t.data, b) for t, b in zip(params.values(), before[0]))
    assert optimizer._flat[:2].tobytes() == before[1].tobytes()


def test_every_gradient_is_released_after_each_train_step(tiny_train_set, tmp_path, monkeypatch):
    params, held = {}, []
    real_named_parameters, real_step = VerificationModel.named_parameters, Optimizer.step

    def named_parameters(model):
        named = real_named_parameters(model)
        params.update(named)
        return named

    def step(optimizer):
        real_step(optimizer)
        held.append([name for name, t in params.items() if t.grad is not None])

    monkeypatch.setattr(VerificationModel, "named_parameters", named_parameters)
    monkeypatch.setattr(Optimizer, "step", step)
    train(tiny_config(), tiny_train_set, tmp_path)
    assert params and held == [[]] * 6  # 9 utterances in batches of 4, over 2 epochs


def with_first_reshaped(utts, modality, shape):
    """The utterances with the first one's features of ``modality`` replaced by zeros of ``shape``."""
    return [dataclasses.replace(utts[0], **{modality: np.zeros(shape)})] + utts[1:]


@pytest.mark.parametrize("utts, message", [
    (lambda utts: [], "no training utterances"),
    (lambda utts: with_first_reshaped(utts, "audio", (4, 4)),
     "utterance {id}: audio features of shape (4, 4) do not match (3, 4)"),
    (lambda utts: with_first_reshaped(utts, "visual", (2, 5)),
     "utterance {id}: visual features of shape (2, 5) do not match (2, 4)"),
], ids=["no_utterances", "audio_dim", "visual_segments"])
def test_train_refuses_bad_utterances_before_writing(tiny_train_set, tmp_path, utts, message):
    message = message.format(id=tiny_train_set[0].utt_id)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as info:
        train(tiny_config(), utts(tiny_train_set), tmp_path / "run")
    assert info.type is ConfigError
    assert not (tmp_path / "run").exists()
