"""Fusion-step semantics: residual identity, shape closure, recursion, gradients."""

import math
import re

import numpy as np
import pytest

from avfuse import autodiff as ad
from avfuse.autodiff import Tape, Tensor, named_tensors
from avfuse.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from avfuse.config import ConfigError, TrainConfig
from avfuse.fusion import JcaStepParams, fuse, score_level_fusion
from avfuse.gradcheck import check_function
from avfuse.model import VerificationModel

import reference_ops as ref

RNG = np.random.default_rng(2024)


def random_inputs(audio_dim, visual_dim, segments, rng=RNG):
    audio = Tensor(rng.uniform(-1, 1, size=(audio_dim, segments)))
    visual = Tensor(rng.uniform(-1, 1, size=(visual_dim, segments)))
    return audio, visual


def zero_step(audio_dim, visual_dim, segments, fusion="rjca"):
    """All-zero weights of one step, shaped by the step's own shape table."""
    shapes = JcaStepParams.shapes(audio_dim, visual_dim, segments, fusion)
    return JcaStepParams(**{name: Tensor(np.zeros(shape)) for name, shape in shapes.items()})


class TestJointRepresentation:
    """Concatenation fusion: the joint stack of the inputs, audio over visual."""

    def test_shape(self):
        a = Tensor(np.ones((2, 4)))
        v = Tensor(np.ones((3, 4)))
        assert fuse("concat", a, v, []).shape == (5, 4)

    def test_zero_visual_block(self):
        a = Tensor(np.ones((2, 4)))
        v = Tensor(np.zeros((3, 4)))
        j = fuse("concat", a, v, []).data
        assert np.array_equal(j[:2], a.data) and np.array_equal(j[2:], np.zeros((3, 4)))

    def test_scalar_case(self):
        j = fuse("concat", Tensor([[1.0]]), Tensor([[1.0]]), [])
        assert np.array_equal(j.data, [[1.0], [1.0]])

    def test_segment_mismatch(self):
        with pytest.raises(ad.ShapeError):
            fuse("concat", Tensor(np.ones((2, 4))), Tensor(np.ones((3, 5))), [])


class TestJcaStep:
    def test_zero_weights_are_exact_identity(self):
        audio, visual = random_inputs(3, 2, 5)
        joint = fuse("rjca", audio, visual, [zero_step(3, 2, 5)])
        assert np.array_equal(joint.data, np.concatenate([audio.data, visual.data]))

    def test_shape_contract(self):
        audio, visual = random_inputs(2, 3, 4)
        params = JcaStepParams.init(2, 3, 4, np.random.default_rng(0))
        assert fuse("rjca", audio, visual, [params]).shape == (5, 4)

    def test_scalar_hand_value(self):
        # All-ones scalar case evaluated by hand: correlation tanh(2/sqrt(2)),
        # gated recombination equals the correlation, plus the residual input.
        ones = Tensor([[1.0]])
        params = JcaStepParams(Tensor([[1.0, 1.0]]), Tensor([[1.0, 1.0]]),
                               *[Tensor([[1.0]]) for _ in range(4)])
        expected_corr = math.tanh(2.0 / math.sqrt(2.0))
        audio, visual = fuse("rjca", ones, Tensor([[1.0]]), [params]).data[:, 0]
        assert audio == pytest.approx(1.0 + expected_corr, abs=1e-12)
        assert visual == pytest.approx(1.0 + expected_corr, abs=1e-12)
        assert audio == pytest.approx(1.88839, abs=5e-6)

    def test_shape_error_names_offending_weight(self):
        params = zero_step(2, 2, 3)
        params.attn_mix_audio = Tensor(np.zeros((4, 4)))
        audio, visual = random_inputs(2, 2, 3)
        with pytest.raises(ad.ShapeError, match=re.escape("attn_mix must be (3, 3), got (4, 4)")):
            fuse("rjca", audio, visual, [params])


class TestRecursion:
    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5])
    def test_zero_weights_identity_telescopes(self, steps):
        audio, visual = random_inputs(2, 3, 4)
        chain = [zero_step(2, 3, 4) for _ in range(steps)]
        joint = fuse("rjca", audio, visual, chain)
        assert np.array_equal(joint.data, np.concatenate([audio.data, visual.data]))

    def test_shape_closure_over_depth(self):
        audio, visual = random_inputs(3, 5, 4)
        rng = np.random.default_rng(3)
        chain = [JcaStepParams.init(3, 5, 4, rng) for _ in range(4)]
        assert fuse("rjca", audio, visual, chain).shape == (8, 4)

    def test_empty_params_rejected(self):
        audio, visual = random_inputs(2, 2, 2)
        with pytest.raises(ConfigError):
            fuse("rjca", audio, visual, [])

    def test_unknown_mode_is_refused_by_name(self):
        audio, visual = random_inputs(3, 2, 4)
        with pytest.raises(ConfigError, match="'bogus'"):
            fuse("bogus", audio, visual, [zero_step(3, 2, 4)])

    def test_concat_refuses_step_weights(self):
        audio, visual = random_inputs(3, 2, 4)
        with pytest.raises(ConfigError, match="concat fusion takes no step weights"):
            fuse("concat", audio, visual, [zero_step(3, 2, 4)])

    @pytest.mark.parametrize("steps", [1, 3, 4])
    def test_gradients_match_finite_differences(self, steps):
        rng = np.random.default_rng(40 + steps)
        audio = Tensor(rng.uniform(-1, 1, size=(3, 3)))
        visual = Tensor(rng.uniform(-1, 1, size=(2, 3)))
        chain = [JcaStepParams.init(3, 2, 3, rng) for _ in range(steps)]
        probe = Tensor(rng.uniform(-1, 1, size=(5, 3)))
        checked = {"audio": audio, "visual": visual}
        for i, p in enumerate(chain):
            checked.update(named_tensors(p, f"step{i}."))
        err = check_function(
            lambda: ad.sum_all(ad.mul(fuse("rjca", audio, visual, chain), probe)), checked)
        assert err < 1e-4, f"worst relative error {err}"


class TestBaselines:
    def test_score_level_weight_one_returns_audio_score(self):
        assert score_level_fusion(0.73, -0.4, weight=1.0) == 0.73

    def test_score_level_weight_bounds(self):
        with pytest.raises(ConfigError):
            score_level_fusion(0.0, 0.0, weight=1.5)

    def test_cross_attention_zero_weights_identity(self):
        audio, visual = random_inputs(3, 2, 4)
        joint = fuse("cross_attention", audio, visual, [zero_step(3, 2, 4, "cross_attention")])
        assert np.array_equal(joint.data, np.concatenate([audio.data, visual.data]))

    def test_cross_attention_gradients(self):
        rng = np.random.default_rng(9)
        audio = Tensor(rng.uniform(-1, 1, size=(2, 3)))
        visual = Tensor(rng.uniform(-1, 1, size=(3, 3)))
        params = JcaStepParams.init(2, 3, 3, rng, "cross_attention")
        probe = Tensor(rng.uniform(-1, 1, size=(5, 3)))
        err = check_function(
            lambda: ad.sum_all(ad.mul(fuse("cross_attention", audio, visual, [params]), probe)),
            {"audio": audio, "visual": visual, **named_tensors(params)})
        assert err < 1e-4, f"worst relative error {err}"


def composed_cross_attention(audio, visual, params):
    """The two-way cross-attention baseline written out: audio attends visual
    at 1/sqrt(visual_dim), and visual attends audio at 1/sqrt(audio_dim)."""
    att_audio = ad.attend(audio, visual, params.corr_proj_audio, params.attn_mix_audio,
                          params.out_mix_audio)
    att_visual = ad.attend(visual, audio, params.corr_proj_visual, params.attn_mix_visual,
                           params.out_mix_visual)
    return ad.concat_rows(att_audio, att_visual)


class TestCrossAttentionMode:
    """The cross-attention mode of the shared step body is the two-way baseline, bit for bit."""

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_output_and_every_gradient_match_the_two_way_body_bitwise(self, batch):
        rng = np.random.default_rng([14, len(batch)])
        audio = rng.uniform(-1, 1, size=batch + (3, 4))
        visual = rng.uniform(-1, 1, size=batch + (2, 4))
        params = JcaStepParams.init(3, 2, 4, rng, "cross_attention")
        probe = Tensor(rng.uniform(-1, 1, size=batch + (5, 4)))
        runs = []
        for forward in (lambda a, v: fuse("cross_attention", a, v, [params]),
                        lambda a, v: composed_cross_attention(a, v, params)):
            inputs = {"audio": Tensor(audio), "visual": Tensor(visual)}
            checked = {**inputs, **named_tensors(params)}
            for t in checked.values():
                t.grad = None
            with Tape() as tape:
                out = forward(inputs["audio"], inputs["visual"])
                loss = ad.sum_all(ad.mul(out, probe))
            tape.backward(loss)
            runs.append((out.data.tobytes(), {name: t.grad.tobytes() for name, t in checked.items()}))
        assert runs[0] == runs[1]

    def test_step_weights_take_the_other_modality_as_key(self):
        shapes = JcaStepParams.shapes(3, 2, 4, "cross_attention")
        assert shapes["corr_proj_audio"] == (3, 2) and shapes["corr_proj_visual"] == (2, 3)
        assert JcaStepParams.shapes(3, 2, 4)["corr_proj_audio"] == (3, 5)
        with pytest.raises(ConfigError, match="concat"):
            JcaStepParams.shapes(3, 2, 4, "concat")

    def test_rjca_weights_are_refused_in_cross_attention_mode(self):
        audio, visual = random_inputs(3, 2, 4)
        with pytest.raises(ad.ShapeError, match=re.escape("projection must be (3, 2), got (3, 5)")):
            fuse("cross_attention", audio, visual, [zero_step(3, 2, 4)])

    def test_checkpoint_round_trips_and_old_names_are_refused(self, tmp_path):
        config = TrainConfig(fusion="cross_attention", audio_dim=3, visual_dim=2, segments=4,
                             blstm_hidden=3, asp_hidden=3, embed_dim=4)
        model = VerificationModel(config, n_speakers=3)
        model.quantize_single_precision()
        model.save(tmp_path / "cross.ckpt")
        loaded = VerificationModel.from_checkpoint(tmp_path / "cross.ckpt")
        params = model.named_parameters()
        assert [name for name in params if name.startswith("fusion.")] == [
            f"fusion.step0.{name}" for name in JcaStepParams.shapes(3, 2, 4, "cross_attention")]
        assert {name: t.data.tobytes() for name, t in loaded.named_parameters().items()} == \
            {name: t.data.tobytes() for name, t in params.items()}
        # The names the separate cross-attention weights were saved under.
        tensors, config_text = load_checkpoint(tmp_path / "cross.ckpt")
        old = {name.replace("fusion.step0.", "fusion.cross.").replace("corr_proj", "cross_proj"): value
               for name, value in tensors.items()}
        save_checkpoint(tmp_path / "old.ckpt", old, config_text)
        with pytest.raises(CheckpointError, match="old.ckpt: checkpoint/model mismatch"):
            VerificationModel.from_checkpoint(tmp_path / "old.ckpt")


def composed_attend(feats, key, proj, attn_mix, out_mix):
    """The attention body written on unfused tape ops: the oracle ``ad.attend`` fuses."""
    inv_scale = 1.0 / math.sqrt(key.shape[-2])
    corr = ref.tanh(ref.scale_shift(ad.matmul(ref.transpose(feats), ad.matmul(proj, key)), inv_scale))
    attn = ref.relu(ad.matmul(ad.matmul(feats, attn_mix), corr))
    return ad.add(ad.matmul(attn, out_mix), feats)


ATTEND_ARGS = ("feats", "key", "proj", "attn_mix", "out_mix")


def _attend_data(rng, batch):
    return {
        "feats": rng.uniform(-1, 1, size=batch + (3, 4)),
        "key": rng.uniform(-1, 1, size=batch + (5, 4)),
        "proj": rng.uniform(-1, 1, size=(3, 5)),
        "attn_mix": rng.uniform(-1, 1, size=(4, 4)),
        "out_mix": rng.uniform(-1, 1, size=(4, 4)),
    }


def _run_attend(fn, data, probe):
    tensors = {name: Tensor(data[name]) for name in ATTEND_ARGS}
    with Tape() as tape:
        out = fn(*(tensors[name] for name in ATTEND_ARGS))
        loss = ad.sum_all(ad.mul(out, Tensor(probe)))
    tape.backward(loss)
    return out.data, {name: t.grad for name, t in tensors.items()}


class TestAttend:
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_matches_composed_ops(self, batch):
        rng = np.random.default_rng([7, len(batch)])
        data = _attend_data(rng, batch)
        probe = rng.uniform(-1, 1, size=batch + (3, 4))
        out, grads = _run_attend(ad.attend, data, probe)
        if batch:
            # Oracle per item on rank-2 slices; shared weights sum over items.
            items = [_run_attend(composed_attend, {**data, "feats": data["feats"][b], "key": data["key"][b]},
                                 probe[b]) for b in range(batch[0])]
            ref_out = np.stack([o for o, _ in items])
            ref_grads = {name: (np.stack if name in ("feats", "key") else sum)([g[name] for _, g in items])
                         for name in ATTEND_ARGS}
        else:
            ref_out, ref_grads = _run_attend(composed_attend, data, probe)
        assert np.abs(out - ref_out).max() <= 1e-12
        for name in ATTEND_ARGS:
            assert grads[name] is not None, name
            assert grads[name].shape == data[name].shape, name
            assert np.abs(grads[name] - ref_grads[name]).max() <= 1e-12, name

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("constant", [("feats",), ("key",), ("feats", "key")])
    def test_constant_inputs_skip_only_their_own_gradient_terms(self, batch, constant):
        rng = np.random.default_rng([12, len(batch)])
        data = _attend_data(rng, batch)
        probe = rng.uniform(-1, 1, size=batch + (3, 4))
        _, grads = _run_attend(ad.attend, data, probe)
        tensors = {name: (ad.Constant if name in constant else Tensor)(data[name]) for name in ATTEND_ARGS}
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(ad.attend(*tensors.values()), Tensor(probe)))
        tape.backward(loss)
        for name, t in tensors.items():
            if name in constant:
                assert t.grad is None, name
            else:
                assert t.grad.tobytes() == grads[name].tobytes(), name

    def test_output_is_bitwise_its_expression(self):
        # The in-place scaling and tanh of the correlation map keep the bits
        # of the plain expression.
        data = _attend_data(np.random.default_rng(13), ())
        feats, key, proj, attn_mix, out_mix = (data[name] for name in ATTEND_ARGS)
        inv_scale = 1.0 / math.sqrt(5)
        corr = np.tanh((feats.T @ (proj @ key)) * inv_scale)
        expected = np.maximum((feats @ attn_mix) @ corr, 0.0) @ out_mix + feats
        out = ad.attend(*(Tensor(data[name]) for name in ATTEND_ARGS))
        assert out.data.tobytes() == expected.tobytes()

    def test_is_one_tape_record(self):
        data = _attend_data(np.random.default_rng(8), (2,))
        with Tape() as tape:
            ad.attend(*(Tensor(data[name]) for name in ATTEND_ARGS))
        assert len(tape) == 1

    def test_shape_errors_name_the_operand(self):
        data = {name: Tensor(v) for name, v in _attend_data(np.random.default_rng(9), ()).items()}
        args = [data[name] for name in ATTEND_ARGS]
        with pytest.raises(ad.ShapeError, match="projection"):
            ad.attend(args[0], args[1], Tensor(np.ones((3, 4))), *args[3:])
        with pytest.raises(ad.ShapeError, match="out_mix"):
            ad.attend(*args[:4], Tensor(np.ones((3, 3))))
        with pytest.raises(ad.ShapeError, match="batch"):
            ad.attend(Tensor(np.ones((2, 3, 4))), *args[1:])


class TestRecordCounts:
    @pytest.mark.parametrize("steps, records", [(1, 4), (3, 10), (5, 16)])
    def test_rjca_adds_three_records_per_step_plus_one(self, steps, records):
        audio, visual = random_inputs(3, 2, 4)
        chain = [JcaStepParams.init(3, 2, 4, np.random.default_rng(steps)) for _ in range(steps)]
        with Tape() as tape:
            fuse("rjca", audio, visual, chain)
        assert len(tape) == records

    def test_batched_recursion_rows_match_single_utterances(self):
        rng = np.random.default_rng(10)
        audio = rng.uniform(-1, 1, size=(3, 3, 4))
        visual = rng.uniform(-1, 1, size=(3, 2, 4))
        chain = [JcaStepParams.init(3, 2, 4, rng) for _ in range(3)]
        joint = fuse("rjca", Tensor(audio), Tensor(visual), chain).data
        for b in range(3):
            single = fuse("rjca", Tensor(audio[b]), Tensor(visual[b]), chain).data
            assert np.abs(joint[b] - single).max() <= 1e-12
