"""Fusion-step semantics: residual identity, shape closure, recursion, gradients."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfuse import autodiff as ad
from avfuse.autodiff import Tape, Tensor, named_tensors
from avfuse.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from avfuse.config import ConfigError, TrainConfig
from avfuse.fusion import JcaStepParams, fuse
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
    att_audio = ref.attend(audio, visual, params.corr_proj_audio, params.attn_mix_audio,
                           params.out_mix_audio)
    att_visual = ref.attend(visual, audio, params.corr_proj_visual, params.attn_mix_visual,
                            params.out_mix_visual)
    return ref.concat_rows(att_audio, att_visual)


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
    """One attention pass written on unfused tape ops: the oracle of ``ref.attend``."""
    inv_scale = 1.0 / math.sqrt(key.shape[-2])
    corr = ref.tanh(ref.scale_shift(ref.matmul(ref.transpose(feats), ref.matmul(proj, key)), inv_scale))
    attn = ref.relu(ref.matmul(ref.matmul(feats, attn_mix), corr))
    return ref.add(ref.matmul(attn, out_mix), feats)


def chained_fusion(fusion, audio, visual, steps, attend=ref.attend):
    """The fusion stage as a chain of one op per pass: each step two ``attend``
    passes and one stack, after the first joint stack of ``rjca``."""
    joint = None if fusion == "cross_attention" else ref.concat_rows(audio, visual)
    for p in steps:
        audio_key, visual_key = (visual, audio) if fusion == "cross_attention" else (joint, joint)
        audio, visual = (
            attend(audio, audio_key, p.corr_proj_audio, p.attn_mix_audio, p.out_mix_audio),
            attend(visual, visual_key, p.corr_proj_visual, p.attn_mix_visual, p.out_mix_visual))
        joint = ref.concat_rows(audio, visual)
    return joint


def random_steps(rng, audio_dim, visual_dim, segments, count, fusion="rjca", shared=False):
    """``count`` steps' weights drawn over [-1, 1]; shared repeats the first."""
    steps = []
    for _ in range(1 if shared else count):
        shapes = JcaStepParams.shapes(audio_dim, visual_dim, segments, fusion)
        steps.append(JcaStepParams(**{name: Tensor(rng.uniform(-1, 1, size=shape))
                                      for name, shape in shapes.items()}))
    return steps * count if shared else steps


def run_stage(forward, audio, visual, steps, probe, constant=()):
    """Forward ``forward(audio, visual)`` on fresh leaves, the named ones constant, and
    backward the probe loss: the output and the gradient of every input and weight."""
    inputs = {name: (ad.Constant if name in constant else Tensor)(x)
              for name, x in (("audio", audio), ("visual", visual))}
    weights = {}
    for i, step in enumerate(steps):
        weights.update(named_tensors(step, f"step{i}."))
    checked = {**inputs, **weights}
    for t in checked.values():
        t.grad = None
    with Tape() as tape:
        out = forward(inputs["audio"], inputs["visual"])
        loss = ad.sum_all(ad.mul(out, Tensor(probe)))
    tape.backward(loss)
    return out.data, {name: t.grad for name, t in checked.items()}


class TestAttend:
    """The fused stage against the chain of one-pass ops it replaces."""

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_matches_composed_ops(self, batch):
        for fusion in ("rjca", "cross_attention"):
            rng = np.random.default_rng([7, len(batch)])
            audio, visual = rng.uniform(-1, 1, size=batch + (3, 4)), rng.uniform(-1, 1, size=batch + (2, 4))
            steps = random_steps(rng, 3, 2, 4, 2, fusion)
            probe = rng.uniform(-1, 1, size=batch + (5, 4))
            out, grads = run_stage(lambda a, v: fuse(fusion, a, v, steps), audio, visual, steps, probe)
            composed = lambda a, v: chained_fusion(fusion, a, v, steps, composed_attend)  # noqa: E731
            if batch:
                # Oracle per item on rank-2 slices; shared weights sum over items.
                items = [run_stage(composed, audio[b], visual[b], steps, probe[b]) for b in range(batch[0])]
                ref_out = np.stack([o for o, _ in items])
                ref_grads = {name: (np.stack if name in ("audio", "visual") else sum)([g[name] for _, g in items])
                             for name in grads}
            else:
                ref_out, ref_grads = run_stage(composed, audio, visual, steps, probe)
            assert np.abs(out - ref_out).max() <= 1e-12, fusion
            for name, grad in grads.items():
                assert grad is not None and grad.shape == ref_grads[name].shape, (fusion, name)
                assert np.abs(grad - ref_grads[name]).max() <= 1e-12, (fusion, name)

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("constant", [("audio",), ("visual",), ("audio", "visual")])
    def test_constant_inputs_skip_only_their_own_gradient_terms(self, batch, constant):
        for fusion in ("rjca", "cross_attention"):
            rng = np.random.default_rng([12, len(batch)])
            audio, visual = rng.uniform(-1, 1, size=batch + (3, 4)), rng.uniform(-1, 1, size=batch + (2, 4))
            steps = random_steps(rng, 3, 2, 4, 2, fusion)
            probe = rng.uniform(-1, 1, size=batch + (5, 4))
            forward = lambda a, v: fuse(fusion, a, v, steps)  # noqa: E731
            _, grads = run_stage(forward, audio, visual, steps, probe)
            _, skipped = run_stage(forward, audio, visual, steps, probe, constant)
            for name, grad in skipped.items():
                if name in constant:
                    assert grad is None, (fusion, name)
                else:
                    assert grad.tobytes() == grads[name].tobytes(), (fusion, name)

    def test_output_is_bitwise_its_expression(self):
        # The in-place scaling and tanh of each correlation map keep the bits
        # of the plain expression.
        rng = np.random.default_rng(13)
        audio, visual = rng.uniform(-1, 1, size=(3, 4)), rng.uniform(-1, 1, size=(2, 4))
        steps = random_steps(rng, 3, 2, 4, 2)
        a, v = audio, visual
        for p in steps:
            joint = np.concatenate([a, v])
            a, v = (np.maximum((x @ mix.data) @ np.tanh((x.T @ (proj.data @ joint)) * (1.0 / math.sqrt(5))),
                               0.0) @ out.data + x
                    for x, proj, mix, out in ((a, p.corr_proj_audio, p.attn_mix_audio, p.out_mix_audio),
                                              (v, p.corr_proj_visual, p.attn_mix_visual, p.out_mix_visual)))
        out = fuse("rjca", Tensor(audio), Tensor(visual), steps)
        assert out.data.tobytes() == np.concatenate([a, v]).tobytes()

    def test_is_one_tape_record(self):
        rng = np.random.default_rng(8)
        steps = random_steps(rng, 3, 2, 4, 3)
        with Tape() as tape:
            fuse("rjca", Tensor(rng.uniform(-1, 1, size=(2, 3, 4))), Tensor(rng.uniform(-1, 1, size=(2, 2, 4))),
                 steps)
        assert len(tape) == 1

    def test_shape_errors_name_the_operand(self):
        audio, visual = random_inputs(3, 2, 4)
        steps = random_steps(np.random.default_rng(9), 3, 2, 4, 2)
        weights = [(p.corr_proj_audio, p.attn_mix_audio, p.out_mix_audio,
                    p.corr_proj_visual, p.attn_mix_visual, p.out_mix_visual) for p in steps]
        bad_proj = weights[:1] + [weights[1][:3] + (Tensor(np.ones((2, 4))),) + weights[1][4:]]
        with pytest.raises(ad.ShapeError, match=re.escape("projection must be (2, 5), got (2, 4)")):
            ad.attention_fusion(audio, visual, bad_proj, cross=False)
        bad_mix = [weights[0][:2] + (Tensor(np.ones((3, 3))),) + weights[0][3:]] + weights[1:]
        with pytest.raises(ad.ShapeError, match=re.escape("out_mix must be (4, 4), got (3, 3)")):
            ad.attention_fusion(audio, visual, bad_mix, cross=False)
        with pytest.raises(ad.ShapeError, match=re.escape("a step takes 6 weights, got 5")):
            ad.attention_fusion(audio, visual, [weights[0][:5]], cross=False)
        with pytest.raises(ad.ShapeError, match="batch"):
            ad.attention_fusion(Tensor(np.ones((2, 3, 4))), visual, weights, cross=False)
        with pytest.raises(ad.ShapeError, match="segment counts disagree"):
            ad.attention_fusion(audio, Tensor(np.ones((2, 5))), weights, cross=True)


# (fusion, count, shared) with each mode a third of the draws: concat takes no steps, so
# no weights to share.  300 examples keep about 190 of the modes with steps.
STAGES = st.sampled_from(["rjca", "cross_attention", "concat"]).flatmap(
    lambda fusion: st.just((fusion, 0, False)) if fusion == "concat"
    else st.tuples(st.just(fusion), st.integers(1, 4), st.booleans()))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rank3=st.booleans(), stage=STAGES,
       constant=st.sampled_from([(), ("audio",), ("visual",), ("audio", "visual")]),
       audio_dim=st.integers(1, 5), visual_dim=st.integers(1, 5),
       segments=st.integers(1, 5), batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_fused_stage_is_bitwise_the_chain_of_one_op_per_pass(rank3, stage, constant, audio_dim, visual_dim,
                                                             segments, batch, seed):
    fusion, count, shared = stage
    rng = np.random.default_rng(seed)
    lead = (batch,) if rank3 else ()
    audio = rng.uniform(-1, 1, size=lead + (audio_dim, segments))
    visual = rng.uniform(-1, 1, size=lead + (visual_dim, segments))
    steps = random_steps(rng, audio_dim, visual_dim, segments, count, fusion, shared)
    probe = rng.uniform(-1, 1, size=lead + (audio_dim + visual_dim, segments))
    runs = [run_stage(forward, audio, visual, steps, probe, constant)
            for forward in (lambda a, v: fuse(fusion, a, v, steps),
                            lambda a, v: chained_fusion(fusion, a, v, steps))]
    (out, grads), (ref_out, ref_grads) = runs
    assert out.tobytes() == ref_out.tobytes()
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        assert (grad is None) == (name in constant), name
        if grad is not None:
            assert grad.tobytes() == ref_grads[name].tobytes(), name


class TestRecordCounts:
    @pytest.mark.parametrize("steps", [1, 3, 5])
    @pytest.mark.parametrize("fusion", ["rjca", "cross_attention"])
    def test_fusion_stage_is_one_record_at_any_depth(self, fusion, steps):
        audio, visual = random_inputs(3, 2, 4)
        chain = random_steps(np.random.default_rng(steps), 3, 2, 4, steps, fusion)
        with Tape() as tape:
            fuse(fusion, audio, visual, chain)
        assert len(tape) == 1

    def test_concat_is_one_record_unless_both_inputs_are_constants(self):
        audio, visual = random_inputs(3, 2, 4)
        with Tape() as tape:
            fuse("concat", audio, visual, [])
        assert len(tape) == 1
        with Tape() as tape:
            joint = fuse("concat", ad.Constant(audio.data), ad.Constant(visual.data), [])
        assert len(tape) == 0 and isinstance(joint, ad.Constant)

    def test_batched_recursion_rows_match_single_utterances(self):
        rng = np.random.default_rng(10)
        audio = rng.uniform(-1, 1, size=(3, 3, 4))
        visual = rng.uniform(-1, 1, size=(3, 2, 4))
        chain = [JcaStepParams.init(3, 2, 4, rng) for _ in range(3)]
        joint = fuse("rjca", Tensor(audio), Tensor(visual), chain).data
        for b in range(3):
            single = fuse("rjca", Tensor(audio[b]), Tensor(visual[b]), chain).data
            assert np.abs(joint[b] - single).max() <= 1e-12
