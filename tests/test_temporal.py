"""BLSTM, attentive statistics pooling, and projection: values and gradients."""

import math

import numpy as np
import pytest

from avfuse import autodiff as ad
from avfuse.autodiff import ShapeError, Tape, Tensor, named_tensors
from avfuse.gradcheck import check_function
from avfuse.temporal import (
    VARIANCE_FLOOR,
    AspParams,
    BlstmParams,
    EmbeddingProjection,
    LstmDirectionParams,
    asp,
    attention_weights,
    blstm_forward,
    project_embedding,
)

import reference_ops as ref

RNG = np.random.default_rng(77)


def zero_blstm(input_dim, hidden):
    def direction():
        return LstmDirectionParams(
            w_input=Tensor(np.zeros((4 * hidden, input_dim))),
            w_recurrent=Tensor(np.zeros((4 * hidden, hidden))),
            bias=Tensor(np.zeros((4 * hidden, 1))),
        )
    return BlstmParams(fw=direction(), bw=direction())


def zero_asp(input_dim, bottleneck=3):
    return AspParams(
        proj=Tensor(np.zeros((bottleneck, input_dim))),
        bias=Tensor(np.zeros((bottleneck, 1))),
        score=Tensor(np.zeros((bottleneck, 1))),
    )


def reference_lstm(x, w_input, w_recurrent, bias, reverse):
    """One LSTM direction written step by step on unfused tape ops.

    This is the per-step formula each direction of ``ad.blstm`` fuses, kept
    as its oracle: each step takes column t of x (of every item of a batch),
    forms all four gate pre-activations, and updates the cell and hidden
    state.  Returns the (h, 1) or (B, h, 1) outputs in input-time order.
    """
    hidden = w_recurrent.shape[1]
    length = x.shape[-1]
    h_prev = Tensor(np.zeros((hidden, 1)))
    c_prev = Tensor(np.zeros((hidden, 1)))
    order = range(length - 1, -1, -1) if reverse else range(length)
    outputs = [None] * length
    # Row selectors picking each gate's block out of the stacked pre-activations.
    gate_rows = [Tensor(np.eye(4 * hidden)[k * hidden:(k + 1) * hidden]) for k in range(4)]
    for t in order:
        x_t = ad.matmul(x, Tensor(np.eye(length)[:, t:t + 1]))
        pre = ad.add(ad.add(ad.matmul(w_input, x_t), ad.matmul(w_recurrent, h_prev)), bias)
        gate_in = ref.sigmoid(ad.matmul(gate_rows[0], pre))
        gate_forget = ref.sigmoid(ad.matmul(gate_rows[1], pre))
        cell_cand = ad.tanh(ad.matmul(gate_rows[2], pre))
        gate_out = ref.sigmoid(ad.matmul(gate_rows[3], pre))
        c_prev = ad.add(ad.mul(gate_forget, c_prev), ad.mul(gate_in, cell_cand))
        h_prev = ad.mul(gate_out, ad.tanh(c_prev))
        outputs[t] = h_prev
    return outputs


DIRECTION_ARGS = ("w_input", "w_recurrent", "bias")


def _direction(tensors, prefix):
    return tuple(tensors[prefix + name] for name in DIRECTION_ARGS)


def _fused_run(tensors, probe):
    out = ad.blstm(tensors["x"], _direction(tensors, "fw."), _direction(tensors, "bw."))
    return out.data, ad.sum_all(ad.mul(out, Tensor(probe)))


def _reference_run(tensors, probe):
    hidden = probe.shape[-2] // 2
    loss, outputs = None, []
    for prefix, rows, reverse in (("fw.", slice(None, hidden), False),
                                  ("bw.", slice(hidden, None), True)):
        steps = reference_lstm(tensors["x"], *_direction(tensors, prefix), reverse)
        for t, step in enumerate(steps):
            term = ad.sum_all(ad.mul(step, Tensor(probe[..., rows, t:t + 1])))
            loss = term if loss is None else ad.add(loss, term)
        outputs.append(np.concatenate([step.data for step in steps], axis=-1))
    return np.concatenate(outputs, axis=-2), loss


def _blstm_data(rng, dim, hidden):
    return {prefix + name: rng.uniform(-1, 1, size=shape)
            for prefix in ("fw.", "bw.")
            for name, shape in zip(DIRECTION_ARGS, [(4 * hidden, dim), (4 * hidden, hidden),
                                                    (4 * hidden, 1)])}


def _run_with_grads(run, data, probe, shared=False):
    tensors = {name: Tensor(value) for name, value in data.items()}
    if shared:
        for name in DIRECTION_ARGS:
            tensors["bw." + name] = tensors["fw." + name]
    with Tape() as tape:
        out, loss = run(tensors, probe)
    tape.backward(loss)
    return out, {name: t.grad for name, t in tensors.items()}


def _check_against_reference(data, probe):
    fused_out, fused_grads = _run_with_grads(_fused_run, data, probe)
    ref_out, ref_grads = _run_with_grads(_reference_run, data, probe)
    assert fused_out.shape == probe.shape
    assert np.abs(fused_out - ref_out).max() <= 1e-12
    for name in data:  # x and both directions' three parameters
        assert fused_grads[name] is not None, name
        assert fused_grads[name].shape == data[name].shape, name
        assert np.abs(fused_grads[name] - ref_grads[name]).max() <= 1e-12, name


class TestFusedLstm:
    # Batches of 3, 10, 12 and 17 columns leave remainders in BLAS's blocked
    # kernels, both in the input projection and in the recurrent products.
    @pytest.mark.parametrize("dim,hidden,length", [(3, 4, 6), (3, 4, 1), (3, 1, 5), (5, 3, 8)])
    @pytest.mark.parametrize("batch", [None, 2, 3, 10, 12, 17])
    def test_matches_per_step_reference(self, dim, hidden, length, batch):
        # Both directions of one blstm call against the per-step oracle, on
        # one utterance or a batch.
        rng = np.random.default_rng([dim, hidden, length, batch or 0])
        lead = (batch,) if batch else ()
        data = {"x": rng.uniform(-1, 1, size=lead + (dim, length)), **_blstm_data(rng, dim, hidden)}
        _check_against_reference(data, rng.uniform(-1, 1, size=lead + (2 * hidden, length)))

    @pytest.mark.parametrize("batch", [None, 3])
    def test_saturated_gates_match_per_step_reference(self, batch):
        # Input weights and biases large enough that pre-activations pass +-40,
        # where 1/2 + tanh(z/2)/2 rounds to 0 or 1, next to unsaturated ones.
        rng = np.random.default_rng([40, batch or 0])
        dim, hidden, length = 3, 4, 8
        lead = (batch,) if batch else ()
        data = {"x": rng.uniform(-1, 1, size=lead + (dim, length)), **_blstm_data(rng, dim, hidden)}
        for prefix in ("fw.", "bw."):
            data[prefix + "w_input"] *= 20.0
            data[prefix + "bias"] *= 30.0
        projected = data["fw.w_input"] @ data["x"] + data["fw.bias"]
        assert np.abs(projected).max() > 40.0 and np.abs(projected).min() < 10.0
        _check_against_reference(data, rng.uniform(-1, 1, size=lead + (2 * hidden, length)))

    @pytest.mark.parametrize("shared", [False, True])
    def test_batch_matches_per_item_calls(self, shared):
        # shared: both directions run on the same parameter tensors, whose
        # gradients then sum both directions' parts.
        rng = np.random.default_rng([11, int(shared)])
        batch, dim, hidden, length = 3, 3, 4, 5
        weights = _blstm_data(rng, dim, hidden)
        x = rng.uniform(-1, 1, size=(batch, dim, length))
        probe = rng.uniform(-1, 1, size=(batch, 2 * hidden, length))

        def run(x_data, probe_data):
            return _run_with_grads(_fused_run, {"x": x_data, **weights}, probe_data, shared)

        out, grads = run(x, probe)
        items = [run(x[b], probe[b]) for b in range(batch)]
        assert out.shape == (batch, 2 * hidden, length)
        assert np.abs(out - np.stack([o for o, _ in items])).max() <= 1e-12
        assert np.abs(grads["x"] - np.stack([g["x"] for _, g in items])).max() <= 1e-12
        for name in weights:
            assert np.abs(grads[name] - sum(g[name] for _, g in items)).max() <= 1e-12, name

    def test_blstm_is_one_tape_record(self):
        params = BlstmParams.init(3, 4, np.random.default_rng(9))
        for x in (RNG.uniform(-1, 1, size=(3, 7)), RNG.uniform(-1, 1, size=(2, 3, 7))):
            with Tape() as tape:
                blstm_forward(Tensor(x), params)
            assert len(tape) == 1


class TestBlstm:
    def test_all_zero_params_give_zero_outputs(self):
        x = Tensor(RNG.uniform(-1, 1, size=(3, 5)))
        out = blstm_forward(x, zero_blstm(3, 2))
        assert np.array_equal(out.data, np.zeros((4, 5)))

    def test_output_shape(self):
        x = Tensor(RNG.uniform(-1, 1, size=(4, 6)))
        params = BlstmParams.init(4, 3, np.random.default_rng(0))
        assert blstm_forward(x, params).shape == (6, 6)

    def test_direction_symmetry_under_time_reversal(self):
        # With identical parameters in both directions, reversing the input in
        # time swaps the directional blocks and reverses them.
        rng = np.random.default_rng(1)
        shared = LstmDirectionParams.init(3, 2, rng)
        params = BlstmParams(fw=shared, bw=shared)
        x = RNG.uniform(-1, 1, size=(3, 5))
        out = blstm_forward(Tensor(x), params).data
        out_rev = blstm_forward(Tensor(x[:, ::-1].copy()), params).data
        h = 2
        assert np.allclose(out_rev[:h], out[h:][:, ::-1], atol=1e-12)
        assert np.allclose(out_rev[h:], out[:h][:, ::-1], atol=1e-12)

    def test_permutation_sensitivity(self):
        rng = np.random.default_rng(2)
        params = BlstmParams.init(3, 3, rng)
        x = rng.uniform(-1, 1, size=(3, 6))
        perm = rng.permutation(6)
        out = blstm_forward(Tensor(x), params).data
        out_perm = blstm_forward(Tensor(x[:, perm].copy()), params).data
        assert not np.allclose(out_perm, out[:, perm])


def composed_asp(features, proj, bias, score, floor):
    """Attentive statistics pooling written on unfused tape ops: the oracle ``ad.attentive_pool`` fuses."""
    hidden = ad.tanh(ref.add_bias(ad.matmul(proj, features), bias))
    scores = ad.matmul(ref.transpose(score), hidden)                   # [B x] 1 x segments
    weights = ad.softmax_columns(ref.transpose(scores))
    mean = ad.matmul(features, weights)
    second_moment = ad.matmul(ad.mul(features, features), weights)
    variance = ref.clamp(ref.sub(second_moment, ad.mul(mean, mean)), lo=floor)
    return ad.concat_rows(mean, ref.sqrt(variance))


POOL_ARGS = ("features", "proj", "bias", "score")


def _run_pool(fn, data, probe):
    tensors = {name: Tensor(data[name]) for name in POOL_ARGS}
    with Tape() as tape:
        out = fn(*(tensors[name] for name in POOL_ARGS), VARIANCE_FLOOR)
    records = len(tape)
    with tape:
        loss = ad.sum_all(ad.mul(out, Tensor(probe)))
    tape.backward(loss)
    return out.data, {name: t.grad for name, t in tensors.items()}, records


class TestAttentivePool:
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_matches_composed_ops(self, batch):
        rng = np.random.default_rng([21, len(batch)])
        data = {
            "features": rng.uniform(-1, 1, size=batch + (4, 6)),
            "proj": rng.uniform(-1, 1, size=(3, 4)),
            "bias": rng.uniform(-1, 1, size=(3, 1)),
            "score": rng.uniform(-1, 1, size=(3, 1)),
        }
        # A row varying by 1e-6: its variance lies below the floor and gets no gradient.
        data["features"][..., 1, :] = 0.25 + 1e-6 * rng.standard_normal(batch + (6,))
        probe = rng.uniform(-1, 1, size=batch + (8, 1))
        out, grads, records = _run_pool(ad.attentive_pool, data, probe)
        ref_out, ref_grads, _ = _run_pool(composed_asp, data, probe)
        assert records == 1
        assert np.array_equal(out, ref_out)
        for name in POOL_ARGS:
            assert grads[name].shape == data[name].shape, name
            assert np.abs(grads[name] - ref_grads[name]).max() <= 1e-12, name

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_pooling_attention_bottleneck_is_bitwise_its_expression(self, batch):
        rng = np.random.default_rng([22, len(batch)])
        feats = rng.uniform(-1, 1, size=batch + (4, 6))
        proj, bias, score = (rng.uniform(-1, 1, size=shape) for shape in ((3, 4), (3, 1), (3, 1)))
        hidden, _ = ad.pooling_attention(feats, proj, bias, score)
        assert hidden.tobytes() == np.tanh(proj @ feats + bias).tobytes()

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_constant_features_leave_the_weight_gradients_bitwise(self, batch):
        rng = np.random.default_rng([23, len(batch)])
        data = {"features": rng.uniform(-1, 1, size=batch + (4, 6)), "proj": rng.uniform(-1, 1, size=(3, 4)),
                "bias": rng.uniform(-1, 1, size=(3, 1)), "score": rng.uniform(-1, 1, size=(3, 1))}
        probe = rng.uniform(-1, 1, size=batch + (8, 1))
        _, grads, _ = _run_pool(ad.attentive_pool, data, probe)
        tensors = {name: (ad.Constant if name == "features" else Tensor)(data[name]) for name in POOL_ARGS}
        with Tape() as tape:
            out = ad.attentive_pool(*tensors.values(), VARIANCE_FLOOR)
            loss = ad.sum_all(ad.mul(out, Tensor(probe)))
        tape.backward(loss)
        assert tensors["features"].grad is None
        for name in POOL_ARGS[1:]:
            assert tensors[name].grad.tobytes() == grads[name].tobytes(), name

    def test_shape_errors_name_the_operand(self):
        x, column = Tensor(np.ones((4, 6))), Tensor(np.ones((3, 1)))
        with pytest.raises(ShapeError, match="projection"):
            ad.attentive_pool(x, Tensor(np.ones((3, 5))), column, column, VARIANCE_FLOOR)
        with pytest.raises(ShapeError, match="score"):
            ad.attentive_pool(x, Tensor(np.ones((3, 4))), column, Tensor(np.ones((2, 1))), VARIANCE_FLOOR)
        with pytest.raises(ShapeError, match="rank-2 or rank-3"):
            ad.attentive_pool(Tensor(np.ones(4)), Tensor(np.ones((3, 4))), column, column, VARIANCE_FLOOR)


class TestAsp:
    def test_zero_scorer_gives_uniform_attention_and_plain_stats(self):
        x = RNG.uniform(-1, 1, size=(3, 7))
        out = asp(Tensor(x), zero_asp(3)).data[:, 0]
        assert np.allclose(out[:3], x.mean(axis=1), atol=1e-12)
        assert np.allclose(out[3:], x.std(axis=1), atol=1e-6)

    def test_attention_weights_nonnegative_and_normalized(self):
        rng = np.random.default_rng(4)
        params = AspParams.init(4, 3, rng)
        w = attention_weights(Tensor(rng.uniform(-1, 1, size=(4, 9))), params)
        assert (w >= 0).all()
        assert abs(w.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("batch", [(), (2,)])
    def test_inspection_weights_are_the_forward_weights(self, batch):
        # The weighted mean asp returns is features @ attention_weights, so
        # the inspection weights are the ones the forward pools with.
        rng = np.random.default_rng([12, len(batch)])
        params = AspParams.init(4, 3, rng)
        features = Tensor(rng.uniform(-1, 1, size=batch + (4, 6)))
        with Tape() as tape:
            pooled = asp(features, params)
        assert len(tape) == 1
        mean = pooled.data[..., :4, 0]
        weights = attention_weights(features, params)
        assert np.abs(mean - (features.data @ weights[..., None])[..., 0]).max() <= 1e-12

    def test_single_segment_hits_variance_floor(self):
        x = Tensor(RNG.uniform(-1, 1, size=(3, 1)))
        out = asp(x, zero_asp(3)).data[:, 0]
        assert np.allclose(out[:3], x.data[:, 0])
        assert np.allclose(out[3:], math.sqrt(VARIANCE_FLOOR))

    def test_sigma_never_below_floor(self):
        rng = np.random.default_rng(5)
        params = AspParams.init(2, 2, rng)
        x = Tensor(np.ones((2, 6)))  # zero variance per dimension
        out = asp(x, params).data[:, 0]
        assert (out[2:] >= math.sqrt(VARIANCE_FLOOR) - 1e-15).all()

    def test_hand_value_single_row(self):
        # One feature row [1, 3] under uniform attention: mean 2,
        # std sqrt((1 + 9)/2 - 4) = 1.
        out = asp(Tensor([[1.0, 3.0]]), zero_asp(1)).data[:, 0]
        assert out == pytest.approx([2.0, 1.0], abs=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        params = AspParams.init(3, 2, rng)
        x = Tensor(rng.uniform(-1, 1, size=(3, 5)))
        probe = Tensor(rng.uniform(-1, 1, size=(6, 1)))
        err = check_function(lambda: ad.sum_all(ad.mul(asp(x, params), probe)),
                             {"x": x, **named_tensors(params)})
        assert err < 1e-4, f"worst relative error {err}"


class TestProjection:
    def test_identity_weight(self):
        pooled = Tensor(RNG.uniform(-1, 1, size=(4, 1)))
        params = EmbeddingProjection(weight=Tensor(np.eye(4)), bias=Tensor(np.zeros((4, 1))))
        assert np.array_equal(project_embedding(pooled, params).data, pooled.data)

    def test_zero_weight_returns_bias(self):
        pooled = Tensor(RNG.uniform(-1, 1, size=(3, 1)))
        bias = Tensor([[0.5], [-0.5]])
        params = EmbeddingProjection(weight=Tensor(np.zeros((2, 3))), bias=bias)
        assert np.array_equal(project_embedding(pooled, params).data, bias.data)

    def test_hand_value(self):
        params = EmbeddingProjection(weight=Tensor([[1.0, 1.0]]), bias=Tensor([[0.0]]))
        out = project_embedding(Tensor([[2.0], [1.0]]), params)
        assert np.array_equal(out.data, [[3.0]])

    def test_gradients(self):
        rng = np.random.default_rng(8)
        params = EmbeddingProjection.init(4, 3, rng)
        pooled = Tensor(rng.uniform(-1, 1, size=(4, 1)))

        def loss_value():
            out = project_embedding(pooled, params)
            return ad.sum_all(ad.mul(out, out))

        err = check_function(loss_value, {"pooled": pooled, **named_tensors(params)})
        assert err < 1e-4, f"worst relative error {err}"
