"""BLSTM, attentive statistics pooling, and projection: values and gradients."""

import math
import re

import numpy as np
import pytest

from avfuse import autodiff as ad
from avfuse.autodiff import VARIANCE_FLOOR, ShapeError, Tape, Tensor, named_tensors
from avfuse.gradcheck import check_function
from avfuse.temporal import (
    AspParams,
    BlstmParams,
    EmbeddingProjection,
    LstmDirectionParams,
    asp,
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
        x_t = ref.matmul(x, Tensor(np.eye(length)[:, t:t + 1]))
        pre = ref.add(ref.add(ref.matmul(w_input, x_t), ref.matmul(w_recurrent, h_prev)), bias)
        gate_in = ref.sigmoid(ref.matmul(gate_rows[0], pre))
        gate_forget = ref.sigmoid(ref.matmul(gate_rows[1], pre))
        cell_cand = ref.tanh(ref.matmul(gate_rows[2], pre))
        gate_out = ref.sigmoid(ref.matmul(gate_rows[3], pre))
        c_prev = ref.add(ad.mul(gate_forget, c_prev), ad.mul(gate_in, cell_cand))
        h_prev = ad.mul(gate_out, ref.tanh(c_prev))
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
            loss = term if loss is None else ref.add(loss, term)
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


def check_constant_input(fn, data, constant, probe):
    """``fn(tensors)`` with the input named ``constant`` a Constant: that input gets no
    gradient, and every other one bitwise the gradient it gets when all are Tensors."""
    grads = []
    for kind in (Tensor, ad.Constant):
        tensors = {name: (kind if name == constant else Tensor)(value) for name, value in data.items()}
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(fn(tensors), Tensor(probe)))
        tape.backward(loss)
        grads.append({name: t.grad for name, t in tensors.items()})
    tensor_grads, constant_grads = grads
    assert constant_grads.pop(constant) is None and tensor_grads.pop(constant) is not None
    for name, grad in constant_grads.items():
        assert grad.tobytes() == tensor_grads[name].tobytes(), name


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

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_a_constant_input_forms_no_gradient_term(self, batch):
        rng = np.random.default_rng([45, len(batch)])
        dim, hidden, length = 3, 4, 5
        data = {"x": rng.uniform(-1, 1, size=batch + (dim, length)), **_blstm_data(rng, dim, hidden)}
        probe = rng.uniform(-1, 1, size=batch + (2 * hidden, length))
        check_constant_input(lambda t: ad.blstm(t["x"], _direction(t, "fw."), _direction(t, "bw.")),
                             data, "x", probe)

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_first_steps_read_no_recurrent_weight(self, batch):
        # Each direction's first step starts from zero states, so no multiple
        # of w_recurrent can change it: the forward direction's time-0 output
        # and the backward direction's time-(L-1) output keep their bits.
        rng = np.random.default_rng([31, len(batch)])
        dim, hidden, length = 3, 4, 6
        data = _blstm_data(rng, dim, hidden)
        x = Tensor(rng.uniform(-1, 1, size=batch + (dim, length)))
        outs = []
        for factor in (1.0, 1e3):
            weights = {name: Tensor(value * (factor if name.endswith("w_recurrent") else 1.0))
                       for name, value in data.items()}
            outs.append(ad.blstm(x, _direction(weights, "fw."), _direction(weights, "bw.")).data)
        first = (..., slice(None, hidden), 0), (..., slice(hidden, None), length - 1)
        for index in first:
            assert outs[0][index].tobytes() == outs[1][index].tobytes()
        assert not np.array_equal(outs[0], outs[1])

    def test_a_zero_first_cell_state_is_positive_zero(self):
        # f * 0 + i * g is +0.0 when i is 0 and g negative, not the product's -0.0.
        w_input = Tensor(np.array([[-100.0], [0.0], [-1.0], [1.0]]))
        direction = (w_input, Tensor(np.zeros((4, 1))), Tensor(np.zeros((4, 1))))
        out = ad.blstm(Tensor(np.ones((1, 1))), direction, direction).data
        assert np.array_equal(out, np.zeros((2, 1))) and not np.signbit(out).any()

    def test_gate_maps_are_read_only_and_built_once_per_shape(self):
        maps = {tail: ad._gate_maps(4, tail) for tail in ((), (3,), (5,))}
        for tail, (scale, offset) in maps.items():
            assert ad._gate_maps(4, tail)[0] is scale and ad._gate_maps(4, tail)[1] is offset
            assert scale.shape == offset.shape == (2, 16) + tail
            assert np.array_equal(scale[:, 8:12], np.ones((2, 4) + tail))
            assert np.array_equal(scale + offset, np.ones_like(scale))
            for gate_map in (scale, offset):
                with pytest.raises(ValueError, match="read-only"):
                    gate_map[0] = 0.0
        assert len({id(scale) for scale, _ in maps.values()}) == 3

    @staticmethod
    def _directions(seed, dim, hidden):
        weights = {name: Tensor(value) for name, value in
                   _blstm_data(np.random.default_rng(seed), dim, hidden).items()}
        return _direction(weights, "fw."), _direction(weights, "bw.")

    def test_tape_free_one_utterance_calls_return_fresh_outputs(self):
        # The reused workspace never leaks into an output: each of two calls
        # returns what a taped call (with a workspace of its own) returns, and
        # the second leaves the first's output as it was.
        fw, bw = self._directions(51, 3, 4)
        xs = [Tensor(RNG.uniform(-1, 1, size=(3, 6))) for _ in range(2)]

        def taped(x):
            with Tape():
                return ad.blstm(x, fw, bw).data

        first = ad.blstm(xs[0], fw, bw).data
        kept = first.copy()
        second = ad.blstm(xs[1], fw, bw).data
        assert first.tobytes() == kept.tobytes() == taped(xs[0]).tobytes()
        assert second.tobytes() == taped(xs[1]).tobytes()

    def test_a_tape_free_call_before_backward_leaves_the_gradients(self):
        # A tape's saved state is its own: a tape-free call of the same shape
        # between a taped forward and its backward changes no gradient bit.
        data = _blstm_data(np.random.default_rng(52), 3, 4)
        x_data, other = RNG.uniform(-1, 1, size=(2, 3, 6))
        probe = RNG.uniform(-1, 1, size=(8, 6))

        def gradient_bytes(interrupt):
            tensors = {name: Tensor(value) for name, value in {"x": x_data, **data}.items()}
            with Tape() as tape:
                _, loss = _fused_run(tensors, probe)
            if interrupt:
                ad.blstm(Tensor(other), _direction(tensors, "fw."), _direction(tensors, "bw."))
            tape.backward(loss)
            return {name: t.grad.tobytes() for name, t in tensors.items()}

        assert gradient_bytes(True) == gradient_bytes(False)

    def test_only_tape_free_one_utterance_calls_use_the_workspace_cache(self):
        fw, bw = self._directions(53, 3, 4)
        one, batch = Tensor(RNG.uniform(-1, 1, size=(3, 6))), Tensor(RNG.uniform(-1, 1, size=(2, 3, 6)))
        ad._utterance_workspace.cache_clear()
        with Tape():
            ad.blstm(one, fw, bw)
            ad.blstm(batch, fw, bw)
        ad.blstm(batch, fw, bw)
        info = ad._utterance_workspace.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        ad.blstm(one, fw, bw)
        ad.blstm(one, fw, bw)
        info = ad._utterance_workspace.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_the_workspace_cache_is_bounded(self):
        fw, bw = self._directions(54, 3, 4)
        bound = ad._utterance_workspace.cache_info().maxsize
        assert bound is not None
        for length in range(1, bound + 3):
            ad.blstm(Tensor(RNG.uniform(-1, 1, size=(3, length))), fw, bw)
        assert ad._utterance_workspace.cache_info().currsize == bound


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


def composed_asp(features, proj, bias, score):
    """Attentive statistics pooling written on unfused tape ops: the oracle ``ad.attentive_pool`` fuses."""
    hidden = ref.tanh(ref.add_bias(ref.matmul(proj, features), bias))
    scores = ref.matmul(ref.transpose(score), hidden)                   # [B x] 1 x segments
    weights = ref.softmax_columns(ref.transpose(scores))
    mean = ref.matmul(features, weights)
    second_moment = ref.matmul(ad.mul(features, features), weights)
    variance = ref.clamp(ref.sub(second_moment, ad.mul(mean, mean)), lo=VARIANCE_FLOOR)
    return ref.concat_rows(mean, ref.sqrt(variance))


POOL_ARGS = ("features", "proj", "bias", "score")


def _run_pool(fn, data, probe):
    tensors = {name: Tensor(data[name]) for name in POOL_ARGS}
    with Tape() as tape:
        out = fn(*(tensors[name] for name in POOL_ARGS))
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
    def test_constant_features_leave_the_weight_gradients_bitwise(self, batch):
        rng = np.random.default_rng([23, len(batch)])
        data = {"features": rng.uniform(-1, 1, size=batch + (4, 6)), "proj": rng.uniform(-1, 1, size=(3, 4)),
                "bias": rng.uniform(-1, 1, size=(3, 1)), "score": rng.uniform(-1, 1, size=(3, 1))}
        probe = rng.uniform(-1, 1, size=batch + (8, 1))
        check_constant_input(lambda t: ad.attentive_pool(*t.values()), data, "features", probe)

    def test_shape_errors_name_the_operand(self):
        x, column = Tensor(np.ones((4, 6))), Tensor(np.ones((3, 1)))
        with pytest.raises(ShapeError, match="projection"):
            ad.attentive_pool(x, Tensor(np.ones((3, 5))), column, column)
        with pytest.raises(ShapeError, match="score"):
            ad.attentive_pool(x, Tensor(np.ones((3, 4))), column, Tensor(np.ones((2, 1))))
        with pytest.raises(ShapeError, match="tensor rank must be 2 or 3"):
            ad.attentive_pool(Tensor(np.ones(4)), Tensor(np.ones((3, 4))), column, column)


class TestAsp:
    def test_zero_scorer_gives_uniform_attention_and_plain_stats(self):
        x = RNG.uniform(-1, 1, size=(3, 7))
        out = asp(Tensor(x), zero_asp(3)).data[:, 0]
        assert np.allclose(out[:3], x.mean(axis=1), atol=1e-12)
        assert np.allclose(out[3:], x.std(axis=1), atol=1e-6)

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


AFFINE_ARGS = ("weight", "x", "bias")


def _run_affine(fn, tensors, probe):
    with Tape() as tape:
        out = fn(*(tensors[name] for name in AFFINE_ARGS))
    records = len(tape)
    with tape:
        loss = ad.sum_all(ad.mul(out, Tensor(probe)))
    tape.backward(loss)
    return out.data, {name: t.grad for name, t in tensors.items()}, records


def _affine_data(rng, batch):
    return {"weight": rng.uniform(-1, 1, size=(4, 6)), "x": rng.uniform(-1, 1, size=batch + (6, 1)),
            "bias": rng.uniform(-1, 1, size=(4, 1))}


class TestAffine:
    @pytest.mark.parametrize("batch", [(), (3,), (16,)])
    def test_is_bitwise_the_matmul_add_chain_in_one_record(self, batch):
        rng = np.random.default_rng([41, len(batch)])
        data = _affine_data(rng, batch)
        probe = rng.uniform(-1, 1, size=batch + (4, 1))
        runs = [_run_affine(fn, {name: Tensor(value) for name, value in data.items()}, probe)
                for fn in (ad.affine, lambda w, x, b: ref.add(ref.matmul(w, x), b))]
        (out, grads, records), (ref_out, ref_grads, ref_records) = runs
        assert (records, ref_records) == (1, 2)
        assert out.tobytes() == ref_out.tobytes()
        for name in AFFINE_ARGS:
            assert grads[name].shape == data[name].shape, name
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_a_constant_input_forms_no_gradient_term(self, batch):
        rng = np.random.default_rng([43, len(batch)])
        data = _affine_data(rng, batch)
        probe = rng.uniform(-1, 1, size=batch + (4, 1))
        check_constant_input(lambda t: ad.affine(*t.values()), data, "x", probe)

    def test_shape_errors_name_the_operand(self):
        weight, x, bias = Tensor(np.ones((4, 6))), Tensor(np.ones((6, 1))), Tensor(np.ones((4, 1)))
        with pytest.raises(ShapeError, match=re.escape("affine: weight must be (2, 6), got (2, 4, 6)")):
            ad.affine(Tensor(np.ones((2, 4, 6))), x, bias)
        with pytest.raises(ShapeError, match="tensor rank must be 2 or 3"):
            ad.affine(weight, Tensor(np.ones(6)), bias)
        with pytest.raises(ShapeError, match=re.escape("affine: input must have 6 rows for weight (4, 6), "
                                                       "got (2, 5, 1)")):
            ad.affine(weight, Tensor(np.ones((2, 5, 1))), bias)
        with pytest.raises(ShapeError, match=re.escape("affine: bias must be (4, 1), got (4, 2)")):
            ad.affine(weight, x, Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError, match=re.escape("affine: bias must be (4, 1), got (2, 4, 1)")):
            ad.affine(weight, x, Tensor(np.ones((2, 4, 1))))
