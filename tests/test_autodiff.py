"""Kernel-level tests: forward values, backward vs finite differences, tape behavior."""

import re

import numpy as np
import pytest

from avfuse import autodiff as ad
from avfuse.autodiff import (
    Constant,
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
)
from avfuse.config import TrainConfig
from avfuse.gradcheck import check_function, numeric_gradient
from avfuse.model import VerificationModel

import reference_ops as ref

GRAD_TOL = 1e-4


def check_op_gradient(build, inputs, tol=GRAD_TOL):
    """Compare tape gradients of sum(build(*inputs)) against central differences."""
    worst = check_function(lambda: ad.sum_all(build(*inputs)),
                           {str(i): t for i, t in enumerate(inputs)})
    assert worst < tol, f"worst relative error {worst}"


class TestForwardValues:
    def test_matmul_identity(self):
        a = Tensor(np.arange(9.0).reshape(3, 3) / 4.0)
        eye = Tensor(np.eye(3))
        assert np.array_equal(ref.matmul(eye, a).data, a.data)

    def test_matmul_zero(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        z = Tensor(np.zeros((2, 2)))
        assert np.array_equal(ref.matmul(a, z).data, np.zeros((2, 2)))

    def test_matmul_hand_value(self):
        # Hand evaluation of the product definition: rows of A dotted with [5, 6].
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.array_equal(ref.matmul(a, b).data, [[17.0], [39.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ref.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_mul_shape_error_names_both_shapes(self):
        batch, item = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4)))
        assert ad.mul(batch, item).shape == (2, 3, 4)
        # Only the second operand broadcasts along the first's batch axis.
        for a, b in [(item, Tensor(np.ones((4, 3)))), (item, batch)]:
            message = f"mul: shape mismatch {a.shape} vs {b.shape}"
            with pytest.raises(ShapeError, match=re.escape(message)):
                ad.mul(a, b)

    def test_tanh_zero(self):
        z = Tensor(np.zeros((3, 2)))
        assert np.array_equal(ref.tanh(z).data, np.zeros((3, 2)))

    def test_relu_sign(self):
        assert np.array_equal(ref.relu(Tensor([[-1.0, 2.0]])).data, [[0.0, 2.0]])

    def test_softmax_constant_column(self):
        x = Tensor(np.full((4, 1), 0.37))
        assert np.allclose(ref.softmax_columns(x).data, 0.25, atol=1e-15)

    def test_softmax_columns_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-5, 5, size=(6, 9)))
        y = ref.softmax_columns(x).data
        assert (y >= 0).all()
        assert np.abs(y.sum(axis=0) - 1.0).max() < 1e-9

    def test_lstm_shape_errors_name_the_operand(self):
        x = Tensor(np.ones((3, 4)))
        w_in, w_rec, b = Tensor(np.ones((8, 3))), Tensor(np.ones((8, 2))), Tensor(np.ones((8, 1)))
        good = (w_in, w_rec, b)
        with pytest.raises(ShapeError, match="forward recurrent"):
            ad.blstm(x, (w_in, Tensor(np.ones((6, 2))), b), good)
        with pytest.raises(ShapeError, match="forward recurrent"):
            ad.blstm(x, (w_in, Tensor(np.ones((2, 8, 2))), b), good)
        with pytest.raises(ShapeError, match="backward input weight"):
            ad.blstm(x, good, (Tensor(np.ones((8, 4))), w_rec, b))
        with pytest.raises(ShapeError, match="backward bias"):
            ad.blstm(x, good, (w_in, w_rec, Tensor(np.ones((8, 2)))))
        # Both directions share the forward direction's hidden size.
        with pytest.raises(ShapeError, match="backward recurrent"):
            ad.blstm(x, good, (Tensor(np.ones((12, 3))), Tensor(np.ones((12, 3))),
                               Tensor(np.ones((12, 1)))))
        with pytest.raises(ShapeError, match="no time steps"):
            ad.blstm(Tensor(np.ones((3, 0))), good, good)

    def test_concat_empty(self):
        a = Tensor(np.ones((2, 4)))
        empty = Tensor(np.zeros((0, 4)))
        assert np.array_equal(ref.concat_rows(a, empty).data, a.data)

    def test_concat_shapes(self):
        out = ref.concat_rows(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))))
        assert out.shape == (5, 4)

    def test_concat_stacking_definition(self):
        out = ref.concat_rows(Tensor([[1.0]]), Tensor([[2.0]]))
        assert np.array_equal(out.data, [[1.0], [2.0]])

    def test_concat_column_mismatch(self):
        with pytest.raises(ShapeError):
            ref.concat_rows(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 5))))

    def test_nonfinite_rejected_at_construction(self):
        with pytest.raises(NonFiniteError):
            Tensor([[np.nan, 1.0]])
        with pytest.raises(NonFiniteError):
            Tensor([[np.inf]])

    def test_rank_bounds(self):
        for kind in (Tensor, Constant):
            for shape in [(), (3,), (2, 2, 2, 2)]:
                message = f"tensor rank must be 2 or 3, got shape {shape}"
                with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
                    kind(np.zeros(shape))

    def test_item_needs_a_single_element(self):
        assert Tensor([[2.5]]).item() == 2.5
        message = "item() needs a single-element tensor, got shape (2, 1)"
        with pytest.raises(ShapeError, match=re.escape(message)):
            Tensor(np.ones((2, 1))).item()

    def test_repr_names_the_type_and_shape(self):
        assert repr(Tensor(np.ones((2, 3)))) == "Tensor(shape=(2, 3))"
        assert repr(Constant(np.ones((2, 3, 1)))) == "Constant(shape=(2, 3, 1))"


class TestNumericGradientOracle:
    def test_linear_function(self):
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, size=(3, 2)))
        g = numeric_gradient(lambda: float(x.data.sum()), x)
        assert np.allclose(g, 1.0, atol=1e-9)

    def test_quadratic(self):
        x = Tensor(np.random.default_rng(1).uniform(-1, 1, size=(1, 4)))
        g = numeric_gradient(lambda: 0.5 * float((x.data ** 2).sum()), x)
        assert np.allclose(g, x.data, atol=1e-9)

    def test_tanh_derivative_at_zero(self):
        x = Tensor([[0.0]])
        g = numeric_gradient(lambda: float(np.tanh(x.data).sum()), x)
        assert abs(g[0, 0] - 1.0) < 1e-9

    def test_nonfinite_evaluation_rejected(self):
        with pytest.raises(NonFiniteError):
            numeric_gradient(lambda: float("nan"), Tensor([[1.0]]))


class TestBackwardVsFiniteDifferences:
    """Every differentiable op, random inputs in [-1, 1], double precision."""

    rng = np.random.default_rng(1234)

    def _u(self, *shape):
        return Tensor(self.rng.uniform(-1, 1, size=shape))

    def test_matmul(self):
        check_op_gradient(ref.matmul, [self._u(3, 4), self._u(4, 2)])

    def test_add_sub_mul(self):
        check_op_gradient(ref.add, [self._u(3, 3), self._u(3, 3)])
        check_op_gradient(ref.sub, [self._u(3, 3), self._u(3, 3)])
        check_op_gradient(ad.mul, [self._u(3, 3), self._u(3, 3)])

    def test_scale_shift(self):
        check_op_gradient(lambda x: ref.scale_shift(x, -1.7, 0.3), [self._u(2, 5)])

    def test_tanh(self):
        check_op_gradient(ref.tanh, [self._u(4, 3)])

    def test_relu_away_from_kink(self):
        # Keep inputs off the kink at zero where the derivative is undefined.
        x = self.rng.uniform(0.1, 1.0, size=(4, 3)) * self.rng.choice([-1.0, 1.0], size=(4, 3))
        check_op_gradient(ref.relu, [Tensor(x)])

    def test_sigmoid(self):
        check_op_gradient(ref.sigmoid, [self._u(3, 4)])

    def test_softmax_columns(self):
        # Probe with a random linear functional so the check is not trivially zero.
        probe = self.rng.uniform(-1, 1, size=(5, 3))
        check_op_gradient(
            lambda x: ad.mul(ref.softmax_columns(x), Tensor(probe)), [self._u(5, 3)]
        )

    def test_concat_rows(self):
        probe = self.rng.uniform(-1, 1, size=(5, 2))
        check_op_gradient(
            lambda a, b: ad.mul(ref.concat_rows(a, b), Tensor(probe)),
            [self._u(2, 2), self._u(3, 2)],
        )

    def test_transpose(self):
        probe = self.rng.uniform(-1, 1, size=(4, 2))
        check_op_gradient(lambda x: ad.mul(ref.transpose(x), Tensor(probe)), [self._u(2, 4)])

    def test_add_bias(self):
        check_op_gradient(ref.add_bias, [self._u(3, 5), self._u(3, 1)])

    def test_clamp_inside_interval(self):
        x = Tensor(self.rng.uniform(-0.4, 0.4, size=(3, 3)))
        check_op_gradient(lambda t: ref.clamp(t, -0.5, 0.5), [x])

    def test_sqrt(self):
        x = Tensor(self.rng.uniform(0.2, 1.0, size=(3, 3)))
        check_op_gradient(ref.sqrt, [x])

    def test_l2_normalize_columns(self):
        probe = self.rng.uniform(-1, 1, size=(4, 2))
        x = Tensor(self.rng.uniform(0.3, 1.0, size=(4, 2)))
        check_op_gradient(lambda t: ad.mul(ref.l2_normalize_columns(t), Tensor(probe)), [x])

    def test_cross_entropy_index(self):
        x = self._u(6, 1)
        assert check_function(lambda: ref.cross_entropy_index(x, 2), {"x": x}) < GRAD_TOL


class TestTape:
    def test_reverse_order_and_accumulation(self):
        # y = (x + x) * x; grads must accumulate additively across the shared input.
        x = Tensor([[2.0]])
        with Tape() as tape:
            y = ad.mul(ref.add(x, x), x)
            loss = ad.sum_all(y)
        tape.backward(loss)
        assert x.grad[0, 0] == pytest.approx(8.0)  # d/dx 2x^2 = 4x

    def test_replay_is_bitwise_deterministic(self):
        rng = np.random.default_rng(5)
        a_data = rng.uniform(-1, 1, size=(4, 4))
        b_data = rng.uniform(-1, 1, size=(4, 4))

        def run():
            a, b = Tensor(a_data), Tensor(b_data)
            with Tape() as tape:
                out = ref.tanh(ref.matmul(a, ref.softmax_columns(b)))
                loss = ad.sum_all(ad.mul(out, out))
            tape.backward(loss)
            return a.grad.tobytes(), b.grad.tobytes()

        assert run() == run()

    def test_same_tape_rerun_matches(self):
        a = Tensor(np.random.default_rng(6).uniform(-1, 1, size=(3, 3)))
        with Tape() as tape:
            loss = ad.sum_all(ref.tanh(ref.matmul(a, a)))
        tape.backward(loss)
        first = a.grad.tobytes()
        a.grad = None
        tape.backward(loss)
        assert a.grad.tobytes() == first

    def test_backward_releases_op_output_gradients_only(self):
        a = Tensor([[0.5, -1.0]])
        with Tape() as tape:
            hidden = ref.tanh(a)
            out = ad.mul(hidden, hidden)
            loss = ad.sum_all(out)
        tape.backward(loss)
        assert hidden.grad is None and out.grad is None and loss.grad is None
        assert np.allclose(a.grad, 2 * np.tanh(a.data) * (1 - np.tanh(a.data) ** 2))

    def test_op_whose_output_gets_no_gradient_is_skipped(self):
        calls = []

        def recorded_identity(x):
            out = Tensor._wrap(x.data.copy())

            def backward(g):
                calls.append(g)
                ad._accumulate(x, g)

            ad._record(backward, out)
            return out

        a, b = Tensor([[0.5, -1.0]]), Tensor([[2.0, 3.0]])
        with Tape() as tape:
            dead = recorded_identity(b)
            loss = ad.sum_all(ad.mul(recorded_identity(a), a))
        tape.backward(loss)
        assert len(calls) == 1  # only the identity on the loss path ran
        assert b.grad is None and dead.grad is None
        assert np.allclose(a.grad, 2 * a.data)

    def test_gradient_arrays_handed_to_two_inputs_stay_separate(self):
        # add hands one gradient array to both of its inputs.
        rng = np.random.default_rng(7)
        a = Tensor(rng.uniform(-1, 1, size=(3, 4)))
        b = Tensor(rng.uniform(-1, 1, size=(3, 4)))
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(ref.add(a, b), a))
        tape.backward(loss)
        assert np.allclose(a.grad, 2 * a.data + b.data) and np.allclose(b.grad, a.data)
        # Here a also feeds an op recorded before add, so its second gradient
        # arrives after b already holds the shared array.
        a.grad = b.grad = None
        with Tape() as tape:
            squashed = ref.tanh(a)
            loss = ad.sum_all(ad.mul(ref.add(a, b), squashed))
        tape.backward(loss)
        t = np.tanh(a.data)
        assert np.allclose(b.grad, t)
        assert np.allclose(a.grad, t + (a.data + b.data) * (1 - t * t))

    def test_batch_weight_gradients_sum_over_items(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.uniform(-1, 1, size=(2, 3)))
        x = Tensor(rng.uniform(-1, 1, size=(4, 3, 5)))
        bias = Tensor(rng.uniform(-1, 1, size=(2, 1)))
        with Tape() as tape:
            loss = ad.sum_all(ref.add_bias(ref.matmul(w, x), bias))
        tape.backward(loss)
        assert np.allclose(w.grad, x.data.sum(axis=(0, 2))[None, :].repeat(2, axis=0))
        assert np.allclose(bias.grad, np.full((2, 1), 20.0))
        assert np.allclose(x.grad, np.broadcast_to(w.data.sum(axis=0)[:, None], (4, 3, 5)))

    def test_cross_entropy_index_over_a_batch(self):
        rng = np.random.default_rng(4)
        logits = rng.uniform(-1, 1, size=(3, 5, 1))
        labels = np.array([4, 0, 2])
        batch = ref.cross_entropy_index(Tensor(logits), labels).data
        assert batch.shape == (3, 1, 1)
        for b in range(3):
            single = ref.cross_entropy_index(Tensor(logits[b]), int(labels[b])).data
            assert batch[b, 0, 0] == single[0, 0]
        with pytest.raises(ShapeError):
            ref.cross_entropy_index(Tensor(logits), 1)

    def test_an_empty_active_tape_is_still_a_tape(self):
        # A tape that holds no record yet must not read as "no tape" in a truth test.
        with Tape() as outer:
            assert outer and ad._active_tape() is outer
            with Tape() as inner:
                assert ad._active_tape() is inner
            assert ad._active_tape() is outer
        assert ad._active_tape() is None

    def test_no_tape_means_no_grads(self):
        a = Tensor([[1.0, 2.0]])
        out = ref.tanh(a)
        assert a.grad is None and out.grad is None

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            y = ref.tanh(x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_overflowing_op_result_passes_unchecked(self):
        # Only Tensor construction validates values; training guards its loss and gradients.
        big = Tensor([[1e308]])
        with np.errstate(over="ignore"):
            assert np.isinf(ref.scale_shift(big, 10.0).data).all()  # silent overflow


class TestConstant:
    def test_rejects_non_finite_values_like_tensor(self):
        with pytest.raises(NonFiniteError):
            Constant([[1.0, np.nan]])
        with pytest.raises(NonFiniteError):
            Constant(np.array([[1.0], [-np.inf]]))
        with pytest.raises(ShapeError):
            Constant(np.ones((1, 1, 1, 1)))

    def test_holds_a_float64_c_contiguous_array_without_a_copy(self):
        x = np.arange(6.0).reshape(2, 3)
        assert Constant(x).data is x and np.shares_memory(Constant(x[1:]).data, x)
        assert Tensor(x).data is not x
        for other in (x.T, x.astype(np.float32), x.astype(int), x.tolist()):
            held = Constant(other).data
            assert held.dtype == np.float64 and held.flags.c_contiguous
            assert np.array_equal(held, np.asarray(other)) and not np.shares_memory(held, x)

    def test_constant_operand_gets_no_gradient_and_the_other_the_tensor_one(self):
        rng = np.random.default_rng(12)
        w_data, x_data = rng.uniform(-1, 1, size=(2, 3)), rng.uniform(-1, 1, size=(4, 3, 5))
        grads = {}
        for kind in (Tensor, Constant):
            w, x = Tensor(w_data), kind(x_data)
            with Tape() as tape:
                loss = ad.sum_all(ref.tanh(ref.matmul(w, x)))
            assert len(tape) == 3
            tape.backward(loss)
            grads[kind] = w.grad, x.grad
        assert grads[Constant][0].tobytes() == grads[Tensor][0].tobytes()
        assert grads[Constant][1] is None and grads[Tensor][1] is not None


# The model's real products: a batched training step (loss and backward) and a
# tape-free embed, of the default model and of fusion_deep (RJCA at T=5 over 32
# segments, no BLSTM), one utterance (rank 2) or a batch of 16 (rank 3).
PRODUCT_CONFIGS = {
    "default": {},
    "fusion_deep": {"segments": 32, "iterations": 5, "use_blstm": False},
}


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("name", list(PRODUCT_CONFIGS))
def test_mm_is_bitwise_matmul_at_the_model_shapes(name, rank, monkeypatch):
    # ad._mm takes np.dot for 2-D operands on the premise that it makes the
    # BLAS call of ``@`` (gemm, gemv; syrk for a @ a.T).  A numpy or BLAS
    # upgrade that breaks that premise fails here, by name.
    config = TrainConfig(**PRODUCT_CONFIGS[name])
    model = VerificationModel(config, n_speakers=50)
    rng = np.random.default_rng([rank, len(name)])
    lead = (16,) if rank == 3 else ()
    audio = rng.standard_normal(lead + (config.audio_dim, config.segments))
    visual = rng.standard_normal(lead + (config.visual_dim, config.segments))
    labels = rng.integers(0, 50, size=16) if rank == 3 else 7
    mm, kinds = ad._mm, set()

    def checked(a, b, out=None):
        # A batch against a shared matrix is one product over its stacked rows.
        if a.ndim == 3 and b.ndim == 2:
            expected = (a.reshape(-1, a.shape[2]) @ b).reshape(a.shape[0], a.shape[1], b.shape[1])
        else:
            expected = a @ b
        result = mm(a, b, out)
        assert result.tobytes() == expected.tobytes(), (a.shape, a.strides, b.shape, b.strides)
        kinds.add((a.ndim, b.ndim, out is not None))
        return result

    monkeypatch.setattr(ad, "_mm", checked)
    with Tape() as tape:
        loss = ad.sum_all(model.loss(audio, visual, labels))
    tape.backward(loss)
    model.embed(audio, visual)
    assert (2, 2, False) in kinds
    if config.use_blstm:
        assert (2, 2 if rank == 3 else 1, True) in kinds  # the recurrent products
    joint = np.concatenate([audio, visual], axis=-2).reshape(-1, config.segments)
    checked(joint, joint.T)
    checked(joint.T, joint)


@pytest.mark.parametrize("name", list(PRODUCT_CONFIGS))
def test_one_utterance_fusion_is_bitwise_its_matmul_chain_at_the_model_shapes(name, monkeypatch):
    # A one-utterance fusion stage calls ndarray.dot itself, not through ad._mm, on the
    # same premise; the oracle chain here takes ``@`` for every product.
    config = TrainConfig(**PRODUCT_CONFIGS[name])
    model = VerificationModel(config, n_speakers=50)
    rng = np.random.default_rng(len(name))
    audio = Tensor(rng.standard_normal((config.audio_dim, config.segments)))
    visual = Tensor(rng.standard_normal((config.visual_dim, config.segments)))
    fused = model.fuse(audio, visual).data
    monkeypatch.setattr(ref, "_mm", lambda a, b, out=None: np.matmul(a, b, out=out))
    chained = ref.chained_fusion(model.cross, audio, visual, model.fusion_steps).data
    assert len(model.fusion_steps) == config.iterations
    assert fused.tobytes() == chained.tobytes()
