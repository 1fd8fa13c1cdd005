"""Kernel-level tests: forward values, backward vs finite differences, tape behavior."""

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
from avfuse.gradcheck import check_function, numeric_gradient

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
        assert np.array_equal(ad.matmul(eye, a).data, a.data)

    def test_matmul_zero(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        z = Tensor(np.zeros((2, 2)))
        assert np.array_equal(ad.matmul(a, z).data, np.zeros((2, 2)))

    def test_matmul_hand_value(self):
        # Hand evaluation of the product definition: rows of A dotted with [5, 6].
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.array_equal(ad.matmul(a, b).data, [[17.0], [39.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_tanh_zero(self):
        z = Tensor(np.zeros((3, 2)))
        assert np.array_equal(ref.tanh(z).data, np.zeros((3, 2)))

    def test_relu_sign(self):
        assert np.array_equal(ref.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

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
        assert np.array_equal(ad.concat_rows(a, empty).data, a.data)

    def test_concat_shapes(self):
        out = ad.concat_rows(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))))
        assert out.shape == (5, 4)

    def test_concat_stacking_definition(self):
        out = ad.concat_rows(Tensor([[1.0]]), Tensor([[2.0]]))
        assert np.array_equal(out.data, [[1.0], [2.0]])

    def test_concat_column_mismatch(self):
        with pytest.raises(ShapeError):
            ad.concat_rows(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 5))))

    def test_nonfinite_rejected_at_construction(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan, 1.0])
        with pytest.raises(NonFiniteError):
            Tensor([[np.inf]])

    def test_rank_bounds(self):
        with pytest.raises(ShapeError):
            Tensor(3.0)
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2, 2)))


class TestNumericGradientOracle:
    def test_linear_function(self):
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, size=(3, 2)))
        g = numeric_gradient(lambda t: float(t.data.sum()), x)
        assert np.allclose(g, 1.0, atol=1e-9)

    def test_quadratic(self):
        x = Tensor(np.random.default_rng(1).uniform(-1, 1, size=(4,)))
        g = numeric_gradient(lambda t: 0.5 * float((t.data ** 2).sum()), x)
        assert np.allclose(g, x.data, atol=1e-9)

    def test_tanh_derivative_at_zero(self):
        x = Tensor([0.0])
        g = numeric_gradient(lambda t: float(np.tanh(t.data).sum()), x)
        assert abs(g[0] - 1.0) < 1e-9

    def test_nonfinite_evaluation_rejected(self):
        with pytest.raises(NonFiniteError):
            numeric_gradient(lambda t: float("nan"), Tensor([1.0]))


class TestBackwardVsFiniteDifferences:
    """Every differentiable op, random inputs in [-1, 1], double precision."""

    rng = np.random.default_rng(1234)

    def _u(self, *shape):
        return Tensor(self.rng.uniform(-1, 1, size=shape))

    def test_matmul(self):
        check_op_gradient(ad.matmul, [self._u(3, 4), self._u(4, 2)])

    def test_add_sub_mul(self):
        check_op_gradient(ad.add, [self._u(3, 3), self._u(3, 3)])
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
            lambda a, b: ad.mul(ad.concat_rows(a, b), Tensor(probe)),
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
            y = ad.mul(ad.add(x, x), x)
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
                out = ref.tanh(ad.matmul(a, ref.softmax_columns(b)))
                loss = ad.sum_all(ad.mul(out, out))
            tape.backward(loss)
            return a.grad.tobytes(), b.grad.tobytes()

        assert run() == run()

    def test_same_tape_rerun_matches(self):
        a = Tensor(np.random.default_rng(6).uniform(-1, 1, size=(3, 3)))
        with Tape() as tape:
            loss = ad.sum_all(ref.tanh(ad.matmul(a, a)))
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
            loss = ad.sum_all(ad.mul(ad.add(a, b), a))
        tape.backward(loss)
        assert np.allclose(a.grad, 2 * a.data + b.data) and np.allclose(b.grad, a.data)
        # Here a also feeds an op recorded before add, so its second gradient
        # arrives after b already holds the shared array.
        a.grad = b.grad = None
        with Tape() as tape:
            squashed = ref.tanh(a)
            loss = ad.sum_all(ad.mul(ad.add(a, b), squashed))
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
            loss = ad.sum_all(ref.add_bias(ad.matmul(w, x), bias))
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
        with pytest.raises(ShapeError):
            Constant(np.ones((1, 1, 1, 1)))

    def test_op_of_constants_only_records_nothing_and_returns_a_constant(self):
        a, b = Constant(np.ones((2, 3))), Constant(np.zeros((1, 3)))
        with Tape() as tape:
            joint = ad.concat_rows(a, b)
            squashed = ref.tanh(joint)
        assert len(tape) == 0
        assert isinstance(joint, Constant) and isinstance(squashed, Constant)
        assert np.array_equal(joint.data, np.concatenate([a.data, b.data]))
        assert np.array_equal(squashed.data, np.tanh(joint.data))

    def test_constant_operand_gets_no_gradient_and_the_other_the_tensor_one(self):
        rng = np.random.default_rng(12)
        w_data, x_data = rng.uniform(-1, 1, size=(2, 3)), rng.uniform(-1, 1, size=(4, 3, 5))
        grads = {}
        for kind in (Tensor, Constant):
            w, x = Tensor(w_data), kind(x_data)
            with Tape() as tape:
                loss = ad.sum_all(ref.tanh(ad.matmul(w, x)))
            assert len(tape) == 3
            tape.backward(loss)
            grads[kind] = w.grad, x.grad
        assert grads[Constant][0].tobytes() == grads[Tensor][0].tobytes()
        assert grads[Constant][1] is None and grads[Tensor][1] is not None
