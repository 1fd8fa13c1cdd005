"""Dense real-tensor kernels with reverse-mode differentiation on an explicit tape.

This module holds the engine (``Tensor`` and ``Tape``), the primitive ops the
model and ``gradcheck`` run, and the fused layer ops, each a pure function of
``Tensor`` inputs.  The unfused primitives that the tests compose into
reference chains for the fused layers live with the tests, in
tests/reference_ops.py.

When a ``Tape`` is active (entered as a context manager), each op records
``(closure, out)``: its output and a closure that takes the output's gradient
and accumulates its inputs'.  ``Tape.backward`` replays the records in exact
reverse order of forward execution and alone reads an output gradient: it
skips an op whose output got none, calls the closure with it, then releases
it.  Gradients accumulate by value, so an op may pass its output gradient, or
a view of it, straight on to an input, and tensors may share one gradient
array; hence nothing may mutate a ``.grad`` array in place.  Without an active
tape, ops run as plain numpy forward passes (the inference path).

A ``Constant`` is a leaf tensor that never gets a gradient; the model takes
its input features as constants.  The fused ops do not form the gradient
terms of constant inputs, a primitive's term for one is dropped on
accumulation, and an op whose inputs are all constants records nothing and
returns a constant, so the first joint stack of the raw features costs no
tape record.

Tensors have rank 1 to 3.  A rank-2 ``(rows, cols)`` tensor is one
utterance's matrix; a rank-3 ``(B, rows, cols)`` tensor stacks B of them on a
leading batch axis, and every matrix op works on the last two axes of each
item.  A rank-2 weight meets a rank-3 batch by broadcasting along that axis,
and its gradient is formed against the whole batch in one contraction, so one
tape records a whole mini-batch with the same ops, and the same code runs a
single utterance.

The primitives are elementwise or matrix ops with one closure each.  Fused
layer ops (``blstm``, ``attend``, ``attentive_pool``, ``aam_cross_entropy``)
run a whole layer body in numpy and record a single closure holding its
hand-derived backward, which cuts the per-record Python overhead that
dominates at these matrix sizes.  Their large elementwise chains run in place
in one buffer each, in the operation order of the plain expression, so the
bits are the expression's.  ``blstm`` is the whole bidirectional layer
in one record: one time loop advances the forward direction at time s and the
backward direction at time L-1-s, with their states stacked so each state
update is one numpy call for both, and one tanh per step gives all four gates
of both directions, through sigmoid(z) = 1/2 + tanh(z/2)/2.

A tape is single-threaded by design: one tape per training worker.  The active
tape is tracked in thread-local storage, so read-only forwards on disjoint
tensors may run concurrently across threads.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class NonFiniteError(ValueError):
    """A tensor or function value contains NaN or Inf."""


_MAX_RANK = 3

_ACTIVE = threading.local()


def _active_tape() -> "Tape | None":
    stack = getattr(_ACTIVE, "stack", None)
    return stack[-1] if stack else None


class Tensor:
    """Dense float64 array of rank 1-3 with an optional gradient buffer.

    Values are validated to be finite at construction.  ``grad`` stays None
    until backward hands the tensor a gradient (see the module docstring); an
    op result's gradient is released once its op's closure has used it, while
    tensors built here (parameters, inputs) keep theirs.  ``Constant``, the
    other kind of leaf, never gets one.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C")
        if not 1 <= arr.ndim <= _MAX_RANK:
            raise ShapeError(f"tensor rank must be 1..{_MAX_RANK}, got shape {arr.shape}")
        if arr.size and not np.isfinite(arr).all():
            raise NonFiniteError("tensor data contains NaN or Inf")
        self.data = arr
        self.grad = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Fast path for op results: no copy and no finiteness check.
        t = cls.__new__(cls)
        t.data = arr
        t.grad = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape})"


class Constant(Tensor):
    """A leaf tensor that never gets a gradient, such as the model's input features.

    Built and validated like a ``Tensor``.  Backward hands it nothing: ops
    skip the gradient terms that would only feed a constant, and an op whose
    inputs are all constants records nothing and returns a constant.
    """

    __slots__ = ()


def named_tensors(params, prefix: str = "") -> dict[str, Tensor]:
    """Every ``Tensor`` field of a parameter dataclass by dotted name, in field order.

    Nested dataclass fields recurse under their own name, so the ``w_input``
    of a ``fw`` field comes out as ``prefix + "fw.w_input"``; other fields
    (hyperparameters) are skipped.
    """
    named: dict[str, Tensor] = {}
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if isinstance(value, Tensor):
            named[prefix + field.name] = value
        elif dataclasses.is_dataclass(value):
            named.update(named_tensors(value, f"{prefix}{field.name}."))
    return named


class Tape:
    """Ordered record of executed ops sufficient to replay backward.

    Gradients accumulate additively with a fixed traversal order (exact
    reverse of forward execution), so replaying an identical tape twice
    yields bitwise-identical gradients.
    """

    def __init__(self):
        self._records: list[tuple[Callable[[np.ndarray], None], Tensor]] = []

    def __enter__(self) -> "Tape":
        stack = getattr(_ACTIVE, "stack", None)
        if stack is None:
            stack = []
            _ACTIVE.stack = stack
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.stack.pop()

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, output: Tensor, seed: float = 1.0) -> None:
        """Seed the scalar output gradient and run all closures in reverse.

        Ops whose output got no gradient are skipped; every consumer of an op output
        was recorded after the op, so its gradient is dropped once its closure has run.
        """
        if output.data.size != 1:
            raise ShapeError(f"backward needs a scalar output, got shape {output.shape}")
        _accumulate(output, np.full_like(output.data, float(seed)))
        for closure, out in reversed(self._records):
            if out.grad is None:
                continue
            closure(out.grad)
            out.grad = None


def _accumulate(t: Tensor, delta: np.ndarray) -> None:
    if isinstance(t, Constant):
        return
    t.grad = delta if t.grad is None else t.grad + delta


def _record(backward: Callable[[np.ndarray], None], out: Tensor, *inputs: Tensor) -> Tensor:
    """Record one op on the active tape and return its output.

    When ``inputs`` are given and all are constants, nothing could receive a
    gradient: the op records nothing and its output comes back as a constant.
    """
    # A tensor that is not a plain Tensor is a Constant.  Most ops' first
    # input is a plain Tensor, so one type test settles the common case.
    if inputs and type(inputs[0]) is Constant and Tensor not in map(type, inputs):
        return Constant._wrap(out.data)
    tape = _active_tape()
    if tape is not None:
        tape._records.append((backward, out))
    return out


def _require_matrix(x: Tensor, op: str) -> None:
    if x.ndim not in (2, 3):
        raise ShapeError(f"{op}: rank-2 or rank-3 tensor required, got shape {x.shape}")


def _require_rank2(x: Tensor, op: str) -> None:
    if x.ndim != 2:
        raise ShapeError(f"{op}: rank-2 tensor required, got shape {x.shape}")


def _require_same_batch(a: Tensor, b: Tensor, op: str) -> None:
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"{op}: batch axes disagree for shapes {a.shape} vs {b.shape}")


def _broadcastable(a: Tensor, b: Tensor, op: str) -> None:
    """Equal shapes, or a rank-3 batch against a rank-2 operand of its item shape."""
    if a.shape == b.shape or (a.ndim == 3 and a.shape[1:] == b.shape) \
            or (b.ndim == 3 and b.shape[1:] == a.shape):
        return
    raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _unbroadcast(grad: np.ndarray, t: Tensor) -> np.ndarray:
    """Sum a gradient over the leading batch axis its operand was broadcast along."""
    return grad.sum(axis=0) if grad.ndim > t.ndim else grad


def _swap(x: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack (a view)."""
    return x.swapaxes(-1, -2)


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over an optional leading batch axis on either side.

    A batch times a shared rank-2 matrix is one 2-D GEMM over the stacked rows.
    """
    if a.ndim == 3 and b.ndim == 2:
        return (a.reshape(-1, a.shape[2]) @ b).reshape(a.shape[0], a.shape[1], b.shape[1])
    return a @ b


def _left_grad(g: np.ndarray, b: np.ndarray, a_ndim: int) -> np.ndarray:
    """Gradient of a in out = a @ b: g @ b^T, one contraction over the batch if a is shared."""
    if a_ndim < g.ndim:
        return np.tensordot(g, b, axes=([0, 2], [0, 2]))
    return _mm(g, _swap(b))


def _right_grad(a: np.ndarray, g: np.ndarray, b_ndim: int) -> np.ndarray:
    """Gradient of b in out = a @ b: a^T @ g, one contraction over the batch if b is shared."""
    if b_ndim < g.ndim:
        return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return _swap(a) @ g


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of rank-2 or rank-3 tensors, over the leading batch axis if any."""
    _require_matrix(a, "matmul")
    _require_matrix(b, "matmul")
    if a.shape[-1] != b.shape[-2] or (a.ndim == b.ndim == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError(f"matmul: inner extents disagree for shapes {a.shape} x {b.shape}")
    out = Tensor._wrap(_mm(a.data, b.data))

    def backward(g):
        _accumulate(a, _left_grad(g, b.data, a.ndim))
        _accumulate(b, _right_grad(a.data, g, b.ndim))

    return _record(backward, out, a, b)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; a rank-2 operand broadcasts along a rank-3 one's batch axis."""
    _broadcastable(a, b, "add")
    out = Tensor._wrap(a.data + b.data)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a))
        _accumulate(b, _unbroadcast(g, b))

    return _record(backward, out, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product, broadcasting like ``add``."""
    _broadcastable(a, b, "mul")
    out = Tensor._wrap(a.data * b.data)

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a))
        _accumulate(b, _unbroadcast(g * a.data, b))

    return _record(backward, out, a, b)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Vertical stack of two matrices (or two equal-size batches) with equal column counts."""
    _require_matrix(a, "concat_rows")
    _require_matrix(b, "concat_rows")
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"concat_rows: column counts disagree for shapes {a.shape} vs {b.shape}")
    _require_same_batch(a, b, "concat_rows")
    out = Tensor._wrap(np.concatenate([a.data, b.data], axis=-2))
    split = a.shape[-2]

    def backward(g):
        _accumulate(a, g[..., :split, :])
        _accumulate(b, g[..., split:, :])

    return _record(backward, out, a, b)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a (1, 1) tensor."""
    out = Tensor._wrap(np.array([[x.data.sum()]]))

    def backward(g):
        _accumulate(x, np.full_like(x.data, g.reshape(-1)[0]))

    return _record(backward, out, x)


# ---------------------------------------------------------------------------
# Fused layer ops
# ---------------------------------------------------------------------------


def blstm(x: Tensor, forward: tuple[Tensor, Tensor, Tensor],
          backward: tuple[Tensor, Tensor, Tensor]) -> Tensor:
    """Bidirectional LSTM over the columns of (d, L) -> (2h, L), or (B, d, L) -> (B, 2h, L).

    ``forward`` and ``backward`` are each direction's ``(w_input, w_recurrent,
    bias)``, shaped (4h, d), (4h, h) and (4h, 1) with gate rows ordered
    input/forget/cell/output; both initial states are zero.  The forward
    direction fills the top h output rows; the backward direction runs from
    the last column to the first and fills the bottom h, in input-time order.
    Step s of the one time loop moves the forward direction to time s and the
    backward direction to time L-1-s, their states stacked on a leading axis
    of two, so each nonlinearity and state update is one in-place numpy call
    for both; a batch's B items are the B columns of each (h, B) state block,
    one utterance runs on (h,) vectors.  Each direction's input projection is
    hoisted out of the loop as BLAS products written straight into the gate
    buffer (a batch's from one contiguous time-major copy), plus a contiguous
    bias shift; each step is one (4h, h) recurrent product per direction and
    one tanh over all four gate blocks of both, the sigmoid rows taken as
    1/2 + tanh(z/2)/2.  The layer is one tape record whose backward runs
    backpropagation through time by hand from the stored gate values and
    forms each direction's gradients as whole-sequence GEMMs over its stacked
    pre-activation gradients.
    """
    _require_matrix(x, "blstm")
    dim, length = x.shape[-2:]
    hidden = forward[1].shape[1] if forward[1].ndim == 2 else 0
    for name, (w_in, w_rec, b) in (("forward", forward), ("backward", backward)):
        if w_rec.shape != (4 * hidden, hidden) or hidden < 1:
            raise ShapeError(f"blstm: {name} recurrent weight must be (4h, h) with the forward "
                             f"direction's h, got {w_rec.shape}")
        if w_in.shape != (4 * hidden, dim):
            raise ShapeError(f"blstm: {name} input weight must be {(4 * hidden, dim)} for input "
                             f"{x.shape}, got {w_in.shape}")
        if b.shape != (4 * hidden, 1):
            raise ShapeError(f"blstm: {name} bias must be {(4 * hidden, 1)}, got {b.shape}")
    if length < 1:
        raise ShapeError(f"blstm: input has no time steps, shape {x.shape}")
    batch = x.shape[0] if x.ndim == 3 else 1
    h1, h2, h3 = hidden, 2 * hidden, 3 * hidden
    directions = (forward, backward)
    tail = () if x.ndim == 2 else (batch,)

    def columns(a: np.ndarray) -> np.ndarray:
        # (L, n[, B]) per-time state -> (n, L*B), column t*B + b for time t of item b,
        # laid out as from a contiguous (L, n[, B]) array: a transposed view for one
        # item, a contiguous copy for a batch.  The layout fixes how the products
        # and sums below round, so it is kept whatever the input's strides.
        if batch == 1:
            a = np.ascontiguousarray(a)
        n = a.shape[1]
        return a.reshape(length, n, batch).transpose(1, 0, 2).reshape(n, -1)

    # One allocation holds everything the backward keeps (one array each made
    # repeated batched calls fault in fresh pages).  Row s + 1 of ``state`` is
    # step s: both directions' gates, then their cell states, hidden states
    # and tanh of the cell states; row 0 holds the zero initial states.  Each
    # is viewed as (rows, 2, n[, B]), so every step reads and writes
    # contiguous (2, n[, B]) blocks, both directions at once.
    state = np.empty((length + 1, 14 * hidden) + tail)
    state[0] = 0.0

    def by_direction(part: np.ndarray) -> np.ndarray:
        # Splitting one axis of a column range is always a view, never a copy.
        return part.reshape(part.shape[:1] + (2, part.shape[1] // 2) + tail)

    gates = by_direction(state[1:, :8 * hidden])
    cells = by_direction(state[:, 8 * hidden:10 * hidden])
    hs = by_direction(state[:, 10 * hidden:12 * hidden])
    tanh_cells = by_direction(state[1:, 12 * hidden:])
    # gates[s] first holds step s's input pre-activations, the backward
    # direction's time-reversed: BLAS writes each direction's input projection
    # straight into the gate blocks, a batch's from one contiguous time-major
    # copy, and one contiguous (4h[, B]) shift adds its bias.
    xs = x.data.T if x.ndim == 2 else np.ascontiguousarray(x.data.transpose(2, 1, 0))
    for k, (w_in, _, b) in enumerate(directions):
        into = gates[:, k] if k == 0 else gates[::-1, k]
        if x.ndim == 2:
            np.matmul(xs, w_in.data.T, out=into)  # (L, 4h)
        else:
            np.matmul(w_in.data, xs, out=into)    # (L, 4h, B)
        into += np.repeat(b.data, batch, axis=1).reshape(into.shape[1:])
    # sigmoid(z) = 1/2 + tanh(z/2)/2: ``scale`` halves the input, forget and
    # output rows (exactly, a power of two), so one tanh over all four blocks,
    # times ``scale`` plus ``1 - scale``, gives all four gates.
    scale = np.full(gates.shape[1:], 0.5)
    scale[:, h2:h3] = 1.0
    offset = 1.0 - scale
    w_recs = [w_rec.data for _, w_rec, _ in directions]
    pre = np.empty_like(scale)
    product = np.empty((2, hidden) + tail)
    # Per step s: its gates and their four blocks, the states entering and
    # leaving it (rows s and s + 1), and tanh of the new cell state.
    steps = zip(gates, gates[:, :, :h1], gates[:, :, h1:h2], gates[:, :, h2:h3],
                gates[:, :, h3:], cells[:-1], cells[1:], hs[:-1], hs[1:], tanh_cells)
    for act, i, f, g, o, c_prev, c, h_prev, h, tanh_c in steps:
        np.matmul(w_recs[0], h_prev[0], out=pre[0])
        np.matmul(w_recs[1], h_prev[1], out=pre[1])
        pre += act
        pre *= scale
        np.tanh(pre, out=act)
        act *= scale
        act += offset
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=product)
        c += product
        np.tanh(c, out=tanh_c)
        np.multiply(o, tanh_c, out=h)
    # .T turns (L, h[, B]) step states into ([B,] h, L) output blocks.
    out_data = np.empty(x.shape[:-2] + (2 * hidden, length))
    out_data[..., :h1, :] = hs[1:, 0].T
    out_data[..., h1:, :] = hs[:0:-1, 1].T
    out = Tensor._wrap(out_data)

    def step_gradients(grad: np.ndarray) -> np.ndarray:
        """Backpropagation through time: the pre-activation gradients of every step."""
        i, f, g, o = gates[:, :, :h1], gates[:, :, h1:h2], gates[:, :, h2:h3], gates[:, :, h3:]
        # dpre[s] = local[s] * [dc, dc, dc, dh] with dc, dh the cell and
        # hidden gradients of step s; each block of local is the gate's
        # partner in the cell update times the gate's own derivative.  The
        # blocks are built in dpre and scaled in place by the step loop.
        dpre = np.empty(gates.shape)
        blocks = dpre.reshape((length, 2, 4, hidden) + tail)
        one_minus = np.empty(tanh_cells.shape)
        np.multiply(g, i, out=blocks[:, :, 0])
        blocks[:, :, 0] *= np.subtract(1.0, i, out=one_minus)
        np.multiply(cells[:-1], f, out=blocks[:, :, 1])
        blocks[:, :, 1] *= np.subtract(1.0, f, out=one_minus)
        np.multiply(g, g, out=blocks[:, :, 2])
        np.subtract(1.0, blocks[:, :, 2], out=blocks[:, :, 2])
        blocks[:, :, 2] *= i
        np.multiply(tanh_cells, o, out=blocks[:, :, 3])
        blocks[:, :, 3] *= np.subtract(1.0, o, out=one_minus)
        dc_from_h = np.multiply(tanh_cells, tanh_cells, out=one_minus)
        np.subtract(1.0, dc_from_h, out=dc_from_h)
        dc_from_h *= o
        # Output gradients by time: rows [:h] feed the forward direction, [h:] the backward.
        d_out = grad.T
        w_fw_t, w_bw_t = (w.T for w in w_recs)
        dh = np.zeros((2, hidden) + tail)
        dc = np.zeros((2, hidden) + tail)
        dh_fw, dh_bw, dc_blocks = dh[0], dh[1], dc[:, None]
        term = np.empty_like(dc)
        # Steps from last to first; at step s the forward direction reads the
        # output gradient of time s, the backward direction that of time L-1-s.
        steps = zip(d_out[::-1, :h1], d_out[:, h1:], dc_from_h[::-1], blocks[::-1, :, :3],
                    blocks[::-1, :, 3], f[::-1], dpre[::-1, 0], dpre[::-1, 1])
        for d_fw, d_bw, dc_h, cell_blocks, out_block, f_s, dpre_fw, dpre_bw in steps:
            # dh holds the recurrent gradient from the step after; add the output's.
            dh_fw += d_fw
            dh_bw += d_bw
            dc += np.multiply(dh, dc_h, out=term)
            cell_blocks *= dc_blocks
            out_block *= dh
            dc *= f_s
            np.matmul(w_fw_t, dpre_fw, out=dh_fw)
            np.matmul(w_bw_t, dpre_bw, out=dh_bw)
        return dpre

    def direction_gradients(k: int, dpre: np.ndarray, xs: np.ndarray) -> np.ndarray | None:
        """Accumulate direction k's weight gradients; returns its part of the input
        gradient, or None for a constant input."""
        w_in, w_rec, b = directions[k]
        # Back to time order: the backward direction's steps run from the last time.
        dpre_cols = columns(dpre[:, k] if k == 0 else dpre[::-1, k])
        hs_prev = hs[:-1, k] if k == 0 else hs[-2::-1, k]
        _accumulate(w_in, dpre_cols @ xs.T)
        _accumulate(w_rec, dpre_cols @ columns(hs_prev).T)
        _accumulate(b, dpre_cols.sum(axis=1, keepdims=True))
        return None if isinstance(x, Constant) else w_in.data.T @ dpre_cols

    def backward_pass(grad):
        # Each helper's scratch is freed on return, before the next allocates.
        dpre = step_gradients(grad)
        xs = x.data if x.ndim == 2 else x.data.transpose(1, 2, 0).reshape(dim, -1)
        dx_fw = direction_gradients(0, dpre, xs)
        dx_bw = direction_gradients(1, dpre, xs)
        if dx_fw is not None:
            dxs = dx_fw + dx_bw
            _accumulate(x, dxs if x.ndim == 2 else dxs.reshape(dim, length, batch).transpose(2, 0, 1))

    return _record(backward_pass, out, x, *forward, *backward)


def attend(feats: Tensor, key: Tensor, proj: Tensor, attn_mix: Tensor, out_mix: Tensor,
           inv_scale: float) -> Tensor:
    """Residual cross-attention of ``feats`` against ``key``, as one tape record.

    Returns feats + relu((feats @ attn_mix) @ C) @ out_mix with C the
    segment-by-segment correlation map tanh(feats^T (proj @ key) * inv_scale),
    its scaling and tanh written into the product's own buffer.  Shapes:
    ``feats`` (d, L), ``key`` (k, L), ``proj`` (d, k), both mixes (L, L), or
    the same with a leading batch axis on ``feats`` and ``key``.  Only C is
    kept for backward; feats @ attn_mix and the ReLU input are recomputed
    there from the inputs, and proj @ key only when ``feats`` takes a
    gradient.  A constant ``feats`` or ``key`` (see ``Constant``) skips its
    gradient term: the first fusion step attends the raw input features, whose
    gradients nothing reads.
    """
    _require_matrix(feats, "attend")
    _require_matrix(key, "attend")
    _require_same_batch(feats, key, "attend")
    dim, length = feats.shape[-2:]
    if key.shape[-1] != length:
        raise ShapeError(f"attend: segment counts disagree for shapes {feats.shape} vs {key.shape}")
    if proj.shape != (dim, key.shape[-2]):
        raise ShapeError(f"attend: projection must be {(dim, key.shape[-2])}, got {proj.shape}")
    for name, mix in (("attn_mix", attn_mix), ("out_mix", out_mix)):
        if mix.shape != (length, length):
            raise ShapeError(f"attend: {name} must be {(length, length)}, got {mix.shape}")
    corr = _swap(feats.data) @ (proj.data @ key.data)
    corr *= inv_scale
    np.tanh(corr, out=corr)
    gated = _mm(_mm(feats.data, attn_mix.data), corr)
    out_data = _mm(np.maximum(gated, 0.0, out=gated), out_mix.data)
    out_data += feats.data
    out = Tensor._wrap(out_data)

    def backward(g):
        # Each chain of elementwise steps runs in place in its first array,
        # in the order of the plain expression, so the bits are the same.
        mixed = _mm(feats.data, attn_mix.data)
        pre_relu = mixed @ corr
        d_pre = _mm(g, out_mix.data.T)
        d_pre *= pre_relu > 0.0
        _accumulate(out_mix, _right_grad(np.maximum(pre_relu, 0.0, out=pre_relu), g, 2))
        d_mixed = d_pre @ _swap(corr)
        # d_corr = (mixed^T @ d_pre) * (1 - corr * corr) * inv_scale
        d_corr = _swap(mixed) @ d_pre
        slope = np.multiply(corr, corr)
        d_corr *= np.subtract(1.0, slope, out=slope)
        d_corr *= inv_scale
        _accumulate(attn_mix, _right_grad(feats.data, d_mixed, 2))
        if not isinstance(feats, Constant):
            # d_feats = g + d_mixed @ attn_mix^T + (proj @ key) @ d_corr^T
            d_feats = _mm(d_mixed, attn_mix.data.T)
            d_feats += g
            d_feats += (proj.data @ key.data) @ _swap(d_corr)
            _accumulate(feats, d_feats)
        d_projected = feats.data @ d_corr
        _accumulate(proj, _left_grad(d_projected, key.data, 2))
        if not isinstance(key, Constant):
            _accumulate(key, proj.data.T @ d_projected)

    return _record(backward, out, feats, key, proj, attn_mix, out_mix)


def attentive_pool(feats: Tensor, proj: Tensor, bias: Tensor, score: Tensor, floor: float) -> Tensor:
    """Attentive statistics pooling of (d, L) -> (2d, 1), or of a (B, d, L) batch, as one tape record.

    The segment weights w are softmax(score^T tanh(proj @ feats + bias)) over
    segments, the bias and the tanh written into the product's buffer.  The
    output stacks the weighted mean mu = feats @ w over the weighted standard
    deviation sqrt(max((feats * feats) @ w - mu * mu, floor)); the variance
    gets gradient only where it lies above ``floor``.
    """
    _require_matrix(feats, "attentive_pool")
    dim = feats.shape[-2]
    bottleneck = proj.shape[0]
    if proj.shape != (bottleneck, dim):
        raise ShapeError(f"attentive_pool: projection must be (k, {dim}), got {proj.shape}")
    for name, column in (("bias", bias), ("score", score)):
        if column.shape != (bottleneck, 1):
            raise ShapeError(f"attentive_pool: {name} must be {(bottleneck, 1)}, got {column.shape}")
    x = feats.data
    hidden = proj.data @ x
    hidden += bias.data
    np.tanh(hidden, out=hidden)
    scores = _swap(score.data.T @ hidden)
    e = np.exp(scores - scores.max(axis=-2, keepdims=True))
    weights = e / e.sum(axis=-2, keepdims=True)
    squares = x * x
    mean = x @ weights
    variance = squares @ weights - mean * mean
    sigma = np.sqrt(np.maximum(variance, floor))
    out = Tensor._wrap(np.concatenate([mean, sigma], axis=-2))

    def backward(g):
        # Gradients of the two pooled statistics: the mean, and the second
        # moment squares @ w, from which the variance subtracts mu * mu.
        d_second = g[..., dim:, :] * 0.5 / sigma * (variance > floor)
        d_mean = g[..., :dim, :] - 2.0 * d_second * mean
        d_weights = _swap(x) @ d_mean + _swap(squares) @ d_second
        # Softmax over segments, then scores = score^T hidden.
        d_scores = weights * (d_weights - (weights * d_weights).sum(axis=-2, keepdims=True))
        _accumulate(score, _unbroadcast(hidden @ d_scores, score))
        # d_pre = (1 - hidden * hidden) * score * d_scores^T, in one buffer.
        d_pre = np.multiply(hidden, hidden)
        np.subtract(1.0, d_pre, out=d_pre)
        d_pre *= score.data * _swap(d_scores)
        if not isinstance(feats, Constant):
            d_x = x * (2.0 * d_second)
            d_x += d_mean
            d_x *= _swap(weights)
            d_x += proj.data.T @ d_pre
            _accumulate(feats, d_x)
        _accumulate(proj, _left_grad(d_pre, x, 2))
        _accumulate(bias, _unbroadcast(d_pre.sum(axis=-1, keepdims=True), bias))

    return _record(backward, out, feats, proj, bias, score)


def aam_cross_entropy(embedding: Tensor, weights: Tensor, labels: np.ndarray, scale: float,
                      margin: float, cos_bound: float) -> Tensor:
    """Additive-angular-margin softmax cross-entropy per embedding, as one tape record.

    ``embedding`` (e, 1) with an int label gives a (1, 1) loss; a batch
    (B, e, 1) with B labels gives (B, 1, 1).  The logits are ``scale`` times
    the cosines between the unit embedding and the unit rows of the (n, e)
    class ``weights``, the target's moved by delta = cos(theta + margin) -
    cos(theta), expanded as cos*cos(margin) - sin*sin(margin) - cos with sin
    taken from the cosine clamped to [-cos_bound, cos_bound].  Past
    theta = pi - margin, where cos(theta + margin) would rise again as theta
    grows, delta is the constant -margin * sin(pi - margin) (the ArcFace
    fallback), so the target logit keeps falling with theta.  Labels must be
    valid class indices and no norm zero; the caller checks both.
    """
    _require_matrix(embedding, "aam_cross_entropy")
    _require_rank2(weights, "aam_cross_entropy")
    if embedding.shape[-1] != 1 or weights.shape[1] != embedding.shape[-2]:
        raise ShapeError(f"aam_cross_entropy: need (e, 1) embeddings and (n, e) class weights, "
                         f"got {embedding.shape} and {weights.shape}")
    x = embedding.data
    emb_norms = np.sqrt((x * x).sum(axis=-2, keepdims=True))
    unit_emb = x / emb_norms                                              # [B x] e x 1
    # Contiguous copies keep every reduction in the summation order of the
    # unfused test oracle (column normalization of the transposed weights), so
    # the loss is bitwise equal to the oracle's.
    columns = np.ascontiguousarray(weights.data.T)                        # e x n
    class_norms = np.sqrt((columns * columns).sum(axis=-2, keepdims=True))
    unit_classes = np.ascontiguousarray((columns / class_norms).T)        # n x e
    cosines = _mm(unit_classes, unit_emb)[..., 0]                         # [B x] n
    pos = np.asarray(labels)[..., None]
    target = np.take_along_axis(cosines, pos, axis=-1)
    bounded = np.clip(target, -cos_bound, cos_bound)
    sine = np.sqrt(1.0 - bounded * bounded)
    delta = (math.cos(margin) * target - math.sin(margin) * sine) - target
    beyond = target <= math.cos(math.pi - margin)
    delta = np.where(beyond, -margin * math.sin(math.pi - margin), delta)
    logits = scale * cosines
    np.put_along_axis(logits, pos, scale * (target + delta), axis=-1)
    # Cross-entropy through a max-shifted log-sum-exp.
    top = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - top)
    lse = top + np.log(e.sum(axis=-1, keepdims=True))
    out = Tensor._wrap((lse - np.take_along_axis(logits, pos, axis=-1))[..., None])

    def backward(g):
        p = e / e.sum(axis=-1, keepdims=True)
        np.put_along_axis(p, pos, np.take_along_axis(p, pos, axis=-1) - 1.0, axis=-1)
        d_cos = scale * g[..., 0] * p
        # The target logit's slope in its cosine: cos(margin) plus the sine
        # path, open only strictly inside the clamp; 1 past the fallback threshold.
        inside = (target > -cos_bound) & (target < cos_bound)
        slope = math.cos(margin) + math.sin(margin) * bounded / sine * inside
        slope = np.where(beyond, 1.0, slope)
        np.put_along_axis(d_cos, pos, np.take_along_axis(d_cos, pos, axis=-1) * slope, axis=-1)
        d_cos = d_cos[..., None]
        # Back through both unit normalizations: (g - y <y, g>) / norm.
        d_unit_emb = _mm(unit_classes.T, d_cos)
        inner = (unit_emb * d_unit_emb).sum(axis=-2, keepdims=True)
        _accumulate(embedding, (d_unit_emb - unit_emb * inner) / emb_norms)
        d_unit_classes = _left_grad(d_cos, unit_emb, 2)                  # n x e
        inner = (unit_classes * d_unit_classes).sum(axis=-1, keepdims=True)
        _accumulate(weights, (d_unit_classes - unit_classes * inner) / class_norms.T)

    return _record(backward, out, embedding, weights)
