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
its input features as constants.  Ops treat it as any other input: every op
records, and returns a ``Tensor``, and a term for a constant is dropped on
accumulation.  Only the fusion stage, where the features enter, skips
forming the terms that would feed them, and only when both its inputs are
constants; with one, ``_accumulate`` drops that one's terms.

Tensors have rank 1 to 3.  A rank-2 ``(rows, cols)`` tensor is one
utterance's matrix; a rank-3 ``(B, rows, cols)`` tensor stacks B of them on a
leading batch axis, and every matrix op works on the last two axes of each
item.  A rank-2 weight meets a rank-3 batch by broadcasting along that axis,
and its gradient is formed against the whole batch in one contraction, so one
tape records a whole mini-batch with the same ops, and the same code runs a
single utterance.

The primitives (``mul``, ``sum_all``) are elementwise ops with one closure
each: the probe losses of ``gradcheck`` and the training mean.  Fused layer
ops (``affine``, ``attention_fusion``, ``blstm``, ``attentive_pool``,
``aam_cross_entropy``) run a whole layer body in numpy and record a single
closure holding its hand-derived backward, which cuts the per-record Python
overhead that dominates at these matrix sizes.
Their large elementwise chains run in place in one buffer each, in the
operation order of the plain expression, so the bits are the expression's.
``affine`` is the embedding projection, ``attention_fusion`` every step of
the fusion stage in one record (with no steps the plain joint stack of its
inputs), and ``blstm`` the whole bidirectional layer, both directions
advanced by one time loop whose first step forms nothing from the zero
initial states.

Every matrix product of the fused ops goes through ``_mm``: 2-D operands
through ``np.dot``, which makes the same BLAS call as ``@`` (gemm, gemv, or
syrk for ``a @ a.T``) at less per-call cost, and only stacks through
``np.matmul``.  The exception is a one-utterance ``attention_fusion``
forward: it calls that 2-D ``ndarray.dot`` itself and keeps its recursion
state in one joint stack per step, while a batch keeps ``_mm`` (see the op).
A tape-free one-utterance ``blstm`` call reuses one workspace per shape
(``_utterance_workspace``) rather than allocating its buffers and step views
anew.

A tape is single-threaded by design: one tape per training worker.  Entered
tapes nest on one module-level stack, and the innermost records.  The module
as a whole is single-threaded: the tape stack and the reused workspaces are
module state, so tape-free inference from concurrent threads is unsupported.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class NonFiniteError(ValueError):
    """A tensor or function value contains NaN or Inf."""


_MAX_RANK = 3

# Bounds that keep fused backwards finite: attentive_pool floors a (near-)zero
# variance, e.g. of one segment, under its square root; aam_cross_entropy keeps
# the target cosine inside (-1, 1), where sin = sqrt(1 - cos^2) has a derivative.
VARIANCE_FLOOR = 1e-8
COS_BOUND = 1.0 - 1e-7

_TAPES: list["Tape"] = []


def _active_tape() -> "Tape | None":
    return _TAPES[-1] if _TAPES else None


class Tensor:
    """Dense float64 array of rank 1-3 with an optional gradient buffer.

    Values are copied and validated to be finite at construction.  ``grad`` stays None
    until backward hands the tensor a gradient (see the module docstring); an
    op result's gradient is released once its op's closure has used it, while
    tensors built here (parameters, inputs) keep theirs.  ``Constant``, the
    other kind of leaf, never gets one.
    """

    __slots__ = ("data", "grad")
    _copy: bool | None = True  # np.array's copy flag: None copies only what is not float64 C order

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C", copy=self._copy)
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

    Validated like a ``Tensor``, but an array already float64 and C-contiguous
    is held as it is, not copied: no op writes to a constant's data.  Backward
    hands it nothing: ``_accumulate`` drops every term for it.
    """

    __slots__ = ()
    _copy = None


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
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPES.pop()

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        # A tape that holds no record yet is still a tape, not "no tape".
        return True

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


def _record(backward: Callable[[np.ndarray], None], out: Tensor) -> Tensor:
    """Record one op on the active tape, if any, and return its output."""
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
    """Equal shapes, or a rank-3 batch ``a`` against a rank-2 ``b`` of its item shape."""
    if a.shape == b.shape or (a.ndim == 3 and a.shape[1:] == b.shape):
        return
    raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _unbroadcast(grad: np.ndarray, t: Tensor) -> np.ndarray:
    """Sum a gradient over the leading batch axis its operand was broadcast along."""
    return grad.sum(axis=0) if grad.ndim > t.ndim else grad


def _swap(x: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack (a view)."""
    return x.swapaxes(-1, -2)


def _mm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product over an optional leading batch axis on either side: the fused ops' one product.

    A 2-D matrix times a matrix or a vector is ``np.dot`` (into a C-contiguous ``out`` if
    given), which makes the BLAS call of ``@`` at less per-call cost, called as the array
    method to skip the function's dispatch; a batch times a shared rank-2 matrix is that
    product over the stacked rows.  Only stacks and a rank-2
    matrix against a batch take ``np.matmul``, and so does a product of two one-element
    operands: ``np.dot`` multiplies them directly, keeping a -0.0 that the BLAS dot product
    behind ``@`` rounds to +0.0.
    """
    if a.ndim == 3 and b.ndim == 2:
        return _mm(a.reshape(-1, a.shape[2]), b).reshape(a.shape[0], a.shape[1], b.shape[1])
    if a.ndim == 3 or b.ndim == 3 or a.size == b.size == 1:
        return np.matmul(a, b, out=out)
    return a.dot(b, out)


def _left_grad(g: np.ndarray, b: np.ndarray, a_ndim: int) -> np.ndarray:
    """Gradient of a in out = a @ b: g @ b^T, one contraction over the batch if a is shared."""
    if a_ndim < g.ndim:
        return np.tensordot(g, b, axes=([0, 2], [0, 2]))
    return _mm(g, _swap(b))


def _right_grad(a: np.ndarray, g: np.ndarray, b_ndim: int) -> np.ndarray:
    """Gradient of b in out = a @ b: a^T @ g, one contraction over the batch if b is shared."""
    if b_ndim < g.ndim:
        return _mm(a.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1]))
    return _mm(_swap(a), g)


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product; ``b`` may be one item of a rank-3 batch ``a``."""
    _broadcastable(a, b, "mul")
    out = Tensor._wrap(a.data * b.data)

    def backward(g):
        _accumulate(a, g * b.data)
        _accumulate(b, _unbroadcast(g * a.data, b))

    return _record(backward, out)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a (1, 1) tensor."""
    out = Tensor._wrap(np.array([[x.data.sum()]]))

    def backward(g):
        _accumulate(x, np.full_like(x.data, g.reshape(-1)[0]))

    return _record(backward, out)


# ---------------------------------------------------------------------------
# Fused layer ops
# ---------------------------------------------------------------------------


def affine(weight: Tensor, x: Tensor, bias: Tensor) -> Tensor:
    """weight @ x + bias as one tape record: (e, n) weight, (n, c) x or a (B, n, c) batch of
    them, bias of the output's item shape (e, c).

    The forward and the backward are the arithmetic of a matrix product followed by a
    sum: a batch's product is one per item, and its weight and bias gradients are summed
    over the items.
    """
    _require_rank2(weight, "affine")
    _require_matrix(x, "affine")
    rows, cols = weight.shape
    if x.shape[-2] != cols:
        raise ShapeError(f"affine: input must have {cols} rows for weight {weight.shape}, got {x.shape}")
    if bias.shape != (rows, x.shape[-1]):
        raise ShapeError(f"affine: bias must be {(rows, x.shape[-1])}, got {bias.shape}")
    data = _mm(weight.data, x.data)
    data += bias.data
    out = Tensor._wrap(data)

    def backward(g):
        _accumulate(bias, _unbroadcast(g, bias))
        _accumulate(weight, _left_grad(g, x.data, 2))
        _accumulate(x, _mm(weight.data.T, g))

    return _record(backward, out)


@functools.lru_cache(maxsize=8)
def _gate_maps(hidden: int, tail: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(scale, offset)`` of a (2, 4h[, B]) block of both directions' gates.

    sigmoid(z) = 1/2 + tanh(z/2)/2: ``scale`` halves the input, forget and
    output rows (exactly, a power of two), so one tanh over all four blocks,
    times ``scale`` plus ``offset = 1 - scale``, gives all four gates.  Built
    once per shape; the cache is bounded because callers may pass batches of
    any size, and a run uses few (a training batch, its remainder, one
    utterance).
    """
    scale = np.full((2, 4 * hidden) + tail, 0.5)
    scale[:, 2 * hidden:3 * hidden] = 1.0
    offset = 1.0 - scale
    scale.flags.writeable = offset.flags.writeable = False
    return scale, offset


def _blstm_workspace(hidden: int, length: int, tail: tuple[int, ...]) -> tuple:
    """``blstm``'s buffers for one shape: ``(gates, cells, hs, tanh_cells, pre, pre_fw,
    pre_bw, product, steps)``, ``steps`` holding the time loop's views of each step.

    One allocation holds everything the backward keeps (one array each made
    repeated batched calls fault in fresh pages).  Row s + 1 of it is step s:
    both directions' gates, then their cell states, hidden states and tanh of
    the cell states; row 0 holds the zero initial states, which no step
    writes.  Each is viewed as (rows, 2, n[, B]), so every step reads and
    writes contiguous (2, n[, B]) blocks, both directions at once; splitting
    one axis of a column range is always a view, never a copy.  ``pre`` (with
    its direction rows ``pre_fw`` and ``pre_bw``) takes the recurrent products
    and ``product`` the input-times-cell term.
    """
    state = np.empty((length + 1, 14 * hidden) + tail)
    state[0] = 0.0
    gates = state[1:, :8 * hidden].reshape((length, 2, 4 * hidden) + tail)
    cells = state[:, 8 * hidden:10 * hidden].reshape((length + 1, 2, hidden) + tail)
    hs = state[:, 10 * hidden:12 * hidden].reshape((length + 1, 2, hidden) + tail)
    tanh_cells = state[1:, 12 * hidden:].reshape((length, 2, hidden) + tail)
    pre = np.empty((2, 4 * hidden) + tail)
    product = np.empty((2, hidden) + tail)
    h1, h2, h3 = hidden, 2 * hidden, 3 * hidden
    # Per step s: its gates and their four blocks, the states entering it (row
    # s, each direction's hidden state apart) and leaving it (row s + 1), and
    # tanh of the new cell state.
    steps = tuple(zip(gates, gates[:, :, :h1], gates[:, :, h1:h2], gates[:, :, h2:h3], gates[:, :, h3:],
                      cells[:-1], cells[1:], hs[:-1, 0], hs[:-1, 1], hs[1:], tanh_cells))
    return gates, cells, hs, tanh_cells, pre, pre[0], pre[1], product, steps


@functools.lru_cache(maxsize=8)
def _utterance_workspace(hidden: int, length: int) -> tuple:
    """The ``_blstm_workspace`` of a tape-free one-utterance ``blstm`` call, built once per
    (hidden, length) and reused: such a call keeps nothing for a backward and returns a
    fresh output, so the next one may overwrite it.  A taped or batched call builds its own,
    so a tape's saved state is never shared and a batch holds no memory past its call;
    bounded like ``_gate_maps``."""
    return _blstm_workspace(hidden, length, ())


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
    bias shift; each step is one (4h, h) recurrent product per direction (the
    first step, from the zero states, none and no forget term) and one tanh
    over all four gate blocks of both, the sigmoid rows taken as
    1/2 + tanh(z/2)/2 (``_gate_maps``).  The layer is one tape record whose
    backward runs backpropagation through time by hand from the stored gate
    values, forming no gradient for the zero initial states, and forms each
    direction's gradients as whole-sequence GEMMs over its stacked
    pre-activation gradients.  Every product goes through ``_mm``, the
    recurrent ones into the rows of a preallocated block; a tape-free call on
    one utterance runs in its shape's reused ``_utterance_workspace``.
    """
    _require_matrix(x, "blstm")
    dim, length = x.shape[-2:]
    hidden = forward[1].shape[1] if forward[1].ndim == 2 else 0
    expected = [(4 * hidden, dim), (4 * hidden, hidden), (4 * hidden, 1)] * 2
    if hidden < 1 or [w.data.shape for w in (*forward, *backward)] != expected:
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

    if x.ndim == 2 and _active_tape() is None:
        workspace = _utterance_workspace(hidden, length)
    else:
        workspace = _blstm_workspace(hidden, length, tail)
    gates, cells, hs, tanh_cells, pre, pre_fw, pre_bw, product, steps = workspace
    # gates[s] first holds step s's input pre-activations, the backward
    # direction's time-reversed: BLAS writes each direction's input projection
    # straight into the gate blocks, a batch's from one contiguous time-major
    # copy, and one contiguous (4h[, B]) shift adds its bias.
    xs = x.data.T if x.ndim == 2 else np.ascontiguousarray(x.data.transpose(2, 1, 0))
    for k, (w_in, _, b) in enumerate(directions):
        into = gates[:, k] if k == 0 else gates[::-1, k]
        if x.ndim == 2:
            np.matmul(xs, w_in.data.T, out=into)  # (L, 4h)
            into += b.data[:, 0]
        else:
            np.matmul(w_in.data, xs, out=into)    # (L, 4h, B)
            into += np.repeat(b.data, batch, axis=1)
    scale, offset = _gate_maps(hidden, tail)
    w_fw, w_bw = forward[1].data, backward[1].data
    for s, (act, i, f, g, o, c_prev, c, h_prev_fw, h_prev_bw, h, tanh_c) in enumerate(steps):
        # Step 0 enters zero states: it forms no recurrent product and no forget term.
        if s:
            _mm(w_fw, h_prev_fw, out=pre_fw)
            _mm(w_bw, h_prev_bw, out=pre_bw)
            act += pre
        act *= scale
        np.tanh(act, out=act)
        act *= scale
        act += offset
        if s:
            np.multiply(f, c_prev, out=c)
            np.multiply(i, g, out=product)
            c += product
        else:
            np.multiply(i, g, out=c)
            c += 0.0  # as f * 0 + i * g rounds a -0.0 product: to +0.0
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
        w_fw_t, w_bw_t = w_fw.T, w_bw.T
        dh = np.zeros((2, hidden) + tail)
        dc = np.zeros((2, hidden) + tail)
        dh_fw, dh_bw, dc_blocks = dh[0], dh[1], dc[:, None]
        term = np.empty_like(dc)
        # Steps from last to first; at step s the forward direction reads the
        # output gradient of time s, the backward direction that of time L-1-s.
        steps = zip(d_out[::-1, :h1], d_out[:, h1:], dc_from_h[::-1], blocks[::-1, :, :3],
                    blocks[::-1, :, 3], f[::-1], dpre[::-1, 0], dpre[::-1, 1])
        for s, (d_fw, d_bw, dc_h, cell_blocks, out_block, f_s, dpre_fw, dpre_bw) in zip(
                range(length - 1, -1, -1), steps):
            # dh holds the recurrent gradient from the step after; add the output's.
            dh_fw += d_fw
            dh_bw += d_bw
            dc += np.multiply(dh, dc_h, out=term)
            cell_blocks *= dc_blocks
            out_block *= dh
            if s:  # the zero initial states take no gradient
                dc *= f_s
                _mm(w_fw_t, dpre_fw, out=dh_fw)
                _mm(w_bw_t, dpre_bw, out=dh_bw)
        return dpre

    def direction_gradients(k: int, dpre: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Accumulate direction k's weight gradients; returns its part of the input gradient."""
        w_in, w_rec, b = directions[k]
        # Back to time order: the backward direction's steps run from the last time.
        dpre_cols = columns(dpre[:, k] if k == 0 else dpre[::-1, k])
        hs_prev = hs[:-1, k] if k == 0 else hs[-2::-1, k]
        _accumulate(w_in, _mm(dpre_cols, xs.T))
        _accumulate(w_rec, _mm(dpre_cols, columns(hs_prev).T))
        _accumulate(b, dpre_cols.sum(axis=1, keepdims=True))
        return _mm(w_in.data.T, dpre_cols)

    def backward_pass(grad):
        # Each helper's scratch is freed on return, before the next allocates.
        dpre = step_gradients(grad)
        xs = x.data if x.ndim == 2 else x.data.transpose(1, 2, 0).reshape(dim, -1)
        dxs = direction_gradients(0, dpre, xs) + direction_gradients(1, dpre, xs)
        _accumulate(x, dxs if x.ndim == 2 else dxs.reshape(dim, length, batch).transpose(2, 0, 1))

    return _record(backward_pass, out)


def _attend(feats: np.ndarray, key: np.ndarray, proj: np.ndarray, attn_mix: np.ndarray,
            out_mix: np.ndarray, inv_scale: float, out: np.ndarray | None = None, mm=_mm):
    """One modality's pass of ``attention_fusion``: feats + relu((feats @ attn_mix) @ C) @ out_mix,
    and the segment map C = tanh(feats^T (proj @ key) * inv_scale), inv_scale = 1/sqrt(k).
    ``mm`` forms the products, and the last writes into ``out`` when given."""
    corr = mm(_swap(feats), mm(proj, key))
    corr *= inv_scale
    np.tanh(corr, out=corr)
    gated = mm(mm(feats, attn_mix), corr)
    out = mm(np.maximum(gated, 0.0, out=gated), out_mix, out)
    out += feats
    return out, corr


def _attend_backward(g: np.ndarray, feats: np.ndarray, key: np.ndarray,
                     weights: tuple[Tensor, Tensor, Tensor], corr: np.ndarray, inv_scale: float,
                     inputs: bool, key_rows: np.ndarray | None = None) -> tuple:
    """Accumulate an ``_attend`` pass's out_mix, attn_mix and proj gradients and return ``(d_feats,
    d_key, key_rows)``, the first two None unless ``inputs``.  A batch's proj gradient contracts the
    key's (B*L, k) rows, which tensordot would copy per call: formed unless given, they are reused."""
    proj, attn_mix, out_mix = weights
    # feats @ attn_mix and the ReLU input are recomputed, proj @ key only for
    # d_feats.  Each chain of elementwise steps runs in place in its first
    # array, in the order of the plain expression, so the bits are the same.
    mixed = _mm(feats, attn_mix.data)
    pre_relu = _mm(mixed, corr)
    d_pre = _mm(g, out_mix.data.T)
    d_pre *= pre_relu > 0.0
    _accumulate(out_mix, _right_grad(np.maximum(pre_relu, 0.0, out=pre_relu), g, 2))
    d_mixed = _mm(d_pre, _swap(corr))
    # d_corr = (mixed^T @ d_pre) * (1 - corr * corr) * inv_scale
    d_corr = _mm(_swap(mixed), d_pre)
    slope = np.multiply(corr, corr)
    d_corr *= np.subtract(1.0, slope, out=slope)
    d_corr *= inv_scale
    _accumulate(attn_mix, _right_grad(feats, d_mixed, 2))
    d_projected = _mm(feats, d_corr)
    if d_projected.ndim == 2:
        _accumulate(proj, _mm(d_projected, key.T))
    else:
        if key_rows is None:
            key_rows = key.transpose(0, 2, 1).reshape(-1, key.shape[1])
        _accumulate(proj, np.dot(d_projected.transpose(1, 0, 2).reshape(len(proj.data), -1), key_rows))
    if not inputs:
        return None, None, key_rows
    # d_feats = g + d_mixed @ attn_mix^T + (proj @ key) @ d_corr^T
    d_feats = _mm(d_mixed, attn_mix.data.T)
    d_feats += g
    d_feats += _mm(_mm(proj.data, key), _swap(d_corr))
    return d_feats, _mm(proj.data.T, d_projected), key_rows


def attention_fusion(audio: Tensor, visual: Tensor, steps: list[tuple[Tensor, ...]], cross: bool) -> Tensor:
    """The fusion stage in one tape record: the joint stack, audio rows over visual, after all steps.

    ``steps`` holds a 6-tuple of weights per step, (proj, attn_mix, out_mix) of audio then
    visual, shaped (d, k), (L, L), (L, L) for a (d, L) modality and a k-row key; shared
    weights repeat one tuple.  Each modality's ``_attend`` pass keys on the joint stack of
    both, or with ``cross`` on the other modality.  The backward walks the steps in reverse,
    visual before audio, summing the terms each pass returns in the order of a chain of one op
    per pass and per stack; each input accumulates once, and only two constant inputs (see
    ``Constant``) make step 0 form none.  With no steps the output is the joint stack of the
    inputs, and each input's gradient is its block of the output's.

    One utterance's forward stacks its inputs once, and each step writes both passes into the
    row blocks of a fresh stack: the next step's inputs and joint key, and after the last step
    the output.  Its products are direct ``ndarray.dot`` calls, the ones ``_mm`` makes.  A
    batch keeps two arrays and stacks them per step, as ``_mm`` would copy its strided row
    blocks before the one GEMM.  The backward is the same for both.
    """
    op = "attention_fusion"
    _require_matrix(audio, op)
    _require_same_batch(audio, visual, op)
    dims, length = (audio.shape[-2], visual.shape[-2]), audio.shape[-1]
    if visual.shape[-1] != length:
        raise ShapeError(f"{op}: segment counts disagree for shapes {audio.shape} vs {visual.shape}")
    keys, mix = dims[::-1] if cross else (sum(dims),) * 2, (length, length)
    shapes = [(dims[0], keys[0]), mix, mix, (dims[1], keys[1]), mix, mix]
    inv_scales = [1.0 / math.sqrt(k) for k in keys]
    arrays = [[w.data for w in weights] for weights in steps]
    for weights, data in zip(steps, arrays):
        if [w.shape for w in data] != shapes:
            for w, shape, name in zip(weights, shapes, ("projection", "attn_mix", "out_mix") * 2):
                if w.shape != shape:
                    raise ShapeError(f"{op}: {name} must be {shape}, got {w.shape}")
            raise ShapeError(f"{op}: a step takes 6 weights, got {len(weights)}")
    # The backward keeps each step's inputs, joint stack and maps, under a tape only.  A step runs
    # in its own call: what it does not keep is freed, and its pages reused, before the next one.
    saved = None if _active_tape() is None else []
    inputs = not (isinstance(audio, Constant) and isinstance(visual, Constant))

    def step(a, v, joint, data, rows=(None, None), mm=_mm):
        key_a, key_v = (v, a) if cross else (joint, joint)
        a_out, corr_a = _attend(a, key_a, *data[:3], inv_scales[0], rows[0], mm)
        v_out, corr_v = _attend(v, key_v, *data[3:], inv_scales[1], rows[1], mm)
        if saved is not None:
            saved.append((a, v, joint, corr_a, corr_v))
        return a_out, v_out

    a, v = audio.data, visual.data
    if a.ndim == 2:
        # ndarray.dot is _mm's call for 2-D operands but two 1x1 ones, which one segment can give.
        joint = np.concatenate([a, v])
        mm = np.ndarray.dot if length > 1 else _mm
        for data in arrays:
            state = np.empty_like(joint)
            rows = state[:dims[0]], state[dims[0]:]
            step(joint[:dims[0]], joint[dims[0]:], joint, data, rows, mm)
            joint = state
    else:
        for data in arrays:
            a, v = step(a, v, None if cross else np.concatenate([a, v], axis=-2), data)
        joint = np.concatenate([a, v], axis=-2)
    out = Tensor._wrap(joint)

    def backward(g):
        g_a, g_v = g[..., :dims[0], :], g[..., dims[0]:, :]
        for t in reversed(range(len(steps))):
            a, v, joint, corr_a, corr_v = saved[t]
            forms = inputs or t > 0  # a later step's inputs are the outputs of the step before
            d_v, dkey_v, rows = _attend_backward(g_v, v, a if cross else joint, steps[t][3:], corr_v,
                                                 inv_scales[1], forms)
            d_a, dkey_a, _ = _attend_backward(g_a, a, v if cross else joint, steps[t][:3], corr_a,
                                              inv_scales[0], forms, None if cross else rows)
            if not forms:
                break
            # Each key's term goes to its input: a cross key is the other one, the joint key splits.
            if not cross:
                dkey_v += dkey_a
                dkey_v, dkey_a = dkey_v[..., :dims[0], :], dkey_v[..., dims[0]:, :]
            g_a, g_v = dkey_v + d_a, d_v + dkey_a
        _accumulate(audio, g_a)
        _accumulate(visual, g_v)

    return _record(backward, out)


def attentive_pool(feats: Tensor, proj: Tensor, bias: Tensor, score: Tensor) -> Tensor:
    """Attentive statistics pooling of (d, L) -> (2d, 1), or of a (B, d, L) batch, as one tape record.

    The segment weights w are softmax(score^T tanh(proj @ feats + bias)) over
    segments, the bias and the tanh written into the product's buffer.  The
    output stacks the weighted mean mu = feats @ w over the weighted standard
    deviation sqrt(max((feats * feats) @ w - mu * mu, VARIANCE_FLOOR)); the
    variance gets gradient only where it lies above ``VARIANCE_FLOOR``.
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
    hidden = _mm(proj.data, x)
    hidden += bias.data
    np.tanh(hidden, out=hidden)
    scores = _swap(_mm(score.data.T, hidden))
    e = np.exp(scores - scores.max(axis=-2, keepdims=True))
    weights = e / e.sum(axis=-2, keepdims=True)
    squares = x * x
    mean = _mm(x, weights)
    variance = _mm(squares, weights) - mean * mean
    sigma = np.sqrt(np.maximum(variance, VARIANCE_FLOOR))
    out = Tensor._wrap(np.concatenate([mean, sigma], axis=-2))

    def backward(g):
        # Gradients of the two pooled statistics: the mean, and the second
        # moment squares @ w, from which the variance subtracts mu * mu.
        d_second = g[..., dim:, :] * 0.5 / sigma * (variance > VARIANCE_FLOOR)
        d_mean = g[..., :dim, :] - 2.0 * d_second * mean
        d_weights = _mm(_swap(x), d_mean) + _mm(_swap(squares), d_second)
        # Softmax over segments, then scores = score^T hidden.
        d_scores = weights * (d_weights - (weights * d_weights).sum(axis=-2, keepdims=True))
        _accumulate(score, _unbroadcast(_mm(hidden, d_scores), score))
        # d_pre = (1 - hidden * hidden) * score * d_scores^T, in one buffer.
        d_pre = np.multiply(hidden, hidden)
        np.subtract(1.0, d_pre, out=d_pre)
        d_pre *= score.data * _swap(d_scores)
        d_x = x * (2.0 * d_second)
        d_x += d_mean
        d_x *= _swap(weights)
        d_x += _mm(proj.data.T, d_pre)
        _accumulate(feats, d_x)
        _accumulate(proj, _left_grad(d_pre, x, 2))
        _accumulate(bias, _unbroadcast(d_pre.sum(axis=-1, keepdims=True), bias))

    return _record(backward, out)


def aam_cross_entropy(embedding: Tensor, weights: Tensor, labels: np.ndarray, scale: float,
                      margin: float) -> Tensor:
    """Additive-angular-margin softmax cross-entropy per embedding, as one tape record.

    ``embedding`` (e, 1) with an int label gives a (1, 1) loss; a batch
    (B, e, 1) with B labels gives (B, 1, 1).  The logits are ``scale`` times
    the cosines between the unit embedding and the unit rows of the (n, e)
    class ``weights``, the target's moved by delta = cos(theta + margin) -
    cos(theta), expanded as cos*cos(margin) - sin*sin(margin) - cos with sin
    taken from the cosine clamped to [-COS_BOUND, COS_BOUND].  Past
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
    bounded = np.clip(target, -COS_BOUND, COS_BOUND)
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
        inside = (target > -COS_BOUND) & (target < COS_BOUND)
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

    return _record(backward, out)
