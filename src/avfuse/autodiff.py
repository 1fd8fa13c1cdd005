"""Dense real-tensor kernels with reverse-mode differentiation on an explicit tape.

Every operation the fusion model needs lives here as a pure function of
``Tensor`` inputs.  When a ``Tape`` is active (entered as a context manager),
each op records ``(closure, out)``: its output and a closure that takes the
output's gradient and accumulates its inputs'.  ``Tape.backward`` replays the
records in exact reverse order of forward execution and alone reads an output
gradient: it skips an op whose output got none, calls the closure with it, then
releases it.  Gradients accumulate by value, so an op may pass its output
gradient, or a view of it, straight on to an input, and tensors may share one
gradient array; hence nothing may mutate a ``.grad`` array in place.  Without
an active tape, ops run as plain numpy forward passes (the inference path).

Tensors have rank 1 to 3.  A rank-2 ``(rows, cols)`` tensor is one
utterance's matrix; a rank-3 ``(B, rows, cols)`` tensor stacks B of them on a
leading batch axis, and every matrix op works on the last two axes of each
item.  A rank-2 weight meets a rank-3 batch by broadcasting along that axis,
and its gradient is formed against the whole batch in one contraction, so one
tape records a whole mini-batch with the same ops, and the same code runs a
single utterance.

Most ops are elementwise or matrix primitives with one closure each.  Fused
layer ops (``lstm``, ``attend``, ``attentive_pool``, ``aam_cross_entropy``)
run a whole layer body in numpy and record a single closure holding its
hand-derived backward, which cuts the per-record Python overhead that
dominates at these matrix sizes.  Forward-only helpers (``attention_map``,
``pooling_attention``) compute the quantities these ops attend or pool with,
for readers that inspect them without a tape.

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

_debug_checks = False


def set_debug_checks(enabled: bool) -> None:
    """Enable finiteness validation of every op result (slow; off by default)."""
    global _debug_checks
    _debug_checks = bool(enabled)


_ACTIVE = threading.local()


def _active_tape() -> "Tape | None":
    stack = getattr(_ACTIVE, "stack", None)
    return stack[-1] if stack else None


class Tensor:
    """Dense float64 array of rank 1-3 with an optional gradient buffer.

    Values are validated to be finite at construction.  ``grad`` stays None
    until backward hands the tensor a gradient (see the module docstring); an
    op result's gradient is released once its op's closure has used it, while
    tensors built here (parameters, inputs) keep theirs.
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
        # Fast path for op results; finiteness checked only in debug mode.
        if _debug_checks and arr.size and not np.isfinite(arr).all():
            raise NonFiniteError("op produced NaN or Inf")
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
        return f"Tensor(shape={self.shape})"


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

    def record(self, backward: Callable[[np.ndarray], None], out: Tensor) -> None:
        """Append one op: the closure taking its output gradient, and that output."""
        self._records.append((backward, out))

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
    t.grad = delta if t.grad is None else t.grad + delta


def _record(backward: Callable[[np.ndarray], None], out: Tensor) -> None:
    tape = _active_tape()
    if tape is not None:
        tape.record(backward, out)


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

    _record(backward, out)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; a rank-2 operand broadcasts along a rank-3 one's batch axis."""
    _broadcastable(a, b, "add")
    out = Tensor._wrap(a.data + b.data)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a))
        _accumulate(b, _unbroadcast(g, b))

    _record(backward, out)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference, broadcasting like ``add``."""
    _broadcastable(a, b, "sub")
    out = Tensor._wrap(a.data - b.data)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a))
        _accumulate(b, _unbroadcast(-g, b))

    _record(backward, out)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product, broadcasting like ``add``."""
    _broadcastable(a, b, "mul")
    out = Tensor._wrap(a.data * b.data)

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a))
        _accumulate(b, _unbroadcast(g * a.data, b))

    _record(backward, out)
    return out


def scale_shift(x: Tensor, scale: float = 1.0, shift: float = 0.0) -> Tensor:
    """Elementwise affine map with constant coefficients: scale*x + shift."""
    out = Tensor._wrap(scale * x.data + shift)

    def backward(g):
        _accumulate(x, scale * g)

    _record(backward, out)
    return out


def tanh(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.tanh(x.data))

    def backward(g):
        _accumulate(x, g * (1.0 - out.data * out.data))

    _record(backward, out)
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.maximum(x.data, 0.0))

    def backward(g):
        _accumulate(x, g * (x.data > 0.0))

    _record(backward, out)
    return out


def _stable_sigmoid(d: np.ndarray) -> np.ndarray:
    # Split by sign so no exponent is positive: 1 / (1 + e^-d) for d >= 0 and
    # e^d / (1 + e^d) below, with the numerator written as e^min(d, 0).
    return np.exp(np.minimum(d, 0.0)) / (1.0 + np.exp(-np.abs(d)))


def sigmoid(x: Tensor) -> Tensor:
    out = Tensor._wrap(_stable_sigmoid(x.data))

    def backward(g):
        _accumulate(x, g * out.data * (1.0 - out.data))

    _record(backward, out)
    return out


def softmax_columns(x: Tensor) -> Tensor:
    """Softmax normalizing each column of every matrix to sum to one."""
    _require_matrix(x, "softmax_columns")
    shifted = x.data - x.data.max(axis=-2, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-2, keepdims=True)
    out = Tensor._wrap(y)

    def backward(g):
        # Per column: dx = y * (g - <y, g>)
        inner = (out.data * g).sum(axis=-2, keepdims=True)
        _accumulate(x, out.data * (g - inner))

    _record(backward, out)
    return out


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

    _record(backward, out)
    return out


def transpose(x: Tensor) -> Tensor:
    """Transpose of every matrix (the last two axes)."""
    _require_matrix(x, "transpose")
    out = Tensor._wrap(np.ascontiguousarray(_swap(x.data)))

    def backward(g):
        _accumulate(x, _swap(g))

    _record(backward, out)
    return out


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a (rows, 1) bias to every column of a (rows, cols) matrix or batch of them."""
    _require_matrix(x, "add_bias")
    _require_rank2(bias, "add_bias")
    if bias.shape != (x.shape[-2], 1):
        raise ShapeError(f"add_bias: bias shape {bias.shape} does not match rows of {x.shape}")
    out = Tensor._wrap(x.data + bias.data)

    def backward(g):
        _accumulate(x, g)
        _accumulate(bias, _unbroadcast(g.sum(axis=-1, keepdims=True), bias))

    _record(backward, out)
    return out


def clamp(x: Tensor, lo: float = -np.inf, hi: float = np.inf) -> Tensor:
    """Elementwise clip; gradient passes only strictly inside the interval."""
    out = Tensor._wrap(np.clip(x.data, lo, hi))

    def backward(g):
        inside = (x.data > lo) & (x.data < hi)
        _accumulate(x, g * inside)

    _record(backward, out)
    return out


def sqrt(x: Tensor) -> Tensor:
    if (x.data < 0).any():
        raise NonFiniteError("sqrt: negative input")
    y = np.sqrt(x.data)
    out = Tensor._wrap(y)

    def backward(g):
        _accumulate(x, g * 0.5 / out.data)

    _record(backward, out)
    return out


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a (1, 1) tensor."""
    out = Tensor._wrap(np.array([[x.data.sum()]]))

    def backward(g):
        _accumulate(x, np.full_like(x.data, g.reshape(-1)[0]))

    _record(backward, out)
    return out


def l2_normalize_columns(x: Tensor) -> Tensor:
    """Scale each column of every matrix to unit Euclidean norm."""
    _require_matrix(x, "l2_normalize_columns")
    norms = np.sqrt((x.data * x.data).sum(axis=-2, keepdims=True))
    if (norms == 0.0).any():
        raise NonFiniteError("l2_normalize_columns: zero-norm column")
    y = x.data / norms
    out = Tensor._wrap(y)

    def backward(g):
        # dL/dx = (g - y * <y, g>) / norm, per column.
        inner = (out.data * g).sum(axis=-2, keepdims=True)
        _accumulate(x, (g - out.data * inner) / norms)

    _record(backward, out)
    return out


def cross_entropy_index(logits: Tensor, index) -> Tensor:
    """Cross-entropy of a softmax over each (n, 1) logit column against a target index.

    ``logits`` (n, 1) with an int ``index`` gives a (1, 1) loss; a batch
    (B, n, 1) with B indices gives the B losses as (B, 1, 1).  Forward uses a
    max-shifted log-sum-exp; backward is softmax minus one-hot.
    """
    _require_matrix(logits, "cross_entropy_index")
    if logits.shape[-1] != 1:
        raise ShapeError(f"cross_entropy_index: expected (n, 1) logits, got {logits.shape}")
    n = logits.shape[-2]
    idx = np.asarray(index)
    if idx.shape != logits.shape[:-2] or idx.dtype.kind not in "iu":
        raise ShapeError(f"cross_entropy_index: need one integer index per logit column, "
                         f"got {idx!r} for logits {logits.shape}")
    if ((idx < 0) | (idx >= n)).any():
        raise ShapeError(f"cross_entropy_index: index {index} out of range for {n} classes")
    z = logits.data[..., 0]
    pos = idx[..., None]
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    lse = m + np.log(e.sum(axis=-1, keepdims=True))
    out = Tensor._wrap((lse - np.take_along_axis(z, pos, axis=-1))[..., None])

    def backward(g):
        p = e / e.sum(axis=-1, keepdims=True)
        np.put_along_axis(p, pos, np.take_along_axis(p, pos, axis=-1) - 1.0, axis=-1)
        _accumulate(logits, (g[..., 0] * p)[..., None])

    _record(backward, out)
    return out


# ---------------------------------------------------------------------------
# Fused layer ops
# ---------------------------------------------------------------------------


def lstm(x: Tensor, w_input: Tensor, w_recurrent: Tensor, bias: Tensor, reverse: bool = False) -> Tensor:
    """One LSTM direction over the columns of (d, L) -> (h, L), or (B, d, L) -> (B, h, L).

    Gate rows of ``w_input`` (4h, d), ``w_recurrent`` (4h, h) and ``bias``
    (4h, 1) are ordered input/forget/cell/output; both initial states are
    zero, and ``reverse`` runs the recurrence from the last column to the
    first, outputs staying in input-time order.  The B items of a batch run
    side by side: their states at one step are the B columns of an (h, B)
    block, so each step is one (4h, h) @ (h, B) product and gate blocks stay
    contiguous row ranges; one utterance runs the same loop on (h,) vectors.
    The input
    projection and bias of all steps are one GEMM hoisted out of the time
    loop.  The whole direction is a single tape record whose backward runs
    backpropagation through time by hand and forms the four gradients as
    whole-sequence GEMMs over the stacked pre-activation gradients.
    """
    _require_matrix(x, "lstm")
    hidden = w_recurrent.shape[1] if w_recurrent.ndim == 2 else 0
    dim, length = x.shape[-2:]
    if w_recurrent.shape != (4 * hidden, hidden) or hidden < 1:
        raise ShapeError(f"lstm: recurrent weight must be (4h, h), got {w_recurrent.shape}")
    if w_input.shape != (4 * hidden, dim):
        raise ShapeError(f"lstm: input weight must be {(4 * hidden, dim)} for input {x.shape}, "
                         f"got {w_input.shape}")
    if bias.shape != (4 * hidden, 1):
        raise ShapeError(f"lstm: bias must be {(4 * hidden, 1)}, got {bias.shape}")
    if length < 1:
        raise ShapeError(f"lstm: input has no time steps, shape {x.shape}")
    batch = x.shape[0] if x.ndim == 3 else 1
    h1, h2, h3 = hidden, 2 * hidden, 3 * hidden
    w_rec = w_recurrent.data
    # Per-step state is indexed by step first, so every step reads and writes
    # one contiguous block: an (n,) vector for one utterance, an (n, B) block
    # of columns for a batch.
    tail = () if x.ndim == 2 else (batch,)

    def columns(a: np.ndarray) -> np.ndarray:
        # (L, n[, B]) per-step state -> (n, L*B), column t*B + b for step t of item b.
        return a.reshape(length, a.shape[1], batch).transpose(1, 0, 2).reshape(a.shape[1], -1)

    if x.ndim == 2:
        pre_input = x.data.T @ w_input.data.T + bias.data[:, 0]           # (L, 4h)
    else:
        pre_input = w_input.data @ x.data.transpose(2, 1, 0) + bias.data  # (L, 4h, B)
    gates = np.empty((length, 4 * hidden) + tail)
    cells = np.empty((length, hidden) + tail)
    tanh_cells = np.empty((length, hidden) + tail)
    hs = np.empty((length, hidden) + tail)
    order = range(length - 1, -1, -1) if reverse else range(length)
    h_prev = np.zeros((hidden,) + tail)
    c_prev = np.zeros((hidden,) + tail)
    for t in order:
        pre = pre_input[t] + w_rec @ h_prev
        # One sigmoid call over all four blocks, then tanh over the cell block.
        act = _stable_sigmoid(pre)
        act[h2:h3] = np.tanh(pre[h2:h3])
        c_prev = act[h1:h2] * c_prev + act[:h1] * act[h2:h3]
        tanh_c = np.tanh(c_prev)
        h_prev = act[h3:] * tanh_c
        gates[t] = act
        cells[t] = c_prev
        tanh_cells[t] = tanh_c
        hs[t] = h_prev
    out = Tensor._wrap(np.ascontiguousarray(hs.T if x.ndim == 2 else hs.transpose(2, 1, 0)))

    def backward(grad):
        # States entering each step: the neighbouring step's, zero at the start.
        zero = np.zeros((1, hidden) + tail)
        if reverse:
            hs_prev = np.concatenate([hs[1:], zero])
            cells_prev = np.concatenate([cells[1:], zero])
        else:
            hs_prev = np.concatenate([zero, hs[:-1]])
            cells_prev = np.concatenate([zero, cells[:-1]])
        i, f, g, o = gates[:, :h1], gates[:, h1:h2], gates[:, h2:h3], gates[:, h3:]
        # dpre[t] = local[t] * [dc, dc, dc, dh] with dc, dh the cell and
        # hidden gradients of step t; each block of local is the gate's
        # partner in the cell update times the gate's own derivative.
        local = np.concatenate([g * i * (1.0 - i), cells_prev * f * (1.0 - f),
                                i * (1.0 - g * g), tanh_cells * o * (1.0 - o)], axis=1)
        dc_from_h = o * (1.0 - tanh_cells * tanh_cells)
        d_out = grad.T if x.ndim == 2 else grad.transpose(2, 1, 0)
        dpre = np.empty((length, 4 * hidden) + tail)
        # Gate-block views: [t, k] is block k (i, f, g, o) of step t.
        local_blocks = local.reshape((length, 4, hidden) + tail)
        dpre_blocks = dpre.reshape((length, 4, hidden) + tail)
        w_rec_t = w_rec.T
        dh_next = np.zeros((hidden,) + tail)
        dc_next = np.zeros((hidden,) + tail)
        for t in reversed(order):
            dh = d_out[t] + dh_next
            dc = dc_next + dh * dc_from_h[t]
            np.multiply(local_blocks[t, :3], dc, out=dpre_blocks[t, :3])
            np.multiply(local_blocks[t, 3], dh, out=dpre_blocks[t, 3])
            dc_next = dc * f[t]
            dh_next = w_rec_t @ dpre[t]
        dpre_cols = columns(dpre)
        xs = x.data if x.ndim == 2 else columns(x.data.transpose(2, 1, 0))
        dxs = w_input.data.T @ dpre_cols
        _accumulate(x, dxs if x.ndim == 2 else dxs.reshape(dim, length, batch).transpose(2, 0, 1))
        _accumulate(w_input, dpre_cols @ xs.T)
        _accumulate(w_recurrent, dpre_cols @ columns(hs_prev).T)
        _accumulate(bias, dpre_cols.sum(axis=1, keepdims=True))

    _record(backward, out)
    return out


def attention_map(feats: np.ndarray, key: np.ndarray, proj: np.ndarray, inv_scale: float) -> np.ndarray:
    """Segment-by-segment correlation map tanh(feats^T (proj @ key) * inv_scale) of ``attend``.

    Forward only, on raw arrays: ``feats`` (d, L) or (B, d, L), ``key``
    (k, L) or (B, k, L), ``proj`` (d, k); returns (L, L) or (B, L, L).
    """
    return np.tanh((_swap(feats) @ (proj @ key)) * inv_scale)


def attend(feats: Tensor, key: Tensor, proj: Tensor, attn_mix: Tensor, out_mix: Tensor,
           inv_scale: float) -> Tensor:
    """Residual cross-attention of ``feats`` against ``key``, as one tape record.

    Returns feats + relu((feats @ attn_mix) @ C) @ out_mix with C the
    correlation map ``attention_map(feats, key, proj, inv_scale)``.  Shapes:
    ``feats`` (d, L), ``key`` (k, L), ``proj`` (d, k), both mixes (L, L), or
    the same with a leading batch axis on ``feats`` and ``key``.  Only C is
    kept for backward; proj @ key, feats @ attn_mix and the ReLU input are
    recomputed there from the inputs.
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
    corr = attention_map(feats.data, key.data, proj.data, inv_scale)
    gated = np.maximum(_mm(_mm(feats.data, attn_mix.data), corr), 0.0)
    out = Tensor._wrap(feats.data + _mm(gated, out_mix.data))

    def backward(g):
        mixed = _mm(feats.data, attn_mix.data)
        pre_relu = mixed @ corr
        d_pre = _mm(g, out_mix.data.T) * (pre_relu > 0.0)
        _accumulate(out_mix, _right_grad(np.maximum(pre_relu, 0.0), g, 2))
        d_mixed = d_pre @ _swap(corr)
        d_corr = (_swap(mixed) @ d_pre) * (1.0 - corr * corr) * inv_scale
        _accumulate(attn_mix, _right_grad(feats.data, d_mixed, 2))
        projected = proj.data @ key.data
        _accumulate(feats, g + _mm(d_mixed, attn_mix.data.T) + projected @ _swap(d_corr))
        d_projected = feats.data @ d_corr
        _accumulate(proj, _left_grad(d_projected, key.data, 2))
        _accumulate(key, proj.data.T @ d_projected)

    _record(backward, out)
    return out


def pooling_attention(feats: np.ndarray, proj: np.ndarray, bias: np.ndarray,
                      score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh bottleneck and segment weights of ``attentive_pool``.

    Forward only, on raw arrays: ``feats`` (d, L) or (B, d, L), ``proj``
    (k, d), ``bias`` and ``score`` (k, 1).  Returns the bottleneck
    tanh(proj @ feats + bias), (k, L) per item, and the weights
    softmax(score^T bottleneck) over segments, one (L, 1) column summing to
    one per item.
    """
    hidden = np.tanh(proj @ feats + bias)
    scores = _swap(score.T @ hidden)
    e = np.exp(scores - scores.max(axis=-2, keepdims=True))
    return hidden, e / e.sum(axis=-2, keepdims=True)


def attentive_pool(feats: Tensor, proj: Tensor, bias: Tensor, score: Tensor, floor: float) -> Tensor:
    """Attentive statistics pooling of (d, L) -> (2d, 1), or of a (B, d, L) batch, as one tape record.

    With w the weights of ``pooling_attention(feats, proj, bias, score)``,
    the output stacks the weighted mean mu = feats @ w over the weighted
    standard deviation sqrt(max((feats * feats) @ w - mu * mu, floor)); the
    variance gets gradient only where it lies above ``floor``.
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
    hidden, weights = pooling_attention(x, proj.data, bias.data, score.data)
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
        d_pre = 1.0 - hidden * hidden
        d_pre *= score.data * _swap(d_scores)
        d_x = x * (2.0 * d_second)
        d_x += d_mean
        d_x *= _swap(weights)
        d_x += proj.data.T @ d_pre
        _accumulate(feats, d_x)
        _accumulate(proj, _left_grad(d_pre, x, 2))
        _accumulate(bias, _unbroadcast(d_pre.sum(axis=-1, keepdims=True), bias))

    _record(backward, out)
    return out


def aam_cross_entropy(embedding: Tensor, weights: Tensor, labels: np.ndarray, scale: float,
                      margin: float, cos_bound: float) -> Tensor:
    """Additive-angular-margin softmax cross-entropy per embedding, as one tape record.

    ``embedding`` (e, 1) with an int label gives a (1, 1) loss; a batch
    (B, e, 1) with B labels gives (B, 1, 1).  The logits are ``scale`` times
    the cosines between the unit embedding and the unit rows of the (n, e)
    class ``weights``, the target's moved by delta = cos(theta + margin) -
    cos(theta), expanded as cos*cos(margin) - sin*sin(margin) - cos with sin
    taken from the cosine clamped to [-cos_bound, cos_bound].  Labels must be
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
    # unfused primitives (l2_normalize_columns of the transposed weights), so
    # the loss is bitwise equal to theirs.
    columns = np.ascontiguousarray(weights.data.T)                        # e x n
    class_norms = np.sqrt((columns * columns).sum(axis=-2, keepdims=True))
    unit_classes = np.ascontiguousarray((columns / class_norms).T)        # n x e
    cosines = _mm(unit_classes, unit_emb)[..., 0]                         # [B x] n
    pos = np.asarray(labels)[..., None]
    target = np.take_along_axis(cosines, pos, axis=-1)
    bounded = np.clip(target, -cos_bound, cos_bound)
    sine = np.sqrt(1.0 - bounded * bounded)
    delta = (math.cos(margin) * target - math.sin(margin) * sine) - target
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
        # path, open only strictly inside the clamp.
        inside = (target > -cos_bound) & (target < cos_bound)
        slope = math.cos(margin) + math.sin(margin) * bounded / sine * inside
        np.put_along_axis(d_cos, pos, np.take_along_axis(d_cos, pos, axis=-1) * slope, axis=-1)
        d_cos = d_cos[..., None]
        # Back through both unit normalizations: (g - y <y, g>) / norm.
        d_unit_emb = _mm(unit_classes.T, d_cos)
        inner = (unit_emb * d_unit_emb).sum(axis=-2, keepdims=True)
        _accumulate(embedding, (d_unit_emb - unit_emb * inner) / emb_norms)
        d_unit_classes = _left_grad(d_cos, unit_emb, 2)                  # n x e
        inner = (unit_classes * d_unit_classes).sum(axis=-1, keepdims=True)
        _accumulate(weights, (d_unit_classes - unit_classes * inner) / class_norms.T)

    _record(backward, out)
    return out


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def numeric_gradient(f: Callable[[Tensor], float], x: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function, per element."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = x.data
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        hi = base.copy()
        hi[idx] += eps
        lo = base.copy()
        lo[idx] -= eps
        f_hi = float(f(Tensor(hi)))
        f_lo = float(f(Tensor(lo)))
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise NonFiniteError("numeric_gradient: function returned a non-finite value")
        grad[idx] = (f_hi - f_lo) / (2.0 * eps)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-3) -> float:
    """Worst elementwise |a - n| / max(|a|, |n|, floor).

    The floor keeps finite-difference noise on near-zero gradients from
    dominating; a wrong backward still shows up as an O(1) error.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise ShapeError(f"relative_error: shape mismatch {a.shape} vs {n.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
