"""Dense real-tensor kernels with reverse-mode differentiation on an explicit tape.

Every operation the fusion model needs lives here as a pure function of
``Tensor`` inputs.  When a ``Tape`` is active (entered as a context manager),
each op appends a backward closure; ``Tape.backward`` replays the closures in
exact reverse order of forward execution, accumulating gradients additively
into the ``grad`` buffers of the participating tensors.  Without an active
tape, ops run as plain numpy forward passes (the inference path).

Most ops are elementwise or matrix primitives with one closure each.  A fused
layer op (``lstm``) runs a whole recurrence in numpy and records a single
closure holding its hand-derived backward, which cuts the per-record Python
overhead that dominates at these matrix sizes.

A tape is single-threaded by design: one tape per training worker.  The active
tape is tracked in thread-local storage, so read-only forwards on disjoint
tensors may run concurrently across threads.
"""

from __future__ import annotations

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

    Values are validated to be finite at construction; gradients share the
    value's shape and are allocated lazily on first accumulation.
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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Tape:
    """Ordered record of executed ops sufficient to replay backward.

    Gradients accumulate additively with a fixed traversal order (exact
    reverse of forward execution), so replaying an identical tape twice
    yields bitwise-identical gradients.
    """

    def __init__(self):
        self._records: list[tuple[Callable[[], None], tuple[Tensor, ...]]] = []

    def __enter__(self) -> "Tape":
        stack = getattr(_ACTIVE, "stack", None)
        if stack is None:
            stack = []
            _ACTIVE.stack = stack
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.stack.pop()

    def record(self, backward: Callable[[], None], tensors: tuple[Tensor, ...]) -> None:
        self._records.append((backward, tensors))

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, output: Tensor, seed: float = 1.0) -> None:
        """Seed the scalar output gradient and run all closures in reverse."""
        if output.data.size != 1:
            raise ShapeError(f"backward needs a scalar output, got shape {output.shape}")
        _accumulate(output, np.full_like(output.data, float(seed)))
        for closure, _ in reversed(self._records):
            closure()

    def tensors(self) -> list[Tensor]:
        """All distinct tensors touched by recorded ops, in first-use order."""
        seen: dict[int, Tensor] = {}
        for _, ts in self._records:
            for t in ts:
                seen.setdefault(id(t), t)
        return list(seen.values())

    def zero_grads(self) -> None:
        for t in self.tensors():
            t.grad = None


def _accumulate(t: Tensor, delta: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(delta, dtype=np.float64)
    else:
        t.grad += delta


def _record(backward: Callable[[], None], tensors: tuple[Tensor, ...]) -> None:
    tape = _active_tape()
    if tape is not None:
        tape.record(backward, tensors)


def _require_rank2(x: Tensor, op: str) -> None:
    if x.ndim != 2:
        raise ShapeError(f"{op}: rank-2 tensor required, got shape {x.shape}")


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    _require_rank2(a, "matmul")
    _require_rank2(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents disagree for shapes {a.shape} x {b.shape}")
    out = Tensor._wrap(a.data @ b.data)

    def backward():
        if out.grad is None:
            return
        _accumulate(a, out.grad @ b.data.T)
        _accumulate(b, a.data.T @ out.grad)

    _record(backward, (a, b, out))
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor._wrap(a.data + b.data)

    def backward():
        if out.grad is None:
            return
        _accumulate(a, out.grad)
        _accumulate(b, out.grad)

    _record(backward, (a, b, out))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"sub: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor._wrap(a.data - b.data)

    def backward():
        if out.grad is None:
            return
        _accumulate(a, out.grad)
        _accumulate(b, -out.grad)

    _record(backward, (a, b, out))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor._wrap(a.data * b.data)

    def backward():
        if out.grad is None:
            return
        _accumulate(a, out.grad * b.data)
        _accumulate(b, out.grad * a.data)

    _record(backward, (a, b, out))
    return out


def scale_shift(x: Tensor, scale: float = 1.0, shift: float = 0.0) -> Tensor:
    """Elementwise affine map with constant coefficients: scale*x + shift."""
    out = Tensor._wrap(scale * x.data + shift)

    def backward():
        if out.grad is None:
            return
        _accumulate(x, scale * out.grad)

    _record(backward, (x, out))
    return out


def scale(x: Tensor, factor: float) -> Tensor:
    """Elementwise multiplication by a constant."""
    return scale_shift(x, scale=factor)


def tanh(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.tanh(x.data))

    def backward():
        if out.grad is None:
            return
        _accumulate(x, out.grad * (1.0 - out.data * out.data))

    _record(backward, (x, out))
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.maximum(x.data, 0.0))

    def backward():
        if out.grad is None:
            return
        _accumulate(x, out.grad * (x.data > 0.0))

    _record(backward, (x, out))
    return out


def _stable_sigmoid(d: np.ndarray) -> np.ndarray:
    # Split by sign so no exponent is positive: 1 / (1 + e^-d) for d >= 0 and
    # e^d / (1 + e^d) below, with the numerator written as e^min(d, 0).
    return np.exp(np.minimum(d, 0.0)) / (1.0 + np.exp(-np.abs(d)))


def sigmoid(x: Tensor) -> Tensor:
    out = Tensor._wrap(_stable_sigmoid(x.data))

    def backward():
        if out.grad is None:
            return
        _accumulate(x, out.grad * out.data * (1.0 - out.data))

    _record(backward, (x, out))
    return out


def softmax_columns(x: Tensor) -> Tensor:
    """Softmax normalizing each column of a rank-2 tensor to sum to one."""
    _require_rank2(x, "softmax_columns")
    shifted = x.data - x.data.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=0, keepdims=True)
    out = Tensor._wrap(y)

    def backward():
        if out.grad is None:
            return
        # Per column: dx = y * (g - <y, g>)
        inner = (out.data * out.grad).sum(axis=0, keepdims=True)
        _accumulate(x, out.data * (out.grad - inner))

    _record(backward, (x, out))
    return out


_ACTIVATIONS = {"tanh": tanh, "relu": relu, "softmax_columns": softmax_columns}


def activation(x: Tensor, kind: str) -> Tensor:
    """Dispatch to tanh, relu, or per-column softmax."""
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ShapeError(f"unknown activation kind {kind!r}") from None
    return fn(x)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Vertical stack of two rank-2 tensors with equal column counts."""
    _require_rank2(a, "concat_rows")
    _require_rank2(b, "concat_rows")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat_rows: column counts disagree for shapes {a.shape} vs {b.shape}")
    out = Tensor._wrap(np.concatenate([a.data, b.data], axis=0))
    split = a.shape[0]

    def backward():
        if out.grad is None:
            return
        _accumulate(a, out.grad[:split])
        _accumulate(b, out.grad[split:])

    _record(backward, (a, b, out))
    return out


def transpose(x: Tensor) -> Tensor:
    _require_rank2(x, "transpose")
    out = Tensor._wrap(np.ascontiguousarray(x.data.T))

    def backward():
        if out.grad is None:
            return
        _accumulate(x, out.grad.T)

    _record(backward, (x, out))
    return out


def rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous row slice [start, stop) of a rank-2 tensor."""
    _require_rank2(x, "rows")
    if not 0 <= start < stop <= x.shape[0]:
        raise ShapeError(f"rows: slice [{start}, {stop}) out of range for shape {x.shape}")
    out = Tensor._wrap(x.data[start:stop].copy())

    def backward():
        if out.grad is None:
            return
        delta = np.zeros_like(x.data)
        delta[start:stop] = out.grad
        _accumulate(x, delta)

    _record(backward, (x, out))
    return out


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a (rows, 1) bias to every column of a (rows, cols) tensor."""
    _require_rank2(x, "add_bias")
    _require_rank2(bias, "add_bias")
    if bias.shape != (x.shape[0], 1):
        raise ShapeError(f"add_bias: bias shape {bias.shape} does not match rows of {x.shape}")
    out = Tensor._wrap(x.data + bias.data)

    def backward():
        if out.grad is None:
            return
        _accumulate(x, out.grad)
        _accumulate(bias, out.grad.sum(axis=1, keepdims=True))

    _record(backward, (x, bias, out))
    return out


def clamp(x: Tensor, lo: float = -np.inf, hi: float = np.inf) -> Tensor:
    """Elementwise clip; gradient passes only strictly inside the interval."""
    out = Tensor._wrap(np.clip(x.data, lo, hi))

    def backward():
        if out.grad is None:
            return
        inside = (x.data > lo) & (x.data < hi)
        _accumulate(x, out.grad * inside)

    _record(backward, (x, out))
    return out


def clamp_min(x: Tensor, lo: float) -> Tensor:
    return clamp(x, lo=lo)


def sqrt(x: Tensor) -> Tensor:
    if (x.data < 0).any():
        raise NonFiniteError("sqrt: negative input")
    y = np.sqrt(x.data)
    out = Tensor._wrap(y)

    def backward():
        if out.grad is None:
            return
        _accumulate(x, out.grad * 0.5 / out.data)

    _record(backward, (x, out))
    return out


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a (1, 1) tensor."""
    out = Tensor._wrap(np.array([[x.data.sum()]]))

    def backward():
        if out.grad is None:
            return
        _accumulate(x, np.full_like(x.data, out.grad.reshape(-1)[0]))

    _record(backward, (x, out))
    return out


def l2_normalize_columns(x: Tensor) -> Tensor:
    """Scale each column of a rank-2 tensor to unit Euclidean norm."""
    _require_rank2(x, "l2_normalize_columns")
    norms = np.sqrt((x.data * x.data).sum(axis=0, keepdims=True))
    if (norms == 0.0).any():
        raise NonFiniteError("l2_normalize_columns: zero-norm column")
    y = x.data / norms
    out = Tensor._wrap(y)

    def backward():
        if out.grad is None:
            return
        # dL/dx = (g - y * <y, g>) / norm, per column.
        inner = (out.data * out.grad).sum(axis=0, keepdims=True)
        _accumulate(x, (out.grad - out.data * inner) / norms)

    _record(backward, (x, out))
    return out


def cross_entropy_index(logits: Tensor, index: int) -> Tensor:
    """Cross-entropy of a softmax over a (n, 1) logit column against one index.

    Forward uses a max-shifted log-sum-exp; backward is softmax minus one-hot.
    """
    _require_rank2(logits, "cross_entropy_index")
    if logits.shape[1] != 1:
        raise ShapeError(f"cross_entropy_index: expected (n, 1) logits, got {logits.shape}")
    n = logits.shape[0]
    if not 0 <= index < n:
        raise ShapeError(f"cross_entropy_index: index {index} out of range for {n} classes")
    z = logits.data[:, 0]
    m = z.max()
    lse = m + np.log(np.exp(z - m).sum())
    out = Tensor._wrap(np.array([[lse - z[index]]]))

    def backward():
        if out.grad is None:
            return
        p = np.exp(z - m)
        p /= p.sum()
        p[index] -= 1.0
        _accumulate(logits, out.grad.reshape(-1)[0] * p.reshape(n, 1))

    _record(backward, (logits, out))
    return out


# ---------------------------------------------------------------------------
# Fused layer ops
# ---------------------------------------------------------------------------


def lstm(x: Tensor, w_input: Tensor, w_recurrent: Tensor, bias: Tensor, reverse: bool = False) -> Tensor:
    """One LSTM direction over the columns of a (d, L) tensor -> (h, L), in input-time order.

    Gate rows of ``w_input`` (4h, d), ``w_recurrent`` (4h, h) and ``bias``
    (4h, 1) are ordered input/forget/cell/output; both initial states are
    zero, and ``reverse`` runs the recurrence from the last column to the
    first.  The input projection and bias of all L steps are one GEMM hoisted
    out of the time loop, leaving one (4h, h) @ (h,) product per step.  The
    whole direction is a single tape record whose backward runs
    backpropagation through time by hand and forms the four gradients as
    whole-sequence GEMMs over the stacked pre-activation gradients.
    """
    _require_rank2(x, "lstm")
    hidden = w_recurrent.shape[1] if w_recurrent.ndim == 2 else 0
    dim, length = x.shape
    if w_recurrent.shape != (4 * hidden, hidden) or hidden < 1:
        raise ShapeError(f"lstm: recurrent weight must be (4h, h), got {w_recurrent.shape}")
    if w_input.shape != (4 * hidden, dim):
        raise ShapeError(f"lstm: input weight must be {(4 * hidden, dim)} for input {x.shape}, "
                         f"got {w_input.shape}")
    if bias.shape != (4 * hidden, 1):
        raise ShapeError(f"lstm: bias must be {(4 * hidden, 1)}, got {bias.shape}")
    if length < 1:
        raise ShapeError(f"lstm: input has no time steps, shape {x.shape}")
    h1, h2, h3 = hidden, 2 * hidden, 3 * hidden
    w_rec = w_recurrent.data
    # Per-step state is stored one row per time step, so every step reads
    # and writes contiguous rows.
    pre_input = x.data.T @ w_input.data.T + bias.data[:, 0]   # (L, 4h)
    gates = np.empty((length, 4 * hidden))
    cells = np.empty((length, hidden))
    tanh_cells = np.empty((length, hidden))
    hs = np.empty((length, hidden))
    order = range(length - 1, -1, -1) if reverse else range(length)
    h_prev = np.zeros(hidden)
    c_prev = np.zeros(hidden)
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
    out = Tensor._wrap(np.ascontiguousarray(hs.T))

    def backward():
        if out.grad is None:
            return
        # States entering each step: the neighbouring step's, zero at the start.
        zero = np.zeros((1, hidden))
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
        d_out = out.grad.T
        dpre = np.empty((length, 4 * hidden))
        dh_next = np.zeros(hidden)
        dc_next = np.zeros(hidden)
        for t in reversed(order):
            dh = d_out[t] + dh_next
            dc = dc_next + dh * dc_from_h[t]
            row = local[t] * np.concatenate((dc, dc, dc, dh))
            dpre[t] = row
            dc_next = dc * f[t]
            dh_next = row @ w_rec
        _accumulate(x, w_input.data.T @ dpre.T)
        _accumulate(w_input, dpre.T @ x.data.T)
        _accumulate(w_recurrent, dpre.T @ hs_prev)
        _accumulate(bias, dpre.sum(axis=0).reshape(-1, 1))

    _record(backward, (x, w_input, w_recurrent, bias, out))
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
