"""Unfused tape primitives that only the test oracles compose.

Each fused layer op in ``avfuse.autodiff`` is checked against the same layer
written as a chain of these primitives (``composed_attend``, ``reference_lstm``,
``composed_asp``, ``composed_aam``); each primitive has its own
finite-difference test in tests/test_autodiff.py.  They record on the active
tape exactly as the library's ops do.
"""

import numpy as np

from avfuse.autodiff import (
    NonFiniteError,
    ShapeError,
    Tensor,
    _accumulate,
    _broadcastable,
    _record,
    _require_matrix,
    _require_rank2,
    _swap,
    _unbroadcast,
)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference, broadcasting like ``add``."""
    _broadcastable(a, b, "sub")
    out = Tensor._wrap(a.data - b.data)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a))
        _accumulate(b, _unbroadcast(-g, b))

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

    return _record(backward, out, x)


def relu(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.maximum(x.data, 0.0))

    def backward(g):
        _accumulate(x, g * (x.data > 0.0))

    return _record(backward, out, x)


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

    return _record(backward, out, x)


def _stable_sigmoid(d: np.ndarray) -> np.ndarray:
    """Logistic sigmoid split by sign so no exponent is positive: 1 / (1 + e^-d)
    for d >= 0 and e^d / (1 + e^d) below, with the numerator written as e^min(d, 0)."""
    return np.exp(np.minimum(d, 0.0)) / (1.0 + np.exp(-np.abs(d)))


def sigmoid(x: Tensor) -> Tensor:
    out = Tensor._wrap(_stable_sigmoid(x.data))

    def backward(g):
        _accumulate(x, g * out.data * (1.0 - out.data))

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
