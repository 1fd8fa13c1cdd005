"""Unfused tape primitives that only the test oracles compose.

Each fused layer op in ``avfuse.autodiff`` is checked against the same layer
written as a chain of these primitives (``composed_attend``, ``reference_lstm``,
``composed_asp``, ``composed_aam``, and ``matmul`` then ``add`` for
``affine``); each primitive has its own finite-difference test in
tests/test_autodiff.py.  They record on the active tape exactly as the
library's ops do.  ``matmul`` and ``add`` are kept verbatim from when the
embedding projection chained them.

``attend`` is one modality's attention pass as a fused op of its own, and
``concat_rows`` the stack of two matrices, both kept verbatim from when the
fusion stage chained them: two ``attend`` and one ``concat_rows`` per step
(``chained_fusion``) are the bitwise oracle of ``attention_fusion``, one
``concat_rows`` its oracle with no steps, and ``composed_attend`` the oracle of
``attend`` in turn.
"""

import math

import numpy as np

from avfuse.autodiff import (
    Constant,
    NonFiniteError,
    ShapeError,
    Tensor,
    _accumulate,
    _broadcastable,
    _left_grad,
    _mm,
    _record,
    _require_same_batch,
    _right_grad,
    _swap,
    _unbroadcast,
)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of rank-2 or rank-3 tensors, over the leading batch axis if any."""
    if a.shape[-1] != b.shape[-2] or (a.ndim == b.ndim == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError(f"matmul: inner extents disagree for shapes {a.shape} x {b.shape}")
    out = Tensor._wrap(_mm(a.data, b.data))

    def backward(g):
        _accumulate(a, _left_grad(g, b.data, a.ndim))
        _accumulate(b, _right_grad(a.data, g, b.ndim))

    return _record(backward, out)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be one item of a rank-3 batch ``a``."""
    _broadcastable(a, b, "add")
    out = Tensor._wrap(a.data + b.data)

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, _unbroadcast(g, b))

    return _record(backward, out)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference, broadcasting like ``add``."""
    _broadcastable(a, b, "sub")
    out = Tensor._wrap(a.data - b.data)

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, _unbroadcast(-g, b))

    return _record(backward, out)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Vertical stack of two matrices (or two equal-size batches) with equal column counts."""
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"concat_rows: column counts disagree for shapes {a.shape} vs {b.shape}")
    _require_same_batch(a, b, "concat_rows")
    out = Tensor._wrap(np.concatenate([a.data, b.data], axis=-2))
    split = a.shape[-2]

    def backward(g):
        _accumulate(a, g[..., :split, :])
        _accumulate(b, g[..., split:, :])

    return _record(backward, out)


def scale_shift(x: Tensor, scale: float = 1.0, shift: float = 0.0) -> Tensor:
    """Elementwise affine map with constant coefficients: scale*x + shift."""
    out = Tensor._wrap(scale * x.data + shift)

    def backward(g):
        _accumulate(x, scale * g)

    return _record(backward, out)


def tanh(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.tanh(x.data))

    def backward(g):
        _accumulate(x, g * (1.0 - out.data * out.data))

    return _record(backward, out)


def relu(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.maximum(x.data, 0.0))

    def backward(g):
        _accumulate(x, g * (x.data > 0.0))

    return _record(backward, out)


def softmax_columns(x: Tensor) -> Tensor:
    """Softmax normalizing each column of every matrix to sum to one."""
    shifted = x.data - x.data.max(axis=-2, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-2, keepdims=True)
    out = Tensor._wrap(y)

    def backward(g):
        # Per column: dx = y * (g - <y, g>)
        inner = (out.data * g).sum(axis=-2, keepdims=True)
        _accumulate(x, out.data * (g - inner))

    return _record(backward, out)


def _stable_sigmoid(d: np.ndarray) -> np.ndarray:
    """Logistic sigmoid split by sign so no exponent is positive: 1 / (1 + e^-d)
    for d >= 0 and e^d / (1 + e^d) below, with the numerator written as e^min(d, 0)."""
    return np.exp(np.minimum(d, 0.0)) / (1.0 + np.exp(-np.abs(d)))


def sigmoid(x: Tensor) -> Tensor:
    out = Tensor._wrap(_stable_sigmoid(x.data))

    def backward(g):
        _accumulate(x, g * out.data * (1.0 - out.data))

    return _record(backward, out)


def transpose(x: Tensor) -> Tensor:
    """Transpose of every matrix (the last two axes)."""
    out = Tensor._wrap(np.ascontiguousarray(_swap(x.data)))

    def backward(g):
        _accumulate(x, _swap(g))

    return _record(backward, out)


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a (rows, 1) bias to every column of a (rows, cols) matrix or batch of them."""
    if bias.shape != (x.shape[-2], 1):
        raise ShapeError(f"add_bias: bias shape {bias.shape} does not match rows of {x.shape}")
    out = Tensor._wrap(x.data + bias.data)

    def backward(g):
        _accumulate(x, g)
        _accumulate(bias, _unbroadcast(g.sum(axis=-1, keepdims=True), bias))

    return _record(backward, out)


def clamp(x: Tensor, lo: float = -np.inf, hi: float = np.inf) -> Tensor:
    """Elementwise clip; gradient passes only strictly inside the interval."""
    out = Tensor._wrap(np.clip(x.data, lo, hi))

    def backward(g):
        inside = (x.data > lo) & (x.data < hi)
        _accumulate(x, g * inside)

    return _record(backward, out)


def sqrt(x: Tensor) -> Tensor:
    if (x.data < 0).any():
        raise NonFiniteError("sqrt: negative input")
    y = np.sqrt(x.data)
    out = Tensor._wrap(y)

    def backward(g):
        _accumulate(x, g * 0.5 / out.data)

    return _record(backward, out)


def l2_normalize_columns(x: Tensor) -> Tensor:
    """Scale each column of every matrix to unit Euclidean norm."""
    norms = np.sqrt((x.data * x.data).sum(axis=-2, keepdims=True))
    if (norms == 0.0).any():
        raise NonFiniteError("l2_normalize_columns: zero-norm column")
    y = x.data / norms
    out = Tensor._wrap(y)

    def backward(g):
        # dL/dx = (g - y * <y, g>) / norm, per column.
        inner = (out.data * g).sum(axis=-2, keepdims=True)
        _accumulate(x, (g - out.data * inner) / norms)

    return _record(backward, out)


def cross_entropy_index(logits: Tensor, index) -> Tensor:
    """Cross-entropy of a softmax over each (n, 1) logit column against a target index.

    ``logits`` (n, 1) with an int ``index`` gives a (1, 1) loss; a batch
    (B, n, 1) with B indices gives the B losses as (B, 1, 1).  Forward uses a
    max-shifted log-sum-exp; backward is softmax minus one-hot.
    """
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

    return _record(backward, out)


def attend(feats: Tensor, key: Tensor, proj: Tensor, attn_mix: Tensor, out_mix: Tensor) -> Tensor:
    """Residual cross-attention of ``feats`` against ``key``, as one tape record.

    Returns feats + relu((feats @ attn_mix) @ C) @ out_mix with C the
    segment-by-segment correlation map tanh(feats^T (proj @ key) / sqrt(k)),
    its scaling and tanh written into the product's own buffer.  Shapes:
    ``feats`` (d, L), ``key`` (k, L), ``proj`` (d, k), both mixes (L, L), or
    the same with a leading batch axis on ``feats`` and ``key``.  Only C is
    kept for backward; feats @ attn_mix and the ReLU input are recomputed
    there from the inputs, and proj @ key only when ``feats`` takes a
    gradient.  A constant ``feats`` or ``key`` (see ``Constant``) skips its
    gradient term: the first fusion step attends the raw input features, whose
    gradients nothing reads.
    """
    _require_same_batch(feats, key, "attend")
    dim, length = feats.shape[-2:]
    if key.shape[-1] != length:
        raise ShapeError(f"attend: segment counts disagree for shapes {feats.shape} vs {key.shape}")
    if proj.shape != (dim, key.shape[-2]):
        raise ShapeError(f"attend: projection must be {(dim, key.shape[-2])}, got {proj.shape}")
    for name, mix in (("attn_mix", attn_mix), ("out_mix", out_mix)):
        if mix.shape != (length, length):
            raise ShapeError(f"attend: {name} must be {(length, length)}, got {mix.shape}")
    inv_scale = 1.0 / math.sqrt(key.shape[-2])
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

    return _record(backward, out)


def chained_fusion(cross, audio, visual, steps, attend=attend):
    """The fusion stage as a chain of one op per pass: each step two ``attend``
    passes and one stack, after the first joint stack unless ``cross``."""
    joint = None if cross else concat_rows(audio, visual)
    for p in steps:
        audio_key, visual_key = (visual, audio) if cross else (joint, joint)
        audio, visual = (
            attend(audio, audio_key, p.corr_proj_audio, p.attn_mix_audio, p.out_mix_audio),
            attend(visual, visual_key, p.corr_proj_visual, p.attn_mix_visual, p.out_mix_visual))
        joint = concat_rows(audio, visual)
    return joint
