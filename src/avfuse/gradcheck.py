"""Finite-difference verification of every layer's backward pass.

Each check builds a tiny random instance of one layer the model runs,
differentiates a scalar probe loss through the tape, and compares against
central differences taken by re-running the forward with perturbed inputs.
The rows are the model's layers at dims small enough that the whole suite
runs in seconds: the fusion stage of each mode, given as the model builds it
(steps and ``cross``, no steps for concat), the BLSTM, ASP, the embedding
projection and the AAM head.  Each is checked on a rank-2 utterance; the jca
and cross-attention steps, BLSTM, ASP, projection and AAM head also on a
rank-3 batch of two, which covers the batch-axis broadcasts and the weight
gradients summed over the batch.  The central-difference estimate
(``numeric_gradient``) and its error measure (``relative_error``) live here,
the one home of finite differences.  A row passes below ``TOLERANCE``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from avfuse import autodiff as ad
from avfuse.autodiff import NonFiniteError, ShapeError, Tape, Tensor, named_tensors
from avfuse.config import ConfigError
from avfuse.fusion import JcaStepParams, fuse
from avfuse.objective import AamHead, aam_loss
from avfuse.temporal import AspParams, BlstmParams, EmbeddingProjection, asp, blstm_forward, project_embedding

TOLERANCE = 1e-4
FD_EPS = 1e-5
FD_FLOOR = 1e-3


def numeric_gradient(f: Callable[[], float], x: Tensor) -> np.ndarray:
    """Central-difference gradient of ``f()`` in each element of ``x.data``, moved in place by
    ``FD_EPS`` either way and then restored."""
    data = x.data
    grad = np.zeros_like(data)
    for idx in np.ndindex(data.shape):
        saved = data[idx]
        try:
            data[idx] = saved + FD_EPS
            f_hi = float(f())
            data[idx] = saved - FD_EPS
            f_lo = float(f())
        finally:
            data[idx] = saved
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise NonFiniteError("numeric_gradient: function returned a non-finite value")
        grad[idx] = (f_hi - f_lo) / (2.0 * FD_EPS)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst elementwise |a - n| / max(|a|, |n|, ``FD_FLOOR``).

    The floor keeps finite-difference noise on near-zero gradients from
    dominating; a wrong backward still shows up as an O(1) error.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise ShapeError(f"relative_error: shape mismatch {a.shape} vs {n.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), FD_FLOOR)
    return float(np.max(np.abs(a - n) / denom, initial=0.0))


@dataclass
class LayerCheck:
    """Worst relative backward error of one layer against finite differences."""

    name: str
    worst_error: float

    @property
    def passed(self) -> bool:
        return self.worst_error < TOLERANCE


def check_function(loss_fn: Callable[[], Tensor], tensors: dict[str, Tensor]) -> float:
    """Worst relative error of tape gradients vs central differences.

    ``loss_fn`` must rebuild the scalar loss from the live tensor objects so
    perturbing ``tensor.data`` in place re-evaluates the whole forward.
    """
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    worst = 0.0
    for tensor in tensors.values():
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        worst = max(worst, relative_error(analytic, numeric_gradient(lambda: loss_fn().item(), tensor)))
    return worst


def _probe_loss(output: Tensor, probe: Tensor) -> Tensor:
    return ad.sum_all(ad.mul(output, probe))


def check_fusion(rng, steps: int = 1, batch: tuple[int, ...] = (), cross: bool = False) -> float:
    audio = Tensor(rng.uniform(-1, 1, size=batch + (3, 4)))
    visual = Tensor(rng.uniform(-1, 1, size=batch + (2, 4)))
    chain = [JcaStepParams.init(3, 2, 4, rng, cross) for _ in range(steps)]
    probe = Tensor(rng.uniform(-1, 1, size=batch + (5, 4)))
    tensors = {"audio": audio, "visual": visual}
    for i, step in enumerate(chain):
        tensors.update(named_tensors(step, f"step{i}."))
    return check_function(
        lambda: _probe_loss(fuse(audio, visual, chain, cross), probe), tensors)


def _check_single_input(params, forward: Callable, input_shape: tuple[int, int],
                        probe_shape: tuple[int, int], rng, batch: tuple[int, ...]) -> float:
    """A layer ``forward(x, params)`` of one input, drawn after ``params`` and before the probe."""
    x = Tensor(rng.uniform(-1, 1, size=batch + input_shape))
    probe = Tensor(rng.uniform(-1, 1, size=batch + probe_shape))
    tensors = {"x": x, **named_tensors(params)}
    return check_function(lambda: _probe_loss(forward(x, params), probe), tensors)


def check_blstm(rng, batch: tuple[int, ...] = ()) -> float:
    return _check_single_input(BlstmParams.init(input_dim=3, hidden=3, rng=rng), blstm_forward,
                               (3, 5), (6, 5), rng, batch)


def check_asp(rng, batch: tuple[int, ...] = ()) -> float:
    return _check_single_input(AspParams.init(input_dim=4, bottleneck=3, rng=rng), asp,
                               (4, 5), (8, 1), rng, batch)


def check_projection(rng, batch: tuple[int, ...] = ()) -> float:
    return _check_single_input(EmbeddingProjection.init(input_dim=6, embed_dim=4, rng=rng),
                               project_embedding, (6, 1), (4, 1), rng, batch)


def check_aam(rng, batch: tuple[int, ...] = ()) -> float:
    head = AamHead.init(n_classes=4, embed_dim=5, rng=rng)
    embedding = Tensor(rng.uniform(0.2, 1.0, size=batch + (5, 1)))
    labels = np.array([2, 0])[:batch[0]] if batch else 2
    tensors = {"embedding": embedding, "weights": head.weights}
    return check_function(lambda: ad.sum_all(aam_loss(embedding, labels, head)), tensors)


def _batched(check: Callable) -> Callable:
    """The same check on a rank-3 batch of two items."""
    return lambda rng: check(rng, batch=(2,))


LAYER_CHECKS: dict[str, Callable] = {
    "concat": lambda rng: check_fusion(rng, steps=0),
    "jca_step": check_fusion,
    "jca_step_batch": _batched(check_fusion),
    "rjca_stack_t3": lambda rng: check_fusion(rng, steps=3),
    "cross_attention": lambda rng: check_fusion(rng, cross=True),
    "cross_attention_batch": lambda rng: check_fusion(rng, batch=(2,), cross=True),
    "blstm_bptt": check_blstm,
    "blstm_bptt_batch": _batched(check_blstm),
    "asp": check_asp,
    "asp_batch": _batched(check_asp),
    "projection": check_projection,
    "projection_batch": _batched(check_projection),
    "aam_loss": check_aam,
    "aam_loss_batch": _batched(check_aam),
}


def run_suite(seed: int = 0) -> list[LayerCheck]:
    """Run every layer check with an independent generator per layer, seeded by
    the layer's name, so adding or removing a row leaves the others' draws alone."""
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    results = []
    for name, check in LAYER_CHECKS.items():
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        results.append(LayerCheck(name, float(check(rng))))
    return results


def format_suite_report(results: list[LayerCheck]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'layer':<{width}}   worst rel err   status",
             f"{'-' * width}   -------------   ------"]
    for r in results:
        lines.append(f"{r.name:<{width}}   {r.worst_error:13.3e}   {'PASS' if r.passed else 'FAIL'}")
    lines.append("")
    overall = all(r.passed for r in results)
    lines.append(f"gradcheck: {'PASS' if overall else 'FAIL'} (tolerance {TOLERANCE:g})")
    return "\n".join(lines)
