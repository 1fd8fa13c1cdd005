"""Mini-batch training of the verification model on the margin objective.

One tape per mini-batch: the batch's features are stacked into
(B, dim, segments) arrays and run through one forward, which returns the B
per-utterance losses; one backward of their sum, seeded 1/B, leaves the
batch-mean gradient in every parameter.  A non-finite loss raises a
DivergenceError naming its utterance.  The optimizer keeps all its state in
one flat array: it gathers the gradients into one row, runs its update
formula once over whole rows and subtracts each parameter's slice in place.
Before it updates anything, its guard screens the sum of the gathered
gradient for NaN or Inf; only a non-finite total pays for the per-parameter
scan that names the parameter and refuses the step with a DivergenceError.
Everything is driven by one seeded generator, so a fixed config reproduces
the loss log and checkpoints exactly.  Parameters pass through checkpoint
precision at every epoch boundary, keeping the in-memory model identical to
its last saved checkpoint.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from avfuse import autodiff as ad
from avfuse.autodiff import Tape, Tensor
from avfuse.config import ConfigError, TrainConfig
from avfuse.featio import Utterance
from avfuse.model import VerificationModel


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameter gradient."""


class Optimizer:
    """Adaptive-moment (Kingma & Ba, 2015) or classical-momentum gradient descent
    over one flat state.

    All state is one ``(4, n)`` array over every parameter in order, plus
    ``step_count``: its rows are the moments ``m`` and ``v``, the gathered
    gradient and a scratch row.  ``_m``, ``_v`` and ``_grads`` view each
    parameter's slice of the first three.  A step copies every parameter's
    gradient into the gradient row, hands the row's sum to ``guard`` (if
    given), which may refuse the step by raising before anything is updated,
    runs the update formula once over whole rows, writing the update over the
    gradient it no longer needs, and subtracts each parameter's slice in
    place.  Every parameter must have a gradient: a None one raises
    ``TypeError`` before any moment, parameter or ``step_count`` changes.  The
    formulas are elementwise and keep the per-parameter operation order, so
    the bits are those of a per-parameter update; a step allocates nothing.
    """

    def __init__(self, params: list[Tensor], config: TrainConfig,
                 guard: Callable[[float], None] | None = None):
        self.params = params
        self.kind = config.optimizer
        self.lr = config.learning_rate
        self.momentum = config.momentum
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.step_count = 0
        self.guard = guard
        offsets = np.cumsum([0] + [p.data.size for p in params]).tolist()
        self._flat = np.zeros((4, offsets[-1]))  # rows m, v, the gathered gradient, scratch
        self._m, self._v, self._grads = (
            [row[lo:hi].reshape(p.data.shape) for p, lo, hi in zip(params, offsets, offsets[1:])]
            for row in self._flat[:3])

    def step(self) -> None:
        """Update every parameter, unless ``guard`` refuses."""
        for p, grad in zip(self.params, self._grads):
            np.copyto(grad, p.grad)
        m, v, grad, a = self._flat
        if self.guard is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                self.guard(grad.sum())
        self.step_count += 1
        if self.kind == "adam":
            correct1 = 1 - self.beta1 ** self.step_count
            correct2 = 1 - self.beta2 ** self.step_count
            # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
            np.multiply(m, self.beta1, out=m)
            np.add(m, np.multiply(grad, 1 - self.beta1, out=a), out=m)
            np.multiply(v, self.beta2, out=v)
            np.multiply(grad, 1 - self.beta2, out=a)
            np.add(v, np.multiply(a, grad, out=a), out=v)
            # update = lr (m / correct1) / (sqrt(v / correct2) + eps), over g
            b = grad
            np.add(np.sqrt(np.divide(v, correct2, out=b), out=b), self.eps, out=b)
            np.multiply(np.divide(m, correct1, out=a), self.lr, out=a)
            np.divide(a, b, out=b)
        else:
            np.add(np.multiply(m, self.momentum, out=m), grad, out=m)
            np.multiply(m, self.lr, out=grad)
        for p, update in zip(self.params, self._grads):
            np.subtract(p.data, update, out=p.data)


@dataclass
class TrainResult:
    """Per-epoch mean losses and where the final checkpoint landed."""

    epoch_losses: list[float]
    checkpoint_path: Path
    log_path: Path
    model: VerificationModel = field(repr=False, default=None)


def speaker_index_map(utterances: list[Utterance]) -> dict[str, int]:
    """Stable speaker indexing: sorted speaker ids -> 0..n-1."""
    return {spk: i for i, spk in enumerate(sorted({u.speaker_id for u in utterances}))}


def _check_finite_gradients(named_params: dict[str, Tensor], epoch: int, total: float) -> None:
    """Raise DivergenceError naming the first parameter whose gradient is NaN or Inf.

    Op results are not checked for finiteness, so this is what keeps a
    non-finite gradient from reaching the parameters.  ``total`` is the sum
    of every gradient (what ``Optimizer`` hands its guard), one sum that
    screens them all: a NaN or Inf entry makes it non-finite, so a finite
    total proves every entry finite.  Only a non-finite total, which finite
    gradients also give when their sum overflows, runs the per-parameter
    scan that names the culprit.
    """
    if np.isfinite(total):
        return
    for name, tensor in named_params.items():
        if not np.isfinite(tensor.grad).all():
            raise DivergenceError(f"non-finite gradient at epoch {epoch}, parameter {name}")


def train(config: TrainConfig, train_utts: list[Utterance], out_dir,
          keep_epoch_checkpoints: bool = True) -> TrainResult:
    """Optimize the full stack on the given utterances; see module docstring."""
    if not train_utts:
        raise ConfigError("no training utterances")
    for u in train_utts:
        if u.audio.shape != (config.audio_dim, config.segments) or \
           u.visual.shape != (config.visual_dim, config.segments):
            raise ConfigError(
                f"utterance {u.utt_id}: feature shapes {u.audio.shape}/{u.visual.shape} "
                f"do not match config dims"
            )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    speakers = speaker_index_map(train_utts)
    model = VerificationModel(config, n_speakers=len(speakers))
    named_params = model.named_parameters()
    params = list(named_params.values())
    # The guard reads the epoch the loop is in when a step calls it.
    optimizer = Optimizer(params, config,
                          guard=lambda total: _check_finite_gradients(named_params, epoch, total))
    shuffle_rng = np.random.default_rng(config.seed + 1)

    order = sorted(range(len(train_utts)), key=lambda i: train_utts[i].utt_id)
    epoch_losses: list[float] = []
    log_lines: list[str] = []
    final_path = out_dir / "final.ckpt"
    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(len(order))
        sample_losses: list[float] = []
        for start in range(0, len(perm), config.batch_size):
            batch = [train_utts[order[i]] for i in perm[start:start + config.batch_size]]
            audio = np.stack([u.audio for u in batch])
            visual = np.stack([u.visual for u in batch])
            labels = np.array([speakers[u.speaker_id] for u in batch])
            for tensor in params:
                tensor.grad = None
            with Tape() as tape:
                losses = model.loss(audio, visual, labels)
                total = ad.sum_all(losses)
            values = losses.data.reshape(-1)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, utterance {batch[bad[0]].utt_id}"
                )
            tape.backward(total, seed=1.0 / len(batch))
            sample_losses.extend(values.tolist())
            optimizer.step()
        mean_loss = float(np.mean(sample_losses))
        epoch_losses.append(mean_loss)
        log_lines.append(f"epoch {epoch} loss {mean_loss!r}")
        model.quantize_single_precision()
        if keep_epoch_checkpoints:
            model.save(out_dir / f"epoch_{epoch:03d}.ckpt")
    model.save(final_path)
    log_path = out_dir / "train_log.txt"
    log_path.write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    return TrainResult(epoch_losses, final_path, log_path, model)
