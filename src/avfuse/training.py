"""Mini-batch training of the verification model on the margin objective.

One tape per mini-batch: the batch's features are stacked into
(B, dim, segments) arrays and run through one forward, which returns the B
per-utterance losses; one backward of their sum, seeded 1/B, leaves the
batch-mean gradient in the parameters.  A non-finite loss raises a
DivergenceError naming its utterance, and the optimizer step is refused with
one if any gradient is NaN or Inf; one sum per gradient screens for that, and
only a non-finite total pays for the scan that names the parameter.  The
optimizer updates parameters and moments in place.  Everything is driven by
one seeded generator, so a fixed config reproduces the loss log and
checkpoints exactly.
Parameters pass through checkpoint precision at every epoch boundary, keeping
the in-memory model identical to its last saved checkpoint.
"""

from __future__ import annotations

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
    """Adaptive-moment or classical-momentum gradient descent.

    Moments and parameters are updated in place.  The temporaries of one
    update live in two scratch buffers sized to the largest parameter and
    shared by all of them, so a step allocates nothing.
    """

    def __init__(self, params: list[Tensor], config: TrainConfig):
        self.params = params
        self.kind = config.optimizer
        self.lr = config.learning_rate
        self.momentum = config.momentum
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]
        largest = max((p.data.size for p in params), default=0)
        buffers = (np.empty(largest), np.empty(largest))
        self._scratch = [tuple(buf[:p.data.size].reshape(p.data.shape) for buf in buffers) for p in params]

    def step(self) -> None:
        self.step_count += 1
        correct1 = 1 - self.beta1 ** self.step_count
        correct2 = 1 - self.beta2 ** self.step_count
        for p, m, v, (a, b) in zip(self.params, self._m, self._v, self._scratch):
            grad, data = p.grad, p.data
            if grad is None:
                continue
            if self.kind == "adam":
                # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
                np.multiply(m, self.beta1, out=m)
                np.add(m, np.multiply(grad, 1 - self.beta1, out=a), out=m)
                np.multiply(v, self.beta2, out=v)
                np.multiply(grad, 1 - self.beta2, out=a)
                np.add(v, np.multiply(a, grad, out=a), out=v)
                # data -= lr (m / correct1) / (sqrt(v / correct2) + eps)
                np.add(np.sqrt(np.divide(v, correct2, out=b), out=b), self.eps, out=b)
                np.multiply(np.divide(m, correct1, out=a), self.lr, out=a)
                np.subtract(data, np.divide(a, b, out=a), out=data)
            else:
                np.add(np.multiply(m, self.momentum, out=m), grad, out=m)
                np.subtract(data, np.multiply(m, self.lr, out=a), out=data)


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


def _check_finite_gradients(named_params: dict[str, Tensor], epoch: int) -> None:
    """Raise DivergenceError naming the first parameter whose gradient is NaN or Inf.

    Op results are not checked for finiteness, so this is what keeps a
    non-finite gradient from reaching the parameters.  One sum per gradient
    screens them all: a NaN or Inf entry makes the total non-finite, so a
    finite total proves every entry finite.  Only a non-finite total, which
    finite gradients also give when their sum overflows, runs the
    per-parameter scan that names the culprit.
    """
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for tensor in named_params.values():
            if tensor.grad is not None:
                total += tensor.grad.sum()
    if np.isfinite(total):
        return
    for name, tensor in named_params.items():
        if tensor.grad is not None and not np.isfinite(tensor.grad).all():
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
    optimizer = Optimizer(list(named_params.values()), config)
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
            model.zero_grads()
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
            _check_finite_gradients(named_params, epoch)
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
