"""Mini-batch training of the verification model on the margin objective.

One tape per mini-batch: the batch's features are stacked into
(B, dim, segments) arrays and run through one forward, which returns the B
per-utterance losses; one backward of their sum, seeded 1/B, leaves the
batch-mean gradient in every parameter.  A non-finite loss raises a
DivergenceError naming its utterance.  The optimizer keeps all its state in
one flat array and owns each batch's gradients: it gathers them into one row,
screens the row's sum for NaN or Inf (only a non-finite sum pays for the
per-parameter scan that names the parameter and refuses the step with a
DivergenceError), runs its update formula once over whole rows, subtracts
each parameter's slice in place and releases every gradient.
Everything is driven by one seeded generator, so a fixed config reproduces
the loss log and checkpoints exactly.  Each epoch ends by saving
``epoch_NNN.ckpt``, so the model holds its parameters as stored (one beyond
storage precision is a DivergenceError naming that checkpoint), and rewriting
``train_log.txt`` with one more line, so the log matches the checkpoints on disk
even when a later epoch stops the run.  A checkpoint in the output directory
that the run would not overwrite is refused before anything is written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from avfuse import autodiff as ad
from avfuse.autodiff import Tape, Tensor
from avfuse.checkpoint import CheckpointError
from avfuse.config import ConfigError, TrainConfig
from avfuse.featio import Utterance, refuse_unnamed, replace_file
from avfuse.model import VerificationModel, check_shapes


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss, parameter gradient or stored parameter."""


class Optimizer:
    """Adaptive-moment (Kingma & Ba, 2015) or classical-momentum gradient descent
    over one flat state.

    All state is one ``(4, n)`` array over every parameter in order, plus
    ``step_count``: its rows are the moments ``m`` and ``v``, the gathered
    gradient and a scratch row; ``_grads`` views the gradient row per
    parameter.  A step owns one batch's gradients.  It copies them into the
    gradient row and screens the row's sum: a NaN or Inf entry makes the sum
    non-finite, so a finite sum proves every entry finite, and only a
    non-finite one (finite gradients whose sum overflows give one too) scans
    the views for the parameter to name in a ``DivergenceError``.  Op results
    are not checked for finiteness, so this is what keeps a non-finite gradient
    from reaching the parameters.  That error, or the ``TypeError`` of a None
    gradient, comes before any moment, parameter or ``step_count`` changes.
    The step then runs the update formula once over whole rows, writing the
    update over the gradient it no longer needs, subtracts each parameter's
    slice in place and sets every ``.grad`` to None, so the next backward
    starts from none.  The formulas are elementwise and keep the per-parameter
    operation order, so the bits are those of a per-parameter update; a step
    allocates nothing.
    """

    def __init__(self, named_params: dict[str, Tensor], config: TrainConfig):
        self.named_params = named_params
        self.kind = config.optimizer
        self.lr = config.learning_rate
        self.momentum = config.momentum
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.step_count = 0
        params = named_params.values()
        offsets = np.cumsum([0] + [p.data.size for p in params]).tolist()
        self._flat = np.zeros((4, offsets[-1]))  # rows m, v, the gathered gradient, scratch
        self._grads = [self._flat[2, lo:hi].reshape(p.data.shape)
                       for p, lo, hi in zip(params, offsets, offsets[1:])]

    def step(self) -> None:
        """Screen the gathered gradients, update every parameter and release its gradient."""
        params = self.named_params.values()
        for p, grad in zip(params, self._grads):
            np.copyto(grad, p.grad)
        m, v, grad, a = self._flat
        with np.errstate(over="ignore", invalid="ignore"):
            total = grad.sum()
        if not np.isfinite(total):
            for name, g in zip(self.named_params, self._grads):
                if not np.isfinite(g).all():
                    raise DivergenceError(
                        f"non-finite gradient at step {self.step_count + 1}, parameter {name}")
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
        for p, update in zip(params, self._grads):
            np.subtract(p.data, update, out=p.data)
            p.grad = None


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


def train(config: TrainConfig, train_utts: list[Utterance], out_dir) -> TrainResult:
    """Optimize the full stack on the given utterances; see module docstring."""
    if not train_utts:
        raise ConfigError("no training utterances")
    speakers = speaker_index_map(train_utts)
    model = VerificationModel(config, n_speakers=len(speakers))
    check_shapes(train_utts, model.input_shapes)
    optimizer = Optimizer(model.named_parameters(), config)
    out_dir = Path(out_dir)
    names = [f"epoch_{epoch:03d}.ckpt" for epoch in range(config.epochs)] + ["final.ckpt"]
    refuse_unnamed(out_dir, ".ckpt", names, "checkpoint not named by this run; train into an empty directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    shuffle_rng = np.random.default_rng(config.seed + 1)

    order = sorted(range(len(train_utts)), key=lambda i: train_utts[i].utt_id)
    epoch_losses: list[float] = []
    log = ""
    log_path = out_dir / "train_log.txt"
    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(len(order))
        sample_losses: list[float] = []
        for start in range(0, len(perm), config.batch_size):
            batch = [train_utts[order[i]] for i in perm[start:start + config.batch_size]]
            audio = np.stack([u.audio for u in batch])
            visual = np.stack([u.visual for u in batch])
            labels = np.array([speakers[u.speaker_id] for u in batch])
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
        try:
            model.save(out_dir / names[epoch])
        except CheckpointError as exc:
            raise DivergenceError(f"epoch {epoch}: {exc}") from None
        log += f"epoch {epoch} loss {mean_loss!r}\n"
        replace_file(log_path, log.encode("utf-8"))
    final_path = out_dir / names[-1]
    model.save(final_path)
    return TrainResult(epoch_losses, final_path, log_path, model)
