"""Angular-margin classification objective and cosine trial scoring.

The loss places both the embedding and every class weight row on the unit
sphere, adds a fixed angular margin to the target class angle, scales all
cosines, and applies softmax cross-entropy.  Margin zero reduces exactly to
scaled-softmax cross-entropy.  The whole head is one fused autodiff op with a
hand-derived backward.  Trial scoring is the cosine between two
utterance embeddings taken before this head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from avfuse import autodiff as ad
from avfuse.autodiff import Tensor
from avfuse.config import ConfigError, TrainConfig
from avfuse.fusion import init_weight


class NormalizationError(ValueError):
    """A vector that must be normalized has zero length."""


@dataclass
class AamHead:
    """Class weights and margin hyperparameters of the angular-margin loss.

    Weight rows are used in unit-normalized form; ``scale`` sharpens the
    softmax and ``margin`` (radians) penalizes the target angle.
    """

    weights: Tensor  # n_classes x embed_dim
    scale: float = TrainConfig.aam_scale
    margin: float = TrainConfig.aam_margin

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise ConfigError("scale must lie in (0, inf)")
        if not 0.0 <= self.margin < math.pi / 2:
            raise ConfigError("margin must lie in [0, pi/2)")

    @classmethod
    def init(cls, n_classes: int, embed_dim: int, rng: np.random.Generator,
             scale: float = TrainConfig.aam_scale, margin: float = TrainConfig.aam_margin) -> "AamHead":
        return cls(weights=init_weight(rng, n_classes, embed_dim), scale=scale, margin=margin)

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]


def aam_loss(embedding: Tensor, label, head: AamHead) -> Tensor:
    """Margin-penalized softmax cross-entropy per embedding.

    An (embed_dim, 1) embedding with an int label gives a (1, 1) loss; a
    (B, embed_dim, 1) batch with B labels gives the B per-utterance losses as
    (B, 1, 1).  The target logit is scale * cos(angle + margin), expanded as
    cos*cos(margin) - sin*sin(margin) with sin from the clamped cosine; once
    angle + margin reaches pi it is scale * (cos - margin * sin(pi - margin))
    (the ArcFace fallback), so it never rises as the angle grows.  Non-target
    logits are scale * cos.  Gradients flow through both normalizations and
    the margin path.  After the checks here, the head is the one fused
    ``ad.aam_cross_entropy`` record.
    """
    n = head.n_classes
    labels = np.asarray(label)
    if embedding.ndim not in (2, 3) or embedding.shape[-1] != 1:
        raise ad.ShapeError(f"aam_loss: expected (embed_dim, 1) embeddings, got {embedding.shape}")
    if labels.shape != embedding.shape[:-2] or labels.dtype.kind not in "iu":
        raise ConfigError(f"aam_loss: need one integer label per embedding, got {label!r}")
    if ((labels < 0) | (labels >= n)).any():
        raise ConfigError(f"label {label} out of range for {n} classes")
    if not np.linalg.norm(embedding.data, axis=-2).all():
        raise NormalizationError("aam_loss: zero-norm embedding")
    if (np.linalg.norm(head.weights.data, axis=1) == 0.0).any():
        raise NormalizationError("aam_loss: zero-norm class weight row")

    return ad.aam_cross_entropy(embedding, head.weights, labels, head.scale, head.margin)


def cosine_score(enroll: np.ndarray, test: np.ndarray) -> float:
    """Cosine similarity of two embedding vectors, in [-1, 1]."""
    a = np.asarray(enroll, dtype=np.float64).reshape(-1)
    b = np.asarray(test, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ad.ShapeError(f"cosine_score: dimension mismatch {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise NormalizationError("cosine_score: zero-norm embedding")
    return float(np.dot(a / na, b / nb))
