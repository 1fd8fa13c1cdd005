"""Cross-attention fusion of audio and visual segment features, one step body for every mode.

A fusion step correlates each modality against a key, gates a segment
recombination of the modality through ReLU, and adds the result back onto the
input (a residual connection).  Every mode's stage, ``concat``'s zero steps
too, is one call of the fused ``ad.attention_fusion`` op.  The fusion modes
differ in two things only, both picked by ``fuse``:

- each modality's key: joint cross-attention (``rjca``) attends the joint
  stack of both modalities, the two-way cross-attention baseline
  (``cross_attention``) only the other modality;
- the number of steps: ``rjca`` applies the step recursively, re-feeding the
  attended features as the next step's inputs (T steps, each with its own
  weights unless one set is shared); ``cross_attention`` runs one step, and
  ``concat`` none, leaving the plain joint stack.

``fuse`` returns only the joint stack the model reads, and leaves every
weight's shape check to ``ad.attention_fusion``.  Every function takes single
(dim, segments) utterances or (B, dim, segments) batches alike.
Score-level averaging, the other ablation baseline, is here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from avfuse import autodiff as ad
from avfuse.autodiff import Tensor
from avfuse.config import FUSION_MODES, ConfigError


def init_weight(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Scaled-uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] keeping pre-activations O(1)."""
    bound = 1.0 / math.sqrt(cols)
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)))


@dataclass
class JcaStepParams:
    """Learnable weights of one fusion step, in any fusion mode.

    ``corr_proj_*`` map each modality's key into its correlation space
    (modality_dim x key_dim); the fusion mode sets the key: the joint stack
    (audio_dim + visual_dim rows) for ``rjca``, the other modality for
    ``cross_attention``.  ``attn_mix_*`` and ``out_mix_*`` recombine segments
    (segments x segments).
    """

    corr_proj_audio: Tensor
    corr_proj_visual: Tensor
    attn_mix_audio: Tensor
    attn_mix_visual: Tensor
    out_mix_audio: Tensor
    out_mix_visual: Tensor

    @staticmethod
    def shapes(audio_dim: int, visual_dim: int, segments: int,
               fusion: str = "rjca") -> dict[str, tuple[int, int]]:
        """Shape of every weight, in field order (the order ``init`` draws them)."""
        key_dims = {"rjca": (audio_dim + visual_dim,) * 2, "cross_attention": (visual_dim, audio_dim)}
        if fusion not in key_dims:
            raise ConfigError(f"fusion mode {fusion!r} has no step weights")
        audio_key, visual_key = key_dims[fusion]
        mix = (segments, segments)
        return {"corr_proj_audio": (audio_dim, audio_key), "corr_proj_visual": (visual_dim, visual_key),
                "attn_mix_audio": mix, "attn_mix_visual": mix,
                "out_mix_audio": mix, "out_mix_visual": mix}

    @classmethod
    def init(cls, audio_dim: int, visual_dim: int, segments: int,
             rng: np.random.Generator, fusion: str = "rjca") -> "JcaStepParams":
        shapes = cls.shapes(audio_dim, visual_dim, segments, fusion)
        return cls(**{name: init_weight(rng, *shape) for name, shape in shapes.items()})


def fuse(fusion: str, audio: Tensor, visual: Tensor, steps: Sequence[JcaStepParams]) -> Tensor:
    """The fusion stage of every mode: ``steps`` applied in turn, each step's
    attended features, and their joint stack, feeding the next.  Returns the
    last joint stack, (audio_dim + visual_dim, segments) per utterance; all-zero
    weights make each step the identity.  Every mode is one call of
    ``ad.attention_fusion``, one tape record at any depth unless both inputs
    are constants; ``concat`` takes no steps, so its output is the joint stack
    of the inputs.
    """
    if fusion not in FUSION_MODES:
        raise ConfigError(f"fusion must be one of {FUSION_MODES}, got {fusion!r}")
    if fusion == "concat" and steps:
        raise ConfigError(f"concat fusion takes no step weights, got {len(steps)}")
    if fusion != "concat" and not steps:
        raise ConfigError(f"{fusion} fusion needs at least one step's weights")
    weights = [(p.corr_proj_audio, p.attn_mix_audio, p.out_mix_audio,
                p.corr_proj_visual, p.attn_mix_visual, p.out_mix_visual) for p in steps]
    return ad.attention_fusion(audio, visual, weights, cross=fusion == "cross_attention")


def score_level_fusion(audio_score, visual_score, weight: float):
    """Convex combination of per-modality trial scores (floats or arrays of them)."""
    if not 0.0 <= weight <= 1.0:
        raise ConfigError(f"score fusion weight must lie in [0, 1], got {weight}")
    return weight * audio_score + (1.0 - weight) * visual_score

