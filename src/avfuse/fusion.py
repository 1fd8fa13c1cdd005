"""Cross-attention fusion of audio and visual segment features, one step body for every mode.

A fusion step correlates each modality against a key, gates a segment
recombination of the modality through ReLU, and adds the result back onto the
input (a residual connection); each modality's pass is the one fused
``ad.attend`` op.  The fusion modes differ in two things only, both picked by
``fuse``:

- each modality's key: joint cross-attention (``rjca``) attends the joint
  stack of both modalities, the two-way cross-attention baseline
  (``cross_attention``) only the other modality;
- the number of steps: ``rjca`` applies the step recursively, re-feeding the
  attended features as the next step's inputs (T steps, each with its own
  weights unless one set is shared); ``cross_attention`` runs one step, and
  ``concat`` none, leaving the plain joint stack.

``fuse`` returns only the joint stack the model reads, and leaves every
weight's shape check to ``ad.attend``.  Every function takes single
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
    last joint stack, (audio_dim + visual_dim, segments) per utterance.

    In a step, each modality's correlation with its key is squashed through
    tanh after 1/sqrt(key rows) scaling; the resulting segment-by-segment map
    gates a ReLU recombination of the modality, which is mixed and added
    residually onto the input, so all-zero weights reduce to the identity.
    ``rjca`` keys both modalities on the joint stack, ``cross_attention`` each
    on the other modality; ``concat`` takes no steps and returns the joint
    stack of the inputs.  A step adds 3 tape records (two ``attend`` and one
    stack), after the one of ``rjca``'s first joint stack.
    """
    if fusion not in FUSION_MODES:
        raise ConfigError(f"fusion must be one of {FUSION_MODES}, got {fusion!r}")
    if fusion == "concat" and steps:
        raise ConfigError(f"concat fusion takes no step weights, got {len(steps)}")
    if not steps and fusion != "concat":
        raise ConfigError(f"{fusion} fusion needs at least one step's weights")
    joint = None if fusion == "cross_attention" else ad.concat_rows(audio, visual)
    for params in steps:
        audio_key, visual_key = (visual, audio) if fusion == "cross_attention" else (joint, joint)
        audio, visual = (
            ad.attend(audio, audio_key, params.corr_proj_audio, params.attn_mix_audio,
                      params.out_mix_audio, 1.0 / math.sqrt(audio_key.shape[-2])),
            ad.attend(visual, visual_key, params.corr_proj_visual, params.attn_mix_visual,
                      params.out_mix_visual, 1.0 / math.sqrt(visual_key.shape[-2])))
        joint = ad.concat_rows(audio, visual)
    return joint


def score_level_fusion(audio_score, visual_score, weight: float = 0.5):
    """Convex combination of per-modality trial scores (floats or arrays of them)."""
    if not 0.0 <= weight <= 1.0:
        raise ConfigError(f"score fusion weight must lie in [0, 1], got {weight}")
    return weight * audio_score + (1.0 - weight) * visual_score

