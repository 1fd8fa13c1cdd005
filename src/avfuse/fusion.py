"""Cross-attention fusion of audio and visual segment features, one step body for every stage.

A fusion step correlates each modality against a key, gates a segment
recombination of the modality through ReLU, and adds the result back onto the
input (a residual connection).  Every stage, one with no steps too, is one
call of the fused ``ad.attention_fusion`` op.  A stage is its steps and its
key rule, nothing else:

- each modality's key: the joint stack of both modalities by default, or with
  ``cross`` only the other modality;
- the steps: applied in turn, each re-feeding the attended features as the
  next step's inputs; with none the stage is the plain joint stack.

The model picks the fusion mode and maps it to both (``VerificationModel``):
joint cross-attention (``rjca``) runs T joint-key steps, the cross-attention
baseline one ``cross`` step, and concatenation none.  ``fuse`` returns only the
joint stack the model reads, and leaves every weight's shape check to
``ad.attention_fusion``.  Every function takes single (dim, segments)
utterances or (B, dim, segments) batches alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from avfuse import autodiff as ad
from avfuse.autodiff import Tensor


def init_weight(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Scaled-uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] keeping pre-activations O(1)."""
    bound = 1.0 / math.sqrt(cols)
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)))


@dataclass
class JcaStepParams:
    """Learnable weights of one fusion step.

    ``corr_proj_*`` map each modality's key into its correlation space
    (modality_dim x key_dim): the key is the joint stack (audio_dim +
    visual_dim rows), or with ``cross`` the other modality.  ``attn_mix_*``
    and ``out_mix_*`` recombine segments (segments x segments).
    """

    corr_proj_audio: Tensor
    corr_proj_visual: Tensor
    attn_mix_audio: Tensor
    attn_mix_visual: Tensor
    out_mix_audio: Tensor
    out_mix_visual: Tensor

    @staticmethod
    def shapes(audio_dim: int, visual_dim: int, segments: int,
               cross: bool = False) -> dict[str, tuple[int, int]]:
        """Shape of every weight, in field order (the order ``init`` draws them)."""
        audio_key, visual_key = (visual_dim, audio_dim) if cross else (audio_dim + visual_dim,) * 2
        mix = (segments, segments)
        return {"corr_proj_audio": (audio_dim, audio_key), "corr_proj_visual": (visual_dim, visual_key),
                "attn_mix_audio": mix, "attn_mix_visual": mix,
                "out_mix_audio": mix, "out_mix_visual": mix}

    @classmethod
    def init(cls, audio_dim: int, visual_dim: int, segments: int,
             rng: np.random.Generator, cross: bool = False) -> "JcaStepParams":
        shapes = cls.shapes(audio_dim, visual_dim, segments, cross)
        return cls(**{name: init_weight(rng, *shape) for name, shape in shapes.items()})


def fuse(audio: Tensor, visual: Tensor, steps: Sequence[JcaStepParams], cross: bool = False) -> Tensor:
    """The fusion stage: ``steps`` applied in turn, each step's attended
    features, and their joint stack, feeding the next; each modality's key is
    the joint stack, or with ``cross`` the other modality.  Returns the last
    joint stack, (audio_dim + visual_dim, segments) per utterance; all-zero
    weights make each step the identity, and no steps leave the joint stack of
    the inputs.  One call of ``ad.attention_fusion``: one tape record at any
    depth, zero included.
    """
    weights = [(p.corr_proj_audio, p.attn_mix_audio, p.out_mix_audio,
                p.corr_proj_visual, p.attn_mix_visual, p.out_mix_visual) for p in steps]
    return ad.attention_fusion(audio, visual, weights, cross)
