"""Joint cross-attention fusion of audio and visual segment features.

The core step correlates each modality against the joint (stacked) audio-visual
representation, gates a segment recombination of the modality through ReLU, and
adds the result back onto the input (a residual connection).  Applying the step
recursively re-feeds the attended features as the next step's inputs, refining
the representation; each recursion step owns its own weights by default.
Every attention pass, joint or two-way, is the one fused ``ad.attend`` op,
and every function takes single (dim, segments) utterances or
(B, dim, segments) batches alike.

Also provides the baseline fusion strategies used for ablations: score-level
averaging, plain feature concatenation, and two-way cross-attention where each
modality correlates directly against the other instead of the joint stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from avfuse import autodiff as ad
from avfuse.autodiff import ShapeError, Tensor
from avfuse.config import ConfigError


def init_weight(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Scaled-uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] keeping pre-activations O(1)."""
    bound = 1.0 / math.sqrt(cols)
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)))


@dataclass
class JcaStepParams:
    """Learnable weights of one joint cross-attention step.

    ``corr_proj_*`` map the joint representation into each modality's
    correlation space (modality_dim x joint_dim); ``attn_mix_*`` and
    ``out_mix_*`` recombine segments (segments x segments).
    """

    corr_proj_audio: Tensor
    corr_proj_visual: Tensor
    attn_mix_audio: Tensor
    attn_mix_visual: Tensor
    out_mix_audio: Tensor
    out_mix_visual: Tensor

    @staticmethod
    def shapes(audio_dim: int, visual_dim: int, segments: int) -> dict[str, tuple[int, int]]:
        """Shape of every weight, in field order (the order ``init`` draws them)."""
        joint, mix = audio_dim + visual_dim, (segments, segments)
        return {"corr_proj_audio": (audio_dim, joint), "corr_proj_visual": (visual_dim, joint),
                "attn_mix_audio": mix, "attn_mix_visual": mix,
                "out_mix_audio": mix, "out_mix_visual": mix}

    @classmethod
    def init(cls, audio_dim: int, visual_dim: int, segments: int,
             rng: np.random.Generator) -> "JcaStepParams":
        shapes = cls.shapes(audio_dim, visual_dim, segments)
        return cls(**{name: init_weight(rng, *shape) for name, shape in shapes.items()})

    def validate(self, audio_dim: int, visual_dim: int, segments: int) -> None:
        for name, shape in self.shapes(audio_dim, visual_dim, segments).items():
            actual = getattr(self, name).shape
            if actual != shape:
                raise ShapeError(f"fusion weight {name}: expected shape {shape}, got {actual}")


@dataclass
class FusedFeatures:
    """Attended per-modality features and their vertical concatenation."""

    audio: Tensor   # [B x] audio_dim x segments
    visual: Tensor  # [B x] visual_dim x segments
    joint: Tensor   # [B x] (audio_dim + visual_dim) x segments


def joint_representation(audio: Tensor, visual: Tensor) -> Tensor:
    """Stack audio over visual features; both must cover the same segments."""
    return ad.concat_rows(audio, visual)


def jca_step(audio: Tensor, visual: Tensor, params: JcaStepParams,
             joint: Tensor | None = None) -> FusedFeatures:
    """One joint cross-attention pass over both modalities.

    Correlation of each modality with the joint stack is squashed through tanh
    after 1/sqrt(joint_dim) scaling; the resulting segment-by-segment map gates
    a ReLU recombination of the modality, which is mixed and added residually
    onto the input.  All-zero weights therefore reduce to the identity.  Each
    modality's pass is one fused ``ad.attend`` record.  ``joint`` may be given
    when the caller already holds the stack of ``audio`` over ``visual``.
    Inputs are (dim, segments) matrices or (B, dim, segments) batches.
    """
    d_a, d_v = audio.shape[-2], visual.shape[-2]
    params.validate(d_a, d_v, audio.shape[-1])
    if joint is None:
        joint = joint_representation(audio, visual)
    inv_sqrt_d = 1.0 / math.sqrt(d_a + d_v)
    att_audio = ad.attend(audio, joint, params.corr_proj_audio, params.attn_mix_audio,
                          params.out_mix_audio, inv_sqrt_d)
    att_visual = ad.attend(visual, joint, params.corr_proj_visual, params.attn_mix_visual,
                           params.out_mix_visual, inv_sqrt_d)
    return FusedFeatures(att_audio, att_visual, ad.concat_rows(att_audio, att_visual))


def rjca_forward(audio: Tensor, visual: Tensor, step_params: Sequence[JcaStepParams]) -> FusedFeatures:
    """Recursive refinement: each step's attended outputs, and their joint stack, feed the next step.

    T steps add 3T + 1 tape records: the first joint stack, then two
    ``attend`` records and one stack per step.
    """
    if not step_params:
        raise ConfigError("rjca_forward needs at least one step's parameters")
    fused = None
    joint = None
    for params in step_params:
        fused = jca_step(audio, visual, params, joint)
        audio, visual, joint = fused.audio, fused.visual, fused.joint
    return fused


def correlation_maps(audio: Tensor, visual: Tensor, params: JcaStepParams) -> tuple[np.ndarray, np.ndarray]:
    """Forward-only segment correlation maps of one step (for inspection), from ``ad.attention_map``."""
    joint = np.concatenate([audio.data, visual.data], axis=-2)
    inv = 1.0 / math.sqrt(joint.shape[-2])
    return (ad.attention_map(audio.data, joint, params.corr_proj_audio.data, inv),
            ad.attention_map(visual.data, joint, params.corr_proj_visual.data, inv))


# ---------------------------------------------------------------------------
# Baseline fusion strategies (ablation comparisons)
# ---------------------------------------------------------------------------


@dataclass
class CrossAttentionParams:
    """Weights for the plain cross-attention baseline (no joint representation).

    Each modality correlates directly against the other, so ``cross_proj_*``
    map the opposite modality (modality_dim x opposite_dim).
    """

    cross_proj_audio: Tensor
    cross_proj_visual: Tensor
    attn_mix_audio: Tensor
    attn_mix_visual: Tensor
    out_mix_audio: Tensor
    out_mix_visual: Tensor

    @classmethod
    def init(cls, audio_dim: int, visual_dim: int, segments: int,
             rng: np.random.Generator) -> "CrossAttentionParams":
        return cls(
            cross_proj_audio=init_weight(rng, audio_dim, visual_dim),
            cross_proj_visual=init_weight(rng, visual_dim, audio_dim),
            attn_mix_audio=init_weight(rng, segments, segments),
            attn_mix_visual=init_weight(rng, segments, segments),
            out_mix_audio=init_weight(rng, segments, segments),
            out_mix_visual=init_weight(rng, segments, segments),
        )


def cross_attention_step(audio: Tensor, visual: Tensor, params: CrossAttentionParams) -> FusedFeatures:
    """Cross-attention baseline: correlate each modality with the other only.

    The same ``ad.attend`` body as ``jca_step`` with the other modality as the
    key; correlation scaling uses the other modality's feature dimension,
    since that is the contraction depth here.
    """
    d_a, d_v = audio.shape[-2], visual.shape[-2]
    att_audio = ad.attend(audio, visual, params.cross_proj_audio, params.attn_mix_audio,
                          params.out_mix_audio, 1.0 / math.sqrt(d_v))
    att_visual = ad.attend(visual, audio, params.cross_proj_visual, params.attn_mix_visual,
                           params.out_mix_visual, 1.0 / math.sqrt(d_a))
    return FusedFeatures(att_audio, att_visual, ad.concat_rows(att_audio, att_visual))


def score_level_fusion(audio_score, visual_score, weight: float = 0.5):
    """Convex combination of per-modality trial scores (floats or arrays of them)."""
    if not 0.0 <= weight <= 1.0:
        raise ConfigError(f"score fusion weight must lie in [0, 1], got {weight}")
    return weight * audio_score + (1.0 - weight) * visual_score

