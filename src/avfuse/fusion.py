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


class ConfigError(ValueError):
    """Invalid model or fusion configuration."""


@dataclass
class RjcaConfig:
    """Dimensions and switches of the recursive fusion stack."""

    audio_dim: int
    visual_dim: int
    segments: int
    iterations: int = 3
    share_weights: bool = False

    def __post_init__(self):
        for name in ("audio_dim", "visual_dim", "segments"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")

    @property
    def joint_dim(self) -> int:
        return self.audio_dim + self.visual_dim


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

    @classmethod
    def init(cls, config: RjcaConfig, rng: np.random.Generator) -> "JcaStepParams":
        d_a, d_v, d, L = config.audio_dim, config.visual_dim, config.joint_dim, config.segments
        return cls(
            corr_proj_audio=init_weight(rng, d_a, d),
            corr_proj_visual=init_weight(rng, d_v, d),
            attn_mix_audio=init_weight(rng, L, L),
            attn_mix_visual=init_weight(rng, L, L),
            out_mix_audio=init_weight(rng, L, L),
            out_mix_visual=init_weight(rng, L, L),
        )

    @classmethod
    def zeros(cls, config: RjcaConfig) -> "JcaStepParams":
        d_a, d_v, d, L = config.audio_dim, config.visual_dim, config.joint_dim, config.segments
        return cls(
            corr_proj_audio=Tensor(np.zeros((d_a, d))),
            corr_proj_visual=Tensor(np.zeros((d_v, d))),
            attn_mix_audio=Tensor(np.zeros((L, L))),
            attn_mix_visual=Tensor(np.zeros((L, L))),
            out_mix_audio=Tensor(np.zeros((L, L))),
            out_mix_visual=Tensor(np.zeros((L, L))),
        )

    def tensors(self) -> dict[str, Tensor]:
        return {
            "corr_proj_audio": self.corr_proj_audio,
            "corr_proj_visual": self.corr_proj_visual,
            "attn_mix_audio": self.attn_mix_audio,
            "attn_mix_visual": self.attn_mix_visual,
            "out_mix_audio": self.out_mix_audio,
            "out_mix_visual": self.out_mix_visual,
        }

    def validate(self, audio_dim: int, visual_dim: int, segments: int) -> None:
        d = audio_dim + visual_dim
        expected = {
            "corr_proj_audio": (audio_dim, d),
            "corr_proj_visual": (visual_dim, d),
            "attn_mix_audio": (segments, segments),
            "attn_mix_visual": (segments, segments),
            "out_mix_audio": (segments, segments),
            "out_mix_visual": (segments, segments),
        }
        for name, shape in expected.items():
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
    def init(cls, config: RjcaConfig, rng: np.random.Generator) -> "CrossAttentionParams":
        d_a, d_v, L = config.audio_dim, config.visual_dim, config.segments
        return cls(
            cross_proj_audio=init_weight(rng, d_a, d_v),
            cross_proj_visual=init_weight(rng, d_v, d_a),
            attn_mix_audio=init_weight(rng, L, L),
            attn_mix_visual=init_weight(rng, L, L),
            out_mix_audio=init_weight(rng, L, L),
            out_mix_visual=init_weight(rng, L, L),
        )

    def tensors(self) -> dict[str, Tensor]:
        return {
            "cross_proj_audio": self.cross_proj_audio,
            "cross_proj_visual": self.cross_proj_visual,
            "attn_mix_audio": self.attn_mix_audio,
            "attn_mix_visual": self.attn_mix_visual,
            "out_mix_audio": self.out_mix_audio,
            "out_mix_visual": self.out_mix_visual,
        }


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


def baseline_fuse(mode: str, **kwargs):
    """Dispatch a baseline fusion strategy by name.

    Modes: ``score_level`` (audio_score, visual_score, weight), ``concat``
    (audio, visual), ``cross_attention`` (audio, visual, params).
    """
    if mode == "score_level":
        return score_level_fusion(
            kwargs["audio_score"], kwargs["visual_score"], kwargs.get("weight", 0.5)
        )
    if mode == "concat":
        audio, visual = kwargs["audio"], kwargs["visual"]
        return FusedFeatures(audio, visual, joint_representation(audio, visual))
    if mode == "cross_attention":
        return cross_attention_step(kwargs["audio"], kwargs["visual"], kwargs["params"])
    raise ConfigError(f"unknown fusion mode {mode!r}")
