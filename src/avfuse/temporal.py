"""Temporal modeling of fused segment features.

A single bidirectional LSTM layer runs over the segment axis as the one fused
``autodiff.blstm`` record: both directions advance in one time loop (step s
moves the forward direction to segment s and the backward direction to
segment L-1-s).  Its input projections are BLAS products into the gate
buffer, and all four gates of a step come from one tanh, the sigmoid gates
as 1/2 + tanh(z/2)/2; its hand-derived backward does full backpropagation
through time.  Attentive statistics pooling collapses the sequence into one
utterance-level vector: an attention-weighted mean concatenated with the
attention-weighted standard deviation, as the one fused
``autodiff.attentive_pool`` record with a hand-derived backward.  A final
affine projection produces the fixed-size embedding used for scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from avfuse import autodiff as ad
from avfuse.autodiff import ShapeError, Tensor
from avfuse.fusion import init_weight

# Floor inside the pooled-variance square root; keeps backward finite when a
# dimension has (near-)zero variance, e.g. single-segment inputs.
VARIANCE_FLOOR = 1e-8

FORGET_GATE_BIAS = 1.0  # positive init avoids early vanishing memory


@dataclass
class LstmDirectionParams:
    """One direction's gate weights, rows ordered input/forget/cell/output."""

    w_input: Tensor      # 4h x input_dim
    w_recurrent: Tensor  # 4h x h
    bias: Tensor         # 4h x 1

    @classmethod
    def init(cls, input_dim: int, hidden: int, rng: np.random.Generator) -> "LstmDirectionParams":
        bias = np.zeros((4 * hidden, 1))
        bias[hidden:2 * hidden] = FORGET_GATE_BIAS
        return cls(
            w_input=init_weight(rng, 4 * hidden, input_dim),
            w_recurrent=init_weight(rng, 4 * hidden, hidden),
            bias=Tensor(bias),
        )


@dataclass
class BlstmParams:
    """Independent forward and backward direction parameters, shared hidden size."""

    fw: LstmDirectionParams
    bw: LstmDirectionParams

    @classmethod
    def init(cls, input_dim: int, hidden: int, rng: np.random.Generator) -> "BlstmParams":
        return cls(
            fw=LstmDirectionParams.init(input_dim, hidden, rng),
            bw=LstmDirectionParams.init(input_dim, hidden, rng),
        )


def blstm_forward(x: Tensor, params: BlstmParams) -> Tensor:
    """Bidirectional pass over (input_dim, segments) -> (2h, segments), or a (B, ...) batch.

    Forward-direction outputs occupy the top h rows, backward the bottom h;
    initial states are zero in both directions.  The layer is the one fused
    ``ad.blstm`` op, so it adds one tape record whatever the length and batch
    size.
    """
    if x.ndim not in (2, 3):
        raise ShapeError(f"blstm_forward: rank-2 or rank-3 input required, got {x.shape}")
    fw, bw = params.fw, params.bw
    return ad.blstm(x, (fw.w_input, fw.w_recurrent, fw.bias), (bw.w_input, bw.w_recurrent, bw.bias))


@dataclass
class AspParams:
    """Attention scorer of the statistics pooling: e_t = score . tanh(proj h_t + bias)."""

    proj: Tensor   # bottleneck x input_dim
    bias: Tensor   # bottleneck x 1
    score: Tensor  # bottleneck x 1

    @classmethod
    def init(cls, input_dim: int, bottleneck: int, rng: np.random.Generator) -> "AspParams":
        return cls(
            proj=init_weight(rng, bottleneck, input_dim),
            bias=Tensor(np.zeros((bottleneck, 1))),
            score=init_weight(rng, bottleneck, 1),
        )


def asp(features: Tensor, params: AspParams) -> Tensor:
    """Attentive statistics pooling of (dim, segments) -> (2*dim, 1), or of a (B, ...) batch.

    Attention weights are a softmax over segments of a scored tanh bottleneck;
    the output stacks the weighted mean over the weighted standard deviation,
    whose variance is floored at VARIANCE_FLOOR.  The layer is the one fused
    ``ad.attentive_pool`` record.
    """
    return ad.attentive_pool(features, params.proj, params.bias, params.score, VARIANCE_FLOOR)


def attention_weights(features: Tensor, params: AspParams) -> np.ndarray:
    """Per-segment attention weights ``asp`` pools with, for inspection: (segments,) or (B, segments)."""
    _, weights = ad.pooling_attention(features.data, params.proj.data, params.bias.data,
                                      params.score.data)
    return weights[..., 0]


@dataclass
class EmbeddingProjection:
    """Affine map from pooled statistics to the final embedding."""

    weight: Tensor  # embed_dim x input_dim
    bias: Tensor    # embed_dim x 1

    @classmethod
    def init(cls, input_dim: int, embed_dim: int, rng: np.random.Generator) -> "EmbeddingProjection":
        return cls(
            weight=init_weight(rng, embed_dim, input_dim),
            bias=Tensor(np.zeros((embed_dim, 1))),
        )


def project_embedding(pooled: Tensor, params: EmbeddingProjection) -> Tensor:
    """pooled (input_dim, 1) -> embedding (embed_dim, 1), or the same over a (B, ...) batch."""
    return ad.add(ad.matmul(params.weight, pooled), params.bias)
