"""Full verification model: fusion -> optional BLSTM -> pooling -> embedding -> margin head.

The forward runs on one (dim, segments) utterance or on a (B, dim, segments)
mini-batch through the same ops.  The features are data: ``fuse`` takes them
as ``autodiff.Constant`` leaves, so a backward forms no gradient for them.

Parameters are built deterministically from a config and seed, exposed as a
flat name -> tensor mapping for checkpointing, and can be quantized through
the on-disk single precision so in-memory state matches a reloaded checkpoint
bit for bit.
"""

from __future__ import annotations

import numpy as np

from avfuse import autodiff as ad
from avfuse.autodiff import Constant, Tensor
from avfuse.checkpoint import CheckpointError, load_checkpoint, quantize_like_checkpoint, save_checkpoint
from avfuse.config import ConfigError, TrainConfig, config_to_text, parse_config_text
from avfuse.fusion import (
    CrossAttentionParams,
    JcaStepParams,
    cross_attention_step,
    joint_representation,
    rjca_forward,
)
from avfuse.objective import AamHead, aam_loss
from avfuse.temporal import AspParams, BlstmParams, EmbeddingProjection, asp, blstm_forward, project_embedding


class VerificationModel:
    """Trainable stack mapping a two-modality utterance to an embedding and a loss."""

    def __init__(self, config: TrainConfig, n_speakers: int, seed: int | None = None):
        if n_speakers < 1:
            raise ConfigError("n_speakers must be >= 1")
        self.config = config
        self.n_speakers = n_speakers
        rng = np.random.default_rng(config.seed if seed is None else seed)
        dims = (config.audio_dim, config.visual_dim, config.segments)

        self.fusion_steps: list[JcaStepParams] = []
        self.cross_params: CrossAttentionParams | None = None
        if config.fusion == "rjca":
            n_steps = 1 if config.share_fusion_weights else config.iterations
            self.fusion_steps = [JcaStepParams.init(*dims, rng) for _ in range(n_steps)]
        elif config.fusion == "cross_attention":
            self.cross_params = CrossAttentionParams.init(*dims, rng)
        # "concat" has no fusion parameters.

        fused_dim = config.audio_dim + config.visual_dim
        self.blstm: BlstmParams | None = None
        head_in = fused_dim
        if config.use_blstm:
            self.blstm = BlstmParams.init(fused_dim, config.blstm_hidden, rng)
            head_in = 2 * config.blstm_hidden
        self.asp = AspParams.init(head_in, config.asp_hidden, rng)
        self.projection = EmbeddingProjection.init(2 * head_in, config.embed_dim, rng)
        self.aam = AamHead.init(n_speakers, config.embed_dim, rng,
                                scale=config.aam_scale, margin=config.aam_margin)

    # -- forward ----------------------------------------------------------

    def fuse(self, audio: np.ndarray | Tensor, visual: np.ndarray | Tensor) -> Tensor:
        """The fusion stage.  Arrays and tensors alike enter it as constants."""
        audio, visual = (Constant(x.data if isinstance(x, Tensor) else x) for x in (audio, visual))
        if self.config.fusion == "rjca":
            steps = self.fusion_steps
            if self.config.share_fusion_weights:
                steps = steps * self.config.iterations
            return rjca_forward(audio, visual, steps).joint
        if self.config.fusion == "cross_attention":
            return cross_attention_step(audio, visual, self.cross_params).joint
        return joint_representation(audio, visual)

    def embed_tensors(self, audio: np.ndarray | Tensor, visual: np.ndarray | Tensor) -> Tensor:
        fused = self.fuse(audio, visual)
        if self.blstm is not None:
            fused = blstm_forward(fused, self.blstm)
        pooled = asp(fused, self.asp)
        return project_embedding(pooled, self.projection)

    def embed(self, audio: np.ndarray, visual: np.ndarray) -> np.ndarray:
        """Inference-path embedding (no tape required).

        One (dim, segments) utterance gives a flat float64 vector; a
        (B, dim, segments) batch gives a (B, embed_dim) matrix.
        """
        out = self.embed_tensors(audio, visual)
        return out.data[..., 0].copy()

    def loss(self, audio: np.ndarray, visual: np.ndarray, labels) -> Tensor:
        """Per-utterance losses: (1, 1) for one utterance and an int label,
        (B, 1, 1) for a (B, dim, segments) batch and B labels."""
        return aam_loss(self.embed_tensors(audio, visual), labels, self.aam)

    # -- parameter plumbing -------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        """Every parameter by checkpoint name: component prefix plus dataclass field path."""
        components = [(f"fusion.step{i}.", step) for i, step in enumerate(self.fusion_steps)]
        components += [("fusion.cross.", self.cross_params), ("blstm.", self.blstm),
                       ("asp.", self.asp), ("projection.", self.projection), ("aam.", self.aam)]
        params: dict[str, Tensor] = {}
        for prefix, component in components:
            if component is not None:
                params.update(ad.named_tensors(component, prefix))
        return params

    def quantize_single_precision(self) -> None:
        """Force parameters through storage precision (see checkpoint module)."""
        for tensor in self.named_parameters().values():
            tensor.data = quantize_like_checkpoint(tensor.data)

    # -- persistence ---------------------------------------------------------

    def _config_snapshot(self) -> str:
        return config_to_text(self.config) + f"n_speakers = {self.n_speakers}\n"

    def save(self, path) -> None:
        arrays = {name: t.data for name, t in self.named_parameters().items()}
        save_checkpoint(path, arrays, self._config_snapshot())

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        missing = sorted(set(params) - set(arrays))
        extra = sorted(set(arrays) - set(params))
        if missing or extra:
            raise ConfigError(f"checkpoint/model mismatch: missing {missing}, unexpected {extra}")
        for name, tensor in params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != tensor.shape:
                raise ConfigError(f"parameter {name}: shape {arr.shape} != expected {tensor.shape}")
            tensor.data = arr
            tensor.grad = None

    @classmethod
    def from_checkpoint(cls, path) -> "VerificationModel":
        arrays, config_text = load_checkpoint(path)
        try:
            model = cls(*parse_config_snapshot(config_text))
            model.load_state(arrays)
        except ConfigError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        return model


def parse_config_snapshot(text: str) -> tuple[TrainConfig, int]:
    """Split a checkpoint config snapshot into the TrainConfig and the speaker
    count, given on exactly one ``n_speakers`` line."""
    lines, counts = [], []
    for raw in text.splitlines():
        key, _, value = raw.split("#", 1)[0].partition("=")
        if key.strip() == "n_speakers":
            counts.append(value.strip())
        else:
            lines.append(raw)
    if len(counts) != 1:
        raise ConfigError(f"checkpoint config snapshot has {len(counts)} n_speakers lines, expected one")
    try:
        n_speakers = int(counts[0])
    except ValueError:
        raise ConfigError(f"n_speakers: expected an integer, got {counts[0]!r}") from None
    return TrainConfig(**parse_config_text("\n".join(lines))), n_speakers
