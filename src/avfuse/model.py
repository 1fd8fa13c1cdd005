"""Full verification model: fusion -> optional BLSTM -> pooling -> embedding -> margin head.

The forward runs on one (dim, segments) utterance or on a (B, dim, segments)
mini-batch through the same ops, and refuses features off ``input_shapes``, the
config's dims and segment count; ``check_shapes`` names the first utterance off
them.  The features are data: ``fuse`` takes them as ``autodiff.Constant``
leaves, so a backward forms no gradient for them.
Every fusion mode runs one fusion stage (``fusion.fuse``); only the model maps
the mode to the stage's steps and key rule: T joint-key steps for RJCA (one set
of weights repeated T times when shared), one ``cross`` step for the
cross-attention baseline, none for plain concatenation.  On a tape, ``loss``
is 5 records for every fusion mode and depth, 4 without the BLSTM.

Parameters are built deterministically from a config and seed and exposed as a
flat name -> tensor mapping for checkpointing; ``save`` holds them as stored, so
the model in memory equals a reload of its last checkpoint bit for bit.
"""

from __future__ import annotations

import numpy as np

from avfuse import autodiff as ad
from avfuse.autodiff import Constant, ShapeError, Tensor
from avfuse.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from avfuse.config import FIELD_TYPES, ConfigError, TrainConfig, config_to_text, parse_config_text
from avfuse.fusion import JcaStepParams, fuse
from avfuse.objective import AamHead, aam_loss
from avfuse.temporal import AspParams, BlstmParams, EmbeddingProjection, asp, blstm_forward, project_embedding


class VerificationModel:
    """Trainable stack mapping a two-modality utterance to an embedding and a loss."""

    def __init__(self, config: TrainConfig, n_speakers: int):
        if n_speakers < 1:
            raise ConfigError("n_speakers must be >= 1")
        self.config = config
        self.n_speakers = n_speakers
        rng = np.random.default_rng(config.seed)
        dims = (config.audio_dim, config.visual_dim, config.segments)
        self.input_shapes = ((config.audio_dim, config.segments), (config.visual_dim, config.segments))

        # The fusion mode as the stage's steps, in the order they run, and key
        # rule; shared weights are one JcaStepParams repeated, drawn once.
        n_steps = {"rjca": config.iterations, "cross_attention": 1, "concat": 0}[config.fusion]
        self.cross = config.fusion == "cross_attention"
        n_weights = min(n_steps, 1) if config.share_fusion_weights else n_steps
        self.fusion_steps = [JcaStepParams.init(*dims, rng, self.cross) for _ in range(n_weights)]
        if config.share_fusion_weights:
            self.fusion_steps *= n_steps

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
        """The fusion stage.  Arrays and tensors alike enter it as constants, and
        their last two axes, checked before they are wrapped, must be the config's (dim, segments)."""
        audio, visual = (x.data if isinstance(x, Tensor) else x for x in (audio, visual))
        for name, x, shape in zip(("audio", "visual"), (audio, visual), self.input_shapes):
            if np.shape(x)[-2:] != shape:
                raise ShapeError(f"{name} features of shape {np.shape(x)} do not match the model's "
                                 f"({name}_dim, segments) = {shape}")
        return fuse(Constant(audio), Constant(visual), self.fusion_steps, self.cross)

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
        """Every parameter by checkpoint name: component prefix plus dataclass field path.

        Each distinct fusion step is ``fusion.step<i>.``, numbered in running order.
        """
        distinct_steps = {id(step): step for step in self.fusion_steps}.values()
        components = [(f"fusion.step{i}.", step) for i, step in enumerate(distinct_steps)]
        components += [("blstm.", self.blstm), ("asp.", self.asp),
                       ("projection.", self.projection), ("aam.", self.aam)]
        params: dict[str, Tensor] = {}
        for prefix, component in components:
            if component is not None:
                params.update(ad.named_tensors(component, prefix))
        return params

    # -- persistence ---------------------------------------------------------

    def _config_snapshot(self) -> str:
        return config_to_text(self.config) + f"n_speakers = {self.n_speakers}\n"

    def save(self, path) -> None:
        """Write the checkpoint, then load the parameters as stored, so the model equals a reload
        of its file; a parameter that cannot be stored raises ``CheckpointError``, writing nothing."""
        arrays = {name: t.data for name, t in self.named_parameters().items()}
        self.load_state(save_checkpoint(path, arrays, self._config_snapshot()))

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


def check_shapes(utterances, shapes) -> None:
    """Refuse, naming it, the first of the ``featio.Utterance``s whose audio or visual features
    are not of the ``(audio, visual)`` shapes: a model's ``input_shapes``, or a first utterance's."""
    for u in utterances:
        for name, x, shape in zip(("audio", "visual"), (u.audio, u.visual), shapes):
            if x.shape != shape:
                raise ConfigError(f"utterance {u.utt_id}: {name} features of shape {x.shape} "
                                  f"do not match {shape}")


def parse_config_snapshot(text: str) -> tuple[TrainConfig, int]:
    """A checkpoint config snapshot's TrainConfig and speaker count, read by the config parser
    with ``n_speakers`` as one more key, which the snapshot must give."""
    values = parse_config_text(text, {**FIELD_TYPES, "n_speakers": "int"})
    n_speakers = values.pop("n_speakers", None)
    if n_speakers is None:
        raise ConfigError("checkpoint config snapshot has no n_speakers line")
    return TrainConfig(**values), n_speakers
