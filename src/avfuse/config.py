"""Training configuration: typed fields, flat `key = value` files, overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path


class ConfigError(ValueError):
    """Invalid model, data or run configuration."""


FUSION_MODES = ("rjca", "concat", "cross_attention")
OPTIMIZERS = ("adam", "momentum")


@dataclass
class TrainConfig:
    """Everything a training or evaluation run needs besides the data paths."""

    audio_dim: int = 16
    visual_dim: int = 16
    segments: int = 8
    iterations: int = 3
    use_blstm: bool = True
    share_fusion_weights: bool = False
    fusion: str = "rjca"
    blstm_hidden: int = 64
    asp_hidden: int = 64
    embed_dim: int = 128
    aam_scale: float = 30.0
    aam_margin: float = 0.2
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    momentum: float = 0.9
    batch_size: int = 16
    epochs: int = 20
    seed: int = 1234
    score_fusion_weight: float = 0.5

    def __post_init__(self):
        for name in ("audio_dim", "visual_dim", "segments", "iterations",
                     "blstm_hidden", "asp_hidden", "embed_dim", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.fusion not in FUSION_MODES:
            raise ConfigError(f"fusion must be one of {FUSION_MODES}, got {self.fusion!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ConfigError("learning_rate must lie in [0, inf)")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not 0.0 <= self.score_fusion_weight <= 1.0:
            raise ConfigError("score_fusion_weight must lie in [0, 1]")


_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}


def _parse_value(name: str, raw: str):
    # Field types are the annotation strings (``from __future__ import annotations``).
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected an integer, got {raw!r}") from None
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected a number, got {raw!r}") from None
    return raw


def parse_config_text(text: str) -> dict:
    """Parse flat `key = value` lines; '#' starts a comment.  A key may be given once."""
    values, seen_on = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in seen_on:
            raise ConfigError(f"config line {lineno}: key {key!r} already set on line {seen_on[key]}")
        seen_on[key] = lineno
        values[key] = _parse_value(key, value)
    return values


def config_to_text(config: TrainConfig) -> str:
    """Canonical serialization: sorted keys, repr floats, lowercase booleans."""
    lines = []
    for name in sorted(_FIELD_TYPES):
        value = getattr(config, name)
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{name} = {rendered}")
    return "\n".join(lines) + "\n"


def load_config(path, overrides: dict[str, str]) -> TrainConfig:
    """Defaults <- config file (if any) <- unparsed ``train`` flag strings, in increasing priority."""
    values: dict = {}
    if path is not None:
        try:
            values.update(parse_config_text(Path(path).read_text(encoding="utf-8")))
        except (ConfigError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    values.update((key, _parse_value(key, value)) for key, value in overrides.items())
    return TrainConfig(**values)
