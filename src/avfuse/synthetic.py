"""Desk-scale synthetic verification data with a shared latent identity.

Each speaker draws a latent identity vector; utterance features are fixed
random linear mixes of that identity plus noise, independently scaled per
modality so one modality can be made unreliable.  Audio noise is smoothed
over adjacent segments (temporally correlated); visual noise is independent
per segment.  The generator also writes a manifest with a train/eval split
and a balanced trial list over the held-out utterances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from avfuse.config import ConfigError
from avfuse.featio import ManifestEntry, TrialPair, save_features, write_manifest, write_trial_list


@dataclass
class SyntheticSpec:
    """Shape and noise structure of a generated dataset."""

    n_speakers: int = 50
    utts_per_speaker: int = 10
    audio_dim: int = 16
    visual_dim: int = 16
    segments: int = 8
    latent_dim: int = 8
    audio_noise: float = 0.8
    visual_noise: float = 0.8
    eval_utts_per_speaker: int = 2
    nontargets_per_target: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("n_speakers", "utts_per_speaker", "audio_dim", "visual_dim",
                     "segments", "latent_dim", "nontargets_per_target"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not (0.0 <= self.audio_noise < np.inf and 0.0 <= self.visual_noise < np.inf):
            raise ConfigError("noise levels must lie in [0, inf)")
        if not 0 <= self.eval_utts_per_speaker < self.utts_per_speaker:
            raise ConfigError("eval_utts_per_speaker must leave at least one training utterance")


def _smoothing_matrix(segments: int) -> np.ndarray:
    """Moving-average mixing of adjacent segments, rows scaled to unit L2 norm
    so smoothed noise keeps unit per-element variance: the kernel (1, 2, 1),
    cut off at the first and last segment."""
    mat = 2.0 * np.eye(segments) + np.eye(segments, k=1) + np.eye(segments, k=-1)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    return mat


def speaker_name(index: int) -> str:
    return f"spk{index:03d}"


def utterance_name(speaker_index: int, utt_index: int) -> str:
    return f"{speaker_name(speaker_index)}_utt{utt_index:02d}"


def generate_dataset(spec: SyntheticSpec, out_dir) -> list[ManifestEntry]:
    """Write feature files, manifest, and trial list; returns the manifest rows.

    The same spec (including seed) regenerates byte-identical files.  Every
    feature matrix and the trial list are drawn in memory first, so a spec
    whose trial list cannot be built raises before any file is written.
    """
    rng = np.random.default_rng(spec.seed)

    scale = 1.0 / np.sqrt(spec.latent_dim)
    audio_mix = rng.normal(0.0, scale, size=(spec.audio_dim, spec.latent_dim))
    visual_mix = rng.normal(0.0, scale, size=(spec.visual_dim, spec.latent_dim))
    smooth = _smoothing_matrix(spec.segments)

    entries = []
    features: list[tuple[str, np.ndarray, np.ndarray]] = []
    eval_ids_by_speaker: list[list[str]] = []
    for s in range(spec.n_speakers):
        identity = rng.normal(0.0, 1.0, size=spec.latent_dim)
        audio_base = (audio_mix @ identity)[:, None]
        visual_base = (visual_mix @ identity)[:, None]
        eval_ids: list[str] = []
        for u in range(spec.utts_per_speaker):
            utt_id = utterance_name(s, u)
            audio_noise = rng.standard_normal((spec.audio_dim, spec.segments)) @ smooth.T
            visual_noise = rng.standard_normal((spec.visual_dim, spec.segments))
            features.append((utt_id, audio_base + spec.audio_noise * audio_noise,
                             visual_base + spec.visual_noise * visual_noise))
            held_out = u >= spec.utts_per_speaker - spec.eval_utts_per_speaker
            entries.append(ManifestEntry(utt_id, speaker_name(s), "eval" if held_out else "train"))
            if held_out:
                eval_ids.append(utt_id)
        eval_ids_by_speaker.append(eval_ids)
    trials = _build_trials(spec, rng, eval_ids_by_speaker)

    out_dir = Path(out_dir)
    feats_dir = out_dir / "feats"
    feats_dir.mkdir(parents=True, exist_ok=True)
    for utt_id, audio, visual in features:
        save_features(feats_dir / f"{utt_id}.audio.avf", audio)
        save_features(feats_dir / f"{utt_id}.visual.avf", visual)
    write_manifest(out_dir / "manifest.tsv", entries)
    write_trial_list(out_dir / "trials.txt", trials)
    return entries


def _build_trials(spec: SyntheticSpec, rng: np.random.Generator,
                  eval_ids_by_speaker: list[list[str]]) -> list[TrialPair]:
    """All same-speaker pairs among held-out utterances, plus sampled
    cross-speaker pairs at the configured ratio.

    Raises ConfigError when the sampler cannot find that many distinct
    cross-speaker pairs, instead of returning fewer.
    """
    targets = [
        TrialPair(True, a, b)
        for ids in eval_ids_by_speaker
        for a, b in itertools.combinations(ids, 2)
    ]
    flat = [(s, utt) for s, ids in enumerate(eval_ids_by_speaker) for utt in ids]
    nontargets: list[TrialPair] = []
    seen = set()
    wanted = len(targets) * spec.nontargets_per_target
    attempts = 0
    while len(nontargets) < wanted and attempts < 100 * wanted:
        attempts += 1
        i, j = rng.integers(0, len(flat), size=2)
        if flat[i][0] == flat[j][0]:
            continue
        key = (flat[i][1], flat[j][1])
        if key in seen:
            continue
        seen.add(key)
        nontargets.append(TrialPair(False, *key))
    if len(nontargets) < wanted:
        raise ConfigError(
            f"requested {wanted} nontarget trials ({spec.nontargets_per_target} per target) "
            f"but found only {len(nontargets)} distinct cross-speaker pairs; "
            f"lower nontargets_per_target or hold out more utterances"
        )
    return targets + nontargets
