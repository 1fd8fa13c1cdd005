"""The benchmark's workloads, their generated inputs, and one measured round.

Every workload runs the same user session in a loop of rounds: train a model
with ``training.train`` (per-epoch checkpoints), reload the final checkpoint,
embed every utterance one at a time with ``model.embed``, and score an
all-pairs trial list with ``evaluation.evaluate``.  The workloads differ in
model shape and in how the session's time splits between those steps.
"""

from __future__ import annotations

import hashlib
import itertools
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from avfuse.config import TrainConfig, config_to_text
from avfuse.evaluation import evaluate
from avfuse.featio import TrialPair, Utterance, load_dataset, manifest_entries
from avfuse.model import VerificationModel
from avfuse.objective import cosine_score
from avfuse.synthetic import SyntheticSpec, generate_dataset
from avfuse.training import speaker_index_map, train

from tracing import Tracer, step_clock, traced_calls

SYSTEM = "rjca"
RAW_SYSTEMS = ("audio", "visual", "score_level")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict                   # SyntheticSpec fields besides the seed
    config: dict                 # TrainConfig fields that differ from the defaults
    train_per_speaker: int | None  # first N training utterances of each speaker, None for all
    trial_per_speaker: int       # trials: all pairs among the last N utterances of each speaker


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "train_rjca",
            "the paper's RJCA T=3 + BLSTM model trained with default settings; "
            "BLSTM and tape backward dominate, plus optimizer and checkpoint writes",
            spec={}, config={"epochs": 1}, train_per_speaker=None, trial_per_speaker=2),
        Workload(
            "fusion_deep",
            "RJCA at T=5 over 32 segments with no BLSTM, so fusion dominates and "
            "the BLSTM never runs",
            spec={"segments": 32},
            config={"epochs": 1, "segments": 32, "iterations": 5, "use_blstm": False},
            train_per_speaker=None, trial_per_speaker=2),
        Workload(
            "embed_verify",
            "tape-free embedding of every utterance and scoring 31k all-pairs trials dominate; "
            "training is a short job on 6 utterances of each speaker",
            spec={}, config={"epochs": 1}, train_per_speaker=6, trial_per_speaker=5),
    )
}


def all_pairs(ids: list[str], utterances: dict[str, Utterance]) -> list[TrialPair]:
    return [TrialPair(utterances[a].speaker_id == utterances[b].speaker_id, a, b)
            for a, b in itertools.combinations(sorted(ids), 2)]


@dataclass
class Inputs:
    """Everything a round needs, generated from the seed alone."""

    config: TrainConfig
    utterances: dict[str, Utterance]
    train_set: list[Utterance]
    labels: dict[str, int]
    embed_ids: list[str]
    trials: list[TrialPair]
    heldout_trials: list[TrialPair]
    config_text: str


def fingerprint(data_dir: Path, inputs: Inputs) -> str:
    """sha256 over the feature files' bytes, the scored trial list and the config."""
    digest = hashlib.sha256()
    for path in sorted((data_dir / "feats").iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    for t in inputs.trials:
        digest.update(f"{int(t.is_target)} {t.enroll_id} {t.test_id}\n".encode())
    digest.update(inputs.config_text.encode())
    return digest.hexdigest()


def generate(workload: Workload, seed: int, data_dir: Path, tracer: Tracer) -> None:
    """Write the workload's feature files, manifest and trial list for this seed."""
    with tracer.span("synthetic.generate"):
        generate_dataset(SyntheticSpec(seed=seed, **workload.spec), data_dir)


def make_inputs(workload: Workload, seed: int, data_dir: Path, tracer: Tracer) -> Inputs:
    """Load the generated files and build the training set and trial lists:
    the set-up a run times.  Writing the files is left out: its time follows
    the host's shared disk far more than the program."""
    spec = SyntheticSpec(seed=seed, **workload.spec)
    with tracer.span("featio.load_dataset"):
        utterances = load_dataset(data_dir)
    entries = manifest_entries(data_dir)
    by_speaker: dict[str, list[str]] = {}
    for e in entries:
        by_speaker.setdefault(e.speaker_id, []).append(e.utt_id)
    train_split = {e.utt_id for e in entries if e.split == "train"}
    train_ids = sorted(u for ids in by_speaker.values()
                       for u in [i for i in ids if i in train_split][:workload.train_per_speaker])
    trial_ids = [u for ids in by_speaker.values() for u in ids[-workload.trial_per_speaker:]]
    heldout_ids = [e.utt_id for e in entries if e.split == "eval"]
    embed_ids = sorted(utterances)
    config = TrainConfig(**workload.config)
    heldout_trials = all_pairs(heldout_ids, utterances)
    trials = all_pairs(trial_ids, utterances)
    train_set = [utterances[i] for i in train_ids]
    speakers = speaker_index_map(train_set)
    return Inputs(
        config=config,
        utterances=utterances,
        train_set=train_set,
        labels={u.utt_id: speakers[u.speaker_id] for u in train_set},
        embed_ids=embed_ids,
        trials=trials,
        heldout_trials=heldout_trials,
        config_text=f"{spec!r}\n{config_to_text(config)}train = {' '.join(train_ids)}\n",
    )


@dataclass
class Round:
    """One session's timed intervals, as (start, end) perf_counter pairs, and outputs."""

    traced: bool
    interval: tuple[float, float] = (0.0, 0.0)
    train: tuple[float, float] = (0.0, 0.0)
    steps: list[tuple[float, float]] = field(default_factory=list)
    embed: tuple[float, float] = (0.0, 0.0)
    embeds: list[tuple[float, float]] = field(default_factory=list)
    verify: tuple[float, float] = (0.0, 0.0)
    final_loss: float = float("nan")
    checkpoint_sha: str = ""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    embeddings: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    scores: np.ndarray = field(default=None, repr=False)
    model: VerificationModel = field(default=None, repr=False)


def run_round(inputs: Inputs, out_dir: Path, tracer: Tracer | None) -> Round:
    """One session; ``tracer`` given means spans around every layer call."""
    r = Round(traced=tracer is not None)
    span = tracer.span if tracer else (lambda name, utt=None: nullcontext())
    ends: list[float] = []
    start = perf_counter()
    with span("round"), (traced_calls(tracer) if tracer else nullcontext()), step_clock(ends):
        with span("training.train"):
            t0 = perf_counter()
            result = train(inputs.config, inputs.train_set, out_dir)
            r.train = (t0, perf_counter())
        r.steps = list(zip([t0] + ends[:-1], ends))
        r.attempted += len(inputs.train_set) * inputs.config.epochs
        r.final_loss = result.epoch_losses[-1]
        r.checkpoint_sha = hashlib.sha256(result.checkpoint_path.read_bytes()).hexdigest()

        with span("checkpoint.load"):
            vm = VerificationModel.from_checkpoint(result.checkpoint_path)
        r.model = vm
        trained = {k: t.data for k, t in result.model.named_parameters().items()}
        if any(not np.array_equal(trained[k], t.data) for k, t in vm.named_parameters().items()):
            r.problems.append("reloaded checkpoint differs from the trained model")

        t0 = perf_counter()
        for utt_id in inputs.embed_ids:
            utt = inputs.utterances[utt_id]
            t1 = perf_counter()
            with span("model.embed", utt=utt_id):
                emb = vm.embed(utt.audio, utt.visual)
            r.embeds.append((t1, perf_counter()))
            r.embeddings[utt_id] = emb
            if not np.isfinite(emb).all():
                r.failed += 1
        r.embed = (t0, perf_counter())
        r.attempted += len(inputs.embed_ids)

        with span("evaluation.evaluate"):
            t0 = perf_counter()
            _, score_set = evaluate(SYSTEM, inputs.trials, inputs.utterances, model=vm)
            r.verify = (t0, perf_counter())
        r.scores = score_set.scores
        r.attempted += len(inputs.trials)
        r.failed += int((~np.isfinite(r.scores)).sum())
    r.interval = (start, perf_counter())
    return r


def check_scores(inputs: Inputs, r: Round, tolerance: float = 1e-9) -> list[str]:
    """Trial scores must be the cosines of the per-utterance ``model.embed`` outputs."""
    index = {u: i for i, u in enumerate(inputs.embed_ids)}
    emb = np.stack([r.embeddings[u] for u in inputs.embed_ids])
    unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    a = np.array([index[t.enroll_id] for t in inputs.trials])
    b = np.array([index[t.test_id] for t in inputs.trials])
    expected = (unit @ unit.T)[a, b]
    worst = float(np.max(np.abs(expected - r.scores)))
    spot = cosine_score(emb[a[0]], emb[b[0]])
    problems = []
    if not worst <= tolerance:
        problems.append(f"evaluate scores differ from per-utterance embeddings by {worst:.3g}")
    if not abs(spot - r.scores[0]) <= tolerance:
        problems.append("evaluate score differs from objective.cosine_score")
    return problems


def quality(inputs: Inputs, vm: VerificationModel) -> dict:
    """EER and minDCF on the held-out all-pairs trials: the trained system and
    the untrained single-modality and score-level references."""
    out = {}
    for system in (SYSTEM,) + RAW_SYSTEMS:
        report, _ = evaluate(system, inputs.heldout_trials, inputs.utterances,
                             model=vm if system == SYSTEM else None,
                             weight=inputs.config.score_fusion_weight)
        out[system] = {"eer": report.eer, "min_dcf": report.min_dcf}
    out["trials"] = len(inputs.heldout_trials)
    return out

