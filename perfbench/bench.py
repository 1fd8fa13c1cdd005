"""One benchmark run: set up, measure rounds until the time is up, check, report.

End-to-end metrics come from untraced rounds.  With tracing on, untraced and
traced rounds alternate, and every traced round is followed by the layer
probe; the per-layer metrics then come from the traced rounds and the probe,
and the gap between them and the untraced rounds is the tracing overhead.
Every reported time is scaled to reference host speed (see calibrate.py); the
info line carries the unscaled rates next to the reference's own time.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from avfuse.autodiff import Tape

from calibrate import NOMINAL_MS, SpeedLog
from tracing import LAYERS, Tracer, probe_layers
from workloads import (Inputs, Round, Workload, check_scores, fingerprint, generate, make_inputs,
                       quality, run_round)

SETUPS = 7        # set-ups per run; setup_s is their median
PROBE_UTTS = 16   # utterances through the layer probe after each traced round
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(lib_path))
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if config is not None:
            config.restype = ctypes.c_char_p
            info["openblas"] = config().decode()
        if threads is not None:
            threads.restype = ctypes.c_int
            info["blas_threads"] = threads()
    return info


def fingerprint_status(workload: str, seed: int, digest: str) -> str:
    """"match" or "changed" against the recorded inputs of this seed, else "unrecorded"."""
    recorded = json.loads(FINGERPRINTS.read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return "unrecorded"
    return "match" if recorded == digest else "changed"


def _median(values) -> float:
    return float(statistics.median(values))


def _single(values, what: str, problems: list[str]):
    """The one value every sample must share."""
    distinct = sorted(set(values))
    if len(distinct) != 1:
        problems.append(f"{what} differs between repeats: {distinct[:4]}")
    return distinct[0]


def _same_outputs(inputs: Inputs, first: Round, r: Round) -> list[str]:
    """A repeated round must reproduce the first one exactly."""
    problems = []
    if r.final_loss != first.final_loss:
        problems.append(f"final_loss differs between rounds: {first.final_loss!r} vs {r.final_loss!r}")
    if r.checkpoint_sha != first.checkpoint_sha:
        problems.append("final checkpoint bytes differ between rounds")
    if not np.array_equal(r.scores, first.scores):
        problems.append("trial scores differ between rounds")
    if any(not np.array_equal(r.embeddings[u], first.embeddings[u]) for u in inputs.embed_ids):
        problems.append("embeddings differ between rounds")
    return problems


def _guard(inputs: Inputs, vm, probes: list[dict], utt_ids: list[str]) -> tuple[list[str], int]:
    """The layer-by-layer loss must equal ``model.loss`` bit for bit."""
    problems = []
    records = []
    for utt_id, probe in zip(utt_ids, probes):
        utt = inputs.utterances[utt_id]
        with Tape() as tape:
            expected = vm.loss(utt.audio, utt.visual, inputs.labels[utt_id]).item()
        records.append(len(tape))
        if probe["loss"] != expected:
            problems.append(f"{utt_id}: layer-by-layer loss {probe['loss']!r} != model.loss {expected!r}")
    return problems, _single(records, "model.loss tape records", problems)


def _end_to_end(speed: SpeedLog, setups, rounds: list[Round], inputs: Inputs, success: float) -> dict:
    plain = [r for r in rounds if not r.traced]
    steps = [1e3 * speed.scaled(*iv) for r in plain for iv in r.steps]
    embeds = [1e3 * speed.scaled(*iv) for r in plain for iv in r.embeds]
    utts = len(inputs.train_set) * inputs.config.epochs
    values = {
        "setup_s": (_median(speed.scaled(*iv) for iv in setups), "s"),
        "train_utts_per_s": (_median(utts / speed.scaled(*r.train) for r in plain), "1/s"),
        "train_step_ms_p50": (float(np.percentile(steps, 50)), "ms"),
        "train_step_ms_p90": (float(np.percentile(steps, 90)), "ms"),
        "embed_utts_per_s": (_median(len(r.embeds) / speed.scaled(*r.embed) for r in plain), "1/s"),
        "embed_ms_p50": (float(np.percentile(embeds, 50)), "ms"),
        "verify_trials_per_s": (_median(len(inputs.trials) / speed.scaled(*r.verify) for r in plain), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_loss": (rounds[0].final_loss, "loss"),
        "success_rate": (success, "share"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _unscaled(rounds: list[Round], inputs: Inputs, speed: SpeedLog) -> dict:
    """The main rates as the wall clock read them, and the reference's own time."""
    plain = [r for r in rounds if not r.traced]
    utts = len(inputs.train_set) * inputs.config.epochs

    def wall(iv):
        return iv[1] - iv[0] - speed.busy(*iv)

    return {
        "train_utts_per_s": _median(utts / wall(r.train) for r in plain),
        "embed_utts_per_s": _median(len(r.embeds) / wall(r.embed) for r in plain),
        "verify_trials_per_s": _median(len(inputs.trials) / wall(r.verify) for r in plain),
        "reference_ms_p50": _median(speed.ms),
        "reference_nominal_ms": NOMINAL_MS,
    }


def _embed_tail(rounds: list[Round], speed: SpeedLog) -> dict:
    """Scaled embed latency tail: short slowdowns of the host, which the
    reference cannot follow, make it too unsteady to gate on."""
    embeds = [1e3 * speed.scaled(*iv) for r in rounds if not r.traced for iv in r.embeds]
    return {"p90": float(np.percentile(embeds, 90)), "p99": float(np.percentile(embeds, 99))}


def _per_layer(tracer: Tracer, speed: SpeedLog, probes: list[dict], rounds: list[Round],
               inputs: Inputs, problems: list[str]) -> dict:
    def span_ms(name):
        return [1e3 * speed.scaled(s["start"], s["end"]) for s in tracer.spans if s["name"] == name]

    values: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        for phase in ("fwd", "bwd"):
            values[f"{layer}.{phase}_ms"] = (_median(1e3 * speed.scaled(*p[layer][phase]) for p in probes), "ms")
        values[f"{layer}.records"] = (_single([p[layer]["records"] for p in probes],
                                              f"{layer} tape records", problems), "count")
    values["autodiff.backward_ms"] = (_median(span_ms("autodiff.backward")), "ms")
    values["autodiff.records"] = (_single(tracer.values("autodiff.backward", "records"),
                                          "records per backward", problems), "count")
    for name in ("training.optimizer_step", "checkpoint.save", "checkpoint.load", "model.embed",
                 "evaluation.score_trials", "metrics.compute_report", "featio.load_dataset",
                 "synthetic.generate"):
        values[f"{name}_ms"] = (_median(span_ms(name)), "ms")

    # Per training utterance: the layers' forward and backward plus the
    # optimizer steps and checkpoint saves of a job, spread over its utterances,
    # against the same work timed in the untraced rounds.
    utts = len(inputs.train_set) * inputs.config.epochs
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    per_job = {name: len(span_ms(name)) / len(traced) for name in ("training.optimizer_step", "checkpoint.save")}
    layers_ms = sum(values[f"{layer}.{phase}_ms"][0] for layer in LAYERS for phase in ("fwd", "bwd"))
    accounted = layers_ms + sum(values[f"{name}_ms"][0] * n for name, n in per_job.items()) / utts
    untraced = 1e3 * _median(speed.scaled(*r.train) / utts for r in plain)
    plain_s = _median(speed.scaled(*r.interval) for r in plain)
    traced_s = _median(speed.scaled(*r.interval) for r in traced)
    values["trace.untraced_utt_ms"] = (untraced, "ms")
    values["trace.accounted_utt_ms"] = (accounted, "ms")
    values["trace.overhead_pct"] = (100.0 * (accounted - untraced) / untraced, "%")
    values["trace.round_overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def _probe(inputs: Inputs, vm, utt_id: str, tracer: Tracer | None) -> dict:
    utt = inputs.utterances[utt_id]
    with (tracer.span("probe", utt=utt_id) if tracer else nullcontext()):
        return probe_layers(vm, utt.audio, utt.visual, inputs.labels[utt_id], tracer=tracer, utt=utt_id)


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> tuple[dict, dict]:
    """Run one workload; returns the result object and a dict of untimed facts."""
    speed = SpeedLog()
    with speed.ticking():
        return _measure(workload, seed, seconds, trace, work_dir, speed)


def _measure(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path,
             speed: SpeedLog) -> tuple[dict, dict]:
    tracer = Tracer()
    data_dir = work_dir / "data"
    generate(workload, seed, data_dir, tracer)
    setups = []
    for _ in range(SETUPS):
        start = perf_counter()
        inputs = make_inputs(workload, seed, data_dir, tracer)
        setups.append((start, perf_counter()))
    digest = fingerprint(data_dir, inputs)
    problems: list[str] = []

    probe_ids = [u.utt_id for u in inputs.train_set[:PROBE_UTTS]]
    probes: list[dict] = []
    rounds: list[Round] = []
    attempted = failed = 0
    planned = len(inputs.train_set) * inputs.config.epochs + len(inputs.embed_ids) + len(inputs.trials)
    deadline = perf_counter() + seconds
    while len(rounds) < (2 if trace else 1) or perf_counter() < deadline:
        traced = trace and len(rounds) % 2 == 1
        out_dir = work_dir / f"round{len(rounds)}"
        try:
            r = run_round(inputs, out_dir, tracer if traced else None)
        except Exception as exc:  # a failing round counts every operation in it as failed
            print(f"round {len(rounds)} failed: {exc!r}", file=sys.stderr)
            attempted += planned
            failed += planned
            problems.append(f"round {len(rounds)} raised {exc!r}")
            break
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        rounds.append(r)
        attempted += r.attempted
        failed += r.failed
        if traced:
            probes += [_probe(inputs, r.model, u, tracer) for u in probe_ids]
        problems += r.problems + check_scores(inputs, r)
        if r is not rounds[0]:  # keep memory flat however many rounds fit
            problems += _same_outputs(inputs, rounds[0], r)
            r.embeddings, r.scores, r.model = {}, None, None
    if not rounds or (trace and not probes):
        raise RuntimeError("too few rounds completed: " + "; ".join(problems))

    vm = rounds[0].model
    if not trace:  # the guard still runs, untimed, on a few utterances
        probe_ids = probe_ids[:4]
        probes = [_probe(inputs, vm, u, None) for u in probe_ids]
    guard_problems, loss_records = _guard(inputs, vm, probes[-len(probe_ids):], probe_ids)
    problems += guard_problems

    success = (attempted - failed) / attempted
    if trace:
        metrics = _per_layer(tracer, speed, probes, rounds, inputs, problems)
        trace_path = work_dir.parent / f"trace_{workload.name}_seed{seed}.json"
        tracer.write(trace_path)
    else:
        metrics = _end_to_end(speed, setups, rounds, inputs, success)
        trace_path = None

    info = {
        "workload": workload.name,
        "seed": seed,
        "fingerprint": digest,
        "fingerprint_status": fingerprint_status(workload.name, seed, digest),
        "machine": machine(),
        "rounds": {"untraced": sum(not r.traced for r in rounds), "traced": sum(r.traced for r in rounds)},
        "samples": {"train_steps": sum(len(r.steps) for r in rounds if not r.traced),
                    "embeds": sum(len(r.embeds) for r in rounds if not r.traced),
                    "trials_per_round": len(inputs.trials),
                    "speed_readings": len(speed.ms)},
        "unscaled": _unscaled(rounds, inputs, speed),
        "embed_ms_tail": _embed_tail(rounds, speed),
        "final_loss": repr(rounds[0].final_loss),
        "tape_records_per_utt": loss_records,
        "layer_records": {layer: probes[0][layer]["records"] for layer in LAYERS},
        "quality": quality(inputs, vm),
        "error_rate": failed / attempted,
        "problems": problems,
        "trace_file": str(trace_path) if trace_path else None,
    }
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, info
