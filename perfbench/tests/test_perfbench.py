"""The benchmark itself, at a tiny size: every workload runs, prints every metric
named in BENCHMARK.json with its unit, and repeats its counts and fingerprints.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402
from avfuse.autodiff import Tape  # noqa: E402
from tracing import LAYERS, Tracer, probe_layers  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
FULL_SIZE = dict(workloads.WORKLOADS)
TINY_MODEL = {"segments": 4, "blstm_hidden": 6, "asp_hidden": 5, "embed_dim": 7, "batch_size": 4}


def tiny(workload):
    return dataclasses.replace(
        workload,
        spec={**workload.spec, "n_speakers": 3, "utts_per_speaker": 4, "segments": 4},
        config={**workload.config, **TINY_MODEL},
        train_per_speaker=workload.train_per_speaker and 2,
    )


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch, tmp_path):
    for name, w in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, tiny(w))
    monkeypatch.setattr(run, "OUT", tmp_path)


def run_bench(capsys, workload, seed=3, trace=0):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_each_metric_prints_with_its_unit(capsys, workload, trace, key):
    info, result = run_bench(capsys, workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert {"nproc", "python", "numpy", "openblas", "blas_threads"} <= set(info["machine"])
    if trace:
        spans = json.loads(Path(info["trace_file"]).read_text())["spans"]
        names = {s["name"] for s in spans}
        assert {"training.train", "autodiff.backward", "model.embed", "fusion.fwd"} <= names


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counts_and_fingerprints_repeat(capsys, workload):
    first, a = run_bench(capsys, workload)
    second, b = run_bench(capsys, workload)
    other, _ = run_bench(capsys, workload, seed=4)
    for key in ("fingerprint", "final_loss", "tape_records_per_utt", "layer_records", "quality"):
        assert first[key] == second[key]
    assert a["metrics"]["final_loss"] == b["metrics"]["final_loss"]
    assert other["fingerprint"] != first["fingerprint"]


def test_recorded_fingerprints_match_full_size_inputs(tmp_path):
    recorded = json.loads((BENCH_DIR / "fingerprints.json").read_text())
    for name, w in FULL_SIZE.items():
        workloads.generate(w, 0, tmp_path / name, Tracer())
        inputs = workloads.make_inputs(w, 0, tmp_path / name, Tracer())
        assert recorded[name]["0"] == workloads.fingerprint(tmp_path / name, inputs)


@pytest.mark.parametrize("name", list(FULL_SIZE))
def test_layer_probe_is_the_model(tmp_path, name):
    workloads.generate(FULL_SIZE[name], 0, tmp_path, Tracer())
    inputs = workloads.make_inputs(FULL_SIZE[name], 0, tmp_path, Tracer())
    vm = workloads.VerificationModel(inputs.config, n_speakers=len(set(inputs.labels.values())))
    utt = inputs.train_set[0]
    label = inputs.labels[utt.utt_id]
    probe = probe_layers(vm, utt.audio, utt.visual, label)
    with Tape() as tape:
        expected = vm.loss(utt.audio, utt.visual, label).item()
    assert probe["loss"] == expected
    assert sum(probe[layer]["records"] for layer in LAYERS) == len(tape)


def test_blas_runs_on_one_thread():
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import run, bench; "
            "print(bench.machine()['blas_threads'])")
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "1", proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "train_rjca",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
