"""Benchmark of the avfuse pipeline, run from the root of a source checkout:

    python3 perfbench/run.py --workload train_rjca --seed 0 --seconds 25 --trace 0

Workloads: train_rjca, fusion_deep, embed_verify (see workloads.py).  The run
generates its inputs from --seed, measures rounds for --seconds, checks the
outputs, and prints one JSON object as its last line of output:
``{"correct", "attempted", "failed", "metrics"}``.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones, and the
spans are written under .perfbench/.  Times are scaled to reference host
speed (calibrate.py).  The line before it holds untimed facts: machine, input
fingerprint, unscaled rates, EER/minDCF per system, tape-record counts.

The benchmark process runs on one thread: BLAS is pinned to a single thread
here, before numpy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "avfuse").is_dir():
        print(f"error: no avfuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from bench import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result, info = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if info["fingerprint_status"] == "changed":
        print(f"warning: inputs of {args.workload} seed {args.seed} differ from the recorded "
              "fingerprint; this run measures a different workload", file=sys.stderr)
    for problem in info["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
