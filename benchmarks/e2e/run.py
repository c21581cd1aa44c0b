"""End-to-end benchmark of the round engine: one command prints every metric.

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
                                 [--seconds N] [--trace 0|1|DIR] [--rounds R]

Each workload runs in a fresh single-threaded child process
(``PYTHONHASHSEED=0``, one BLAS/OpenMP thread), one child at a time.  The
command prints every metric by name with its unit, then, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` (or a directory for the span dumps) they are its
per-layer ones, taken from a traced repetition.

Exit status: 0 when every output was verified, 1 when a digest was wrong
or a round raised (every round of that workload counts as failed), 2 when
the benchmark could not run at all (then no JSON line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
DEFAULT_TRACE_DIR = BENCH_DIR / "out"
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: A child is killed after this many seconds plus ``--seconds``.
CHILD_TIMEOUT_S = 150


def run_child(job: dict, timeout: float) -> Optional[dict]:
    """Measure one workload in a fresh process; ``None`` when it could not run."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "harness.py"), json.dumps(job)],
            env={**os.environ, **CHILD_ENV},
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload {job['workload']} exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(
            f"error: workload {job['workload']} exited with status {proc.returncode}",
            file=sys.stderr,
        )
        return None
    return json.loads(lines[-1])


def print_result(result: dict) -> None:
    verdict = "correct" if result["correct"] else "WRONG"
    digest = (result["digest"] or "none")[:16]
    print(
        f"== {result['workload']}  seed {result['seed']}  "
        f"{result['repetitions']} x {result['rounds']} rounds  "
        f"digest {digest} ({result['digest_check']})  {verdict}  "
        f"failed {result['failed']}/{result['attempted']} rounds"
    )
    for problem in result["problems"]:
        print(f"   ! {problem}")
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"   {name:<44}{value:>16.6g}  {unit}")


def parse_args(argv: Optional[List[str]], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--seed", type=int, default=7, help="input seed (default 7)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=0.0,
        help="keep repeating the horizon until this much time was measured",
    )
    parser.add_argument(
        "--trace",
        default="0",
        help="0: end-to-end metrics; 1 or a directory: per-layer metrics, spans dumped there",
    )
    parser.add_argument(
        "--rounds", type=int, default=None, help="override every workload's horizon (smoke runs)"
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    bench = json.loads(BENCHMARK_FILE.read_text())
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    trace_dir = None
    if args.trace != "0":
        trace_dir = DEFAULT_TRACE_DIR if args.trace == "1" else Path(args.trace).resolve()
    listed = bench["per_layer"] if trace_dir is not None else bench["end_to_end"]

    results = []
    for name in args.workload:
        job = {
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "rounds": args.rounds,
            "trace_dir": str(trace_dir) if trace_dir is not None else None,
        }
        result = run_child(job, CHILD_TIMEOUT_S + args.seconds)
        if result is None:
            return 2
        print_result(result)
        results.append(result)

    metrics = {}
    for result in results:
        if not result["correct"]:
            continue
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for metric in listed:
            value, unit = result["metrics"][metric["name"]]
            if unit != metric["unit"]:
                print(f"error: {metric['name']} is in {unit}, not {metric['unit']}", file=sys.stderr)
                return 2
            metrics[prefix + metric["name"]] = {"value": value, "unit": unit}
    correct = all(result["correct"] for result in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(result["attempted"] for result in results),
                "failed": sum(result["failed"] for result in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
