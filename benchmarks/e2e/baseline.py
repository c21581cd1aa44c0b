"""Measure the benchmark's spread over seeds and record the baseline.

    python benchmarks/e2e/baseline.py

Runs ``run.py`` exactly as ``BENCHMARK.json`` commands it, once per
(set, seed, workload): two sets of seeds 1..10.  For every end-to-end
metric and workload it records the median of each set, and the spread —
the distance between the first and third quartile over the seeds, as a
share of the median — next to the metric's bound, plus the drift between
the medians of the two sets.  The same figures are recorded for the
unscaled wall-clock values each run prints as ``wall.*``, so that the
host-speed scaling can be judged.  Provenance (git sha,
CPU count, Python and NumPy versions) and the wall time of every run are
recorded with them.  The result is written to ``baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SEEDS = range(1, 11)
SETS = 2


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(bench: dict, workload: str, seed: int) -> tuple:
    """The run's reported metrics, the same unscaled, its ``host.slowdown`` and wall time."""
    command = [
        *bench["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    metrics = {name: entry["value"] for name, entry in json.loads(lines[-1])["metrics"].items()}
    # run.py prints every metric of the child: also ``host.slowdown`` and the
    # unscaled ``wall.*`` figures.
    printed = {line.split()[0]: float(line.split()[1]) for line in lines if line.startswith("   ")}
    unscaled = {name: printed.get(f"wall.{name}", value) for name, value in metrics.items()}
    return metrics, unscaled, printed["host.slowdown"], wall


def spread(values: list) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def summary(sets: list, better: str) -> dict:
    medians = [statistics.median(v) for v in sets]
    sign = 1 if better == "lower" else -1
    return {
        "medians": medians,
        "spreads": [spread(v) for v in sets],
        # Positive when the last set's median is worse than the first's.
        "drift": sign * (medians[-1] - medians[0]) / medians[0],
        "values": sets,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    names = [m["name"] for m in bench["end_to_end"]]

    # reported/wall[workload][metric][set] -> one value per seed
    reported = {w: {m: [[] for _ in range(SETS)] for m in names} for w in workloads}
    wall = {w: {m: [[] for _ in range(SETS)] for m in names} for w in workloads}
    slowdowns, walls = [], []
    for set_index in range(SETS):
        for seed in SEEDS:
            for workload in workloads:
                metrics, unscaled, slowdown, seconds = run_once(bench, workload, seed)
                slowdowns.append(slowdown)
                walls.append(seconds)
                for name in names:
                    reported[workload][name][set_index].append(metrics[name])
                    wall[workload][name][set_index].append(unscaled[name])
                print(
                    f"set {set_index} seed {seed} {workload}: {seconds:.1f} s, slowdown {slowdown:.3f}",
                    file=sys.stderr,
                )

    table = {}
    for workload in workloads:
        table[workload] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            table[workload][name] = {
                "unit": metric["unit"],
                "bound": metric["bound"],
                **summary(reported[workload][name], metric["better"]),
                "wall_clock": summary(wall[workload][name], metric["better"]),
            }
    baseline = {
        "provenance": {
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "seeds": list(SEEDS),
        "sets": SETS,
        "run_seconds": bench["run_seconds"],
        "run_wall_s": {"median": statistics.median(walls), "max": max(walls), "total": sum(walls)},
        "host_slowdown": {"min": min(slowdowns), "median": statistics.median(slowdowns), "max": max(slowdowns)},
        "metrics": table,
    }
    (BENCH_DIR / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
    for workload, per_metric in table.items():
        for name, row in per_metric.items():
            worst = max(row["spreads"])
            flag = "" if worst < row["bound"] / 3 and row["drift"] < row["bound"] else "  <-- check"
            print(
                f"{workload:<16}{name:<14} median {row['medians'][-1]:>10.4g} {row['unit']:<4}"
                f" spread {worst:6.3f} (wall clock {max(row['wall_clock']['spreads']):6.3f})"
                f"  drift {row['drift']:+6.3f}  bound {row['bound']}{flag}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
