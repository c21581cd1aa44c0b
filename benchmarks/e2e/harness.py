"""Workloads and the measured loop of the end-to-end benchmark.

One process measures one workload: ``run.py`` starts this file as a fresh
child per workload (``python harness.py '<job JSON>'``) and reads the
result from the last line of its standard output.

The load is a closed loop with one caller: the next round starts when
``VodSession.step()`` returns, and the whole horizon is timed, cold rounds
included.  Every repetition builds the scenario afresh from the seed and
must reproduce the same digest; on the default seed that digest must also
equal the one committed in ``expected.json``.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro.scenarios as scenarios  # noqa: E402
from repro.api.session import SessionSnapshot, VodSession  # noqa: E402

import spans  # noqa: E402

#: Scratch space for checkpoint files and span dumps (git-ignored).
OUT_DIR = BENCH_DIR / "out"
EXPECTED_FILE = BENCH_DIR / "expected.json"
DEFAULT_SEED = 7
#: The median :class:`Calibration` sample on the host of ``baseline.json``
#: when it was quiet.  Times are reported at that host speed: each round's
#: time is scaled by this over the median of the samples taken within
#: ``CALIBRATION_WINDOW`` rounds of it.  That follows the slowdowns, from
#: seconds to minutes long, that other tenants of a shared host cause and
#: the fastest-of-repetitions rule cannot filter.
CALIBRATION_REF_MS = 3.3
CALIBRATION_WINDOW = 2


@dataclass(frozen=True)
class Workload:
    """A spec factory of :mod:`repro.scenarios`, its horizon and its loop."""

    factory: str
    args: tuple
    rounds: int
    #: Timed repetitions of the horizon per run.  They must agree on the
    #: digest, which is the reference for seeds without a committed one.
    #: Each round is identical work in every repetition, so its time is the
    #: fastest of its repetitions: other processes on the host only ever add
    #: time.  The count is fixed so that two commits are measured alike: more
    #: repetitions would read lower.  While ``--seconds`` of loop time is not
    #: reached, further repetitions run and are checked, but their times are
    #: not used.
    reps: int = 2
    #: Checkpoint and restore the session after every round.
    checkpoint: bool = False
    #: Per-box, per-round outage probability replacing the profile's churn.
    failure_probability: Optional[float] = None
    #: Start round of the flash-crowd profile's second crowd, replacing its
    #: ``horizon // 2``.
    second_crowd: Optional[int] = None

    def spec(self, rounds: int):
        spec = getattr(scenarios, self.factory)(*self.args, horizon=rounds)
        if self.failure_probability is not None:
            churn = replace(spec.churn, failure_probability=self.failure_probability)
            spec = replace(spec, churn=churn)
        if self.second_crowd is not None:
            background, first, second = spec.workload
            second = replace(second, start=self.second_crowd)
            spec = replace(spec, workload=(background, first, second))
        return spec


# Why each workload exists is recorded in BENCHMARK.json and README.md: the
# first three each load a different engine layer (incremental repair and
# bookkeeping; the full Hopcroft-Karp kernel; the object demand path), the
# fourth the snapshot layer.  The churn storm runs at five times the
# profile's outage rate: then every round after the first few is
# infeasible, so the kernel's share no longer depends on how many rounds a
# seed's outages happen to break (at the profile's rate, 7 to 17 of 50 on
# 100k boxes).  The flash crowd's second crowd starts at round 50, not at
# the profile's round 100: with it at 100, the cheap rounds before it and
# the dearer ones after it split the horizon in half, and the median round
# fell on that step.  Its 30 ms rounds take three repetitions, because a
# burst of contention covers many of them; two suffice for the others, and
# keep the runs of a comparison within their time limit on a slow host.
WORKLOADS: Dict[str, Workload] = {
    "steady_500k": Workload("scale_tier_spec", ("500k",), rounds=70),
    "churn_20k": Workload(
        "soak_spec", (20_000, "churn_storm"), rounds=70, failure_probability=0.05
    ),
    "flashcrowd_50k": Workload(
        "soak_spec", (50_000, "flashcrowd_spike"), rounds=200, reps=3, second_crowd=50
    ),
    "checkpoint_25k": Workload("soak_spec", (25_000, "steady"), rounds=70, checkpoint=True),
}

UNITS = {
    "rounds_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p75": "ms",
    "setup_s": "s",
    "snapshot_mb": "MB",
    "host.slowdown": "ratio",
}

Metrics = Dict[str, Tuple[float, str]]


class Calibration:
    """A fixed block of NumPy and interpreter work that no change to ``src`` affects.

    It writes into buffers of its own, so its time does not depend on the
    state the engine leaves the allocator in.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.integers(0, 1 << 40, size=1_000_000)
        self._index = rng.integers(0, self._values.size, size=100_000)
        self._gathered = np.empty(self._index.size, dtype=self._values.dtype)
        self._buckets = self._index % 5_000
        self._keys = self._buckets[:10_000].tolist()

    def sample_ns(self) -> int:
        start = time.perf_counter_ns()
        np.take(self._values, self._index, out=self._gathered)
        self._gathered.sort()
        np.bincount(self._buckets, minlength=5_000)
        counts: Dict[int, int] = {}
        for key in self._keys:
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter_ns() - start


def host_slowdowns(samples_ns: List[int]) -> List[float]:
    """Per round of a repetition: the host's slowdown against the reference (> 1: slower)."""
    window = CALIBRATION_WINDOW
    return [
        statistics.median(samples_ns[max(0, r - window) : r + window + 1]) / 1e6 / CALIBRATION_REF_MS
        for r in range(len(samples_ns))
    ]


def _round_metrics(round_ns: List[float]) -> Dict[str, float]:
    return {
        "rounds_per_s": len(round_ns) / (sum(round_ns) / 1e9),
        "round_ms_p50": statistics.median(round_ns) / 1e6,
        "round_ms_p75": statistics.quantiles(round_ns, n=4)[2] / 1e6,
    }


def committed_digest(name: str, seed: int, rounds: int) -> Optional[str]:
    """The committed digest of a full default-seed run, else ``None``."""
    if seed != DEFAULT_SEED or rounds != WORKLOADS[name].rounds:
        return None
    return json.loads(EXPECTED_FILE.read_text())["digests"][name]


def _timed_build(spec, seed: int, setup_times: List[float]):
    gc.collect()
    start = time.perf_counter()
    compiled = scenarios.build_scenario(spec, seed=seed)
    setup_times.append(time.perf_counter() - start)
    return compiled


def _checkpoint(session: VodSession, path: Path) -> VodSession:
    """One snapshot -> file -> load -> restore cycle; returns the restored session."""
    session.snapshot().to_file(path)
    return VodSession.restore(SessionSnapshot.from_file(path))


def _run_rep(workload: Workload, compiled, rounds: int, path: Path, tracer, calibration):
    """Step one fresh session through the horizon.

    Returns the session, the ns of every round, and the calibration sample
    that precedes every round, outside its time.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    session = compiled.session()
    round_ns: List[int] = []
    calibration_ns: List[int] = []
    gc.collect()
    for r in range(rounds):
        if tracer is not None:
            tracer.round = r
        calibration_ns.append(calibration.sample_ns())
        start = time.perf_counter_ns()
        with span(spans.STEP_SPAN):
            session.step()
        if workload.checkpoint:
            with span(spans.CHECKPOINT_SPAN):
                session = _checkpoint(session, path)
        round_ns.append(time.perf_counter_ns() - start)
    return session, round_ns, calibration_ns


def _digest(spec, seed: int, rounds: int, session: VodSession) -> str:
    return scenarios.digest_result(spec, seed, rounds, session.result()).digest


def measure(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = 0.0,
    rounds: Optional[int] = None,
    trace_dir: Optional[Path] = None,
) -> dict:
    """Measure one workload; the result carries metrics and the correctness verdict.

    With ``trace_dir`` one traced repetition follows the untraced ones;
    the metrics are then the per-layer ones, and the spans are dumped there.
    """
    workload = WORKLOADS[name]
    rounds = workload.rounds if rounds is None else int(rounds)
    spec = workload.spec(rounds)
    expected = committed_digest(name, seed, rounds)
    tracer = spans.Tracer() if trace_dir is not None else None
    calibration = Calibration()
    # Every build of a timed repetition is timed: a spare one and the
    # repetition's own before each, and a spare one after the last, so the
    # median of setup_s draws on samples spread over the whole run.
    setup_times: List[float] = []

    problems: List[str] = []
    digests: List[str] = []
    rep_ns: List[List[int]] = []
    rep_slowdowns: List[List[float]] = []
    traced_ns: List[int] = []
    snapshot_bytes = 0
    reps = 0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        path = Path(scratch) / "session.snap"

        def repetition(rep_tracer, builds: List[float]):
            nonlocal reps, snapshot_bytes
            reps += 1
            _timed_build(spec, seed, builds)
            compiled = _timed_build(spec, seed, builds)
            with rep_tracer.installed() if rep_tracer is not None else nullcontext():
                session, round_ns, calibration_ns = _run_rep(
                    workload, compiled, rounds, path, rep_tracer, calibration
                )
                digest = _digest(spec, seed, rounds, session)
                if rep_tracer is not None:
                    _trace_epilogue(rep_tracer, workload, spec, seed, rounds, session, path, digest, problems)
            if reps == 1:
                snapshot_bytes = len(session.snapshot().payload)
            digests.append(digest)
            rep_slowdowns.append(host_slowdowns(calibration_ns))
            return round_ns

        try:
            for _ in range(workload.reps):
                rep_ns.append(repetition(None, setup_times))
            _timed_build(spec, seed, setup_times)
            while sum(map(sum, rep_ns)) / 1e9 < seconds:
                rep_ns.append(repetition(None, []))
            if tracer is not None:
                traced_ns = repetition(tracer, [])
        except Exception:
            problems.append(f"repetition {reps} raised:\n{traceback.format_exc()}")

        if workload.checkpoint and not problems:
            reference = scenarios.run_scenario(spec, seed=seed, num_rounds=rounds).digest
            if any(digest != reference for digest in digests):
                problems.append(
                    f"checkpointed digests {digests} differ from the uninterrupted run {reference}"
                )
    if len(set(digests)) > 1:
        problems.append(f"repetitions disagree on the digest: {digests}")
    if expected is not None and any(digest != expected for digest in digests):
        problems.append(f"digests {digests} differ from the expected {expected}")

    attempted = rounds * reps
    result = {
        "workload": name,
        "seed": seed,
        "rounds": rounds,
        "repetitions": reps,
        "digest": digests[0] if digests else None,
        "digest_check": "committed" if expected is not None else "repetitions",
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "correct": not problems,
        "problems": problems,
        "metrics": {},
    }
    if problems:
        return result
    if tracer is None:
        timed = list(zip(rep_ns[: workload.reps], rep_slowdowns[: workload.reps]))
        slowdown = statistics.median(s for _, slowdowns in timed for s in slowdowns)
        scaled = [[t / s for t, s in zip(ns, slowdowns)] for ns, slowdowns in timed]
        setup_s = statistics.median(setup_times)
        values = {
            **_round_metrics([min(times) for times in zip(*scaled)]),
            "setup_s": setup_s / slowdown,
            "snapshot_mb": snapshot_bytes / 1e6,
            "host.slowdown": slowdown,
        }
        metrics = {key: (value, UNITS[key]) for key, value in values.items()}
        # The same figures unscaled, printed for comparison only.
        fastest = [min(times) for times in zip(*rep_ns[: workload.reps])]
        wall = {**_round_metrics(fastest), "setup_s": setup_s}
        metrics.update({f"wall.{key}": (value, UNITS[key]) for key, value in wall.items()})
        result["metrics"] = metrics
    else:
        metrics = _layer_metrics(tracer, sum(traced_ns))
        # Against the last untraced repetition: the first one of a process
        # runs on a cold heap and would flatter the traced one.
        metrics["trace.overhead_ratio"] = (sum(rep_ns[-1]) / sum(traced_ns), "ratio")
        result["metrics"] = metrics
        dump = tracer.dump(
            Path(trace_dir) / f"{name}.spans.json",
            meta={"workload": name, "seed": seed, "rounds": rounds},
        )
        result["spans_file"] = str(dump)
    return result


def _trace_epilogue(tracer, workload, spec, seed, rounds, session, path, digest, problems):
    """After the traced repetition: engine counters, and a checkpoint of the final state.

    Workloads that do not checkpoint in their loop take one cycle here, so
    the snapshot layer is measured at every system size; the restored
    session must reproduce the run's digest.
    """
    tracer.counters["sim.engine.demands_rejected"] += session.result().rejected_demands
    if workload.checkpoint:
        return
    tracer.round = rounds
    with tracer.span(spans.CHECKPOINT_SPAN):
        restored = _checkpoint(session, path)
    if _digest(spec, seed, rounds, restored) != digest:
        problems.append("the restored session's digest differs from the run's")


def _layer_metrics(tracer: spans.Tracer, loop_ns: int) -> Metrics:
    """Per-layer busy time, calls and counters of the traced repetition."""
    layers = tracer.layer_times()
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}
    metrics: Metrics = {}
    for name in sorted({patch[2] for patch in spans.PATCHES}):
        entry = layers.get(name, empty)
        metrics[f"{name}_ms"] = (entry["total_ns"] / 1e6, "ms")
        metrics[f"{name}_calls"] = (entry["calls"], "count")
    for name, span_name in (
        ("core.matching.match_self_ms", "core.matching.match"),
        ("sim.engine.step_self_ms", spans.STEP_SPAN),
        ("api.session.checkpoint_self_ms", spans.CHECKPOINT_SPAN),
    ):
        metrics[name] = (layers[span_name]["self_ns"] / 1e6, "ms")
    counters = tracer.counters
    for name in (
        "core.matching.edges_gathered",
        "core.matching.repair_rounds",
        "core.matching.repair_fallback_rounds",
        "core.matching.degraded_rounds",
        "flow.hopcroft_karp_edges",
        "workloads.object_path_rounds",
        "workloads.demands_generated",
        "core.preloading.requests_generated",
        "sim.engine.demands_rejected",
    ):
        metrics[name] = (counters[name], "count")
    metrics["core.matching.repair_hit_ratio"] = (
        counters["core.matching.repair_rounds"] / layers["core.matching.match"]["calls"],
        "ratio",
    )
    metrics["api.session.snapshot_mb"] = (
        counters["api.session.snapshot_bytes_total"] / layers["api.session.to_file"]["calls"] / 1e6,
        "MB",
    )
    metrics["trace.loop_ms"] = (loop_ns / 1e6, "ms")
    return metrics


def main(argv: List[str]) -> int:
    job = json.loads(argv[0])
    trace_dir = job.get("trace_dir")
    result = measure(
        job["workload"],
        seed=int(job["seed"]),
        seconds=float(job["seconds"]),
        rounds=job.get("rounds"),
        trace_dir=Path(trace_dir) if trace_dir else None,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
