"""Deterministic replay and golden traces.

A scenario run is summarized by a *digest*: the per-round metric records
(all integers) plus the run summary, hashed with SHA-256 over a canonical
JSON encoding.  Because every stochastic component of a compiled scenario
derives from the master seed (:mod:`repro.scenarios.build`), replaying
``(spec, seed)`` reproduces the digest bit for bit — any divergence means
the simulator, a workload, or a solver changed behaviour.

Golden traces persist a digest (with the full spec embedded) to JSON;
:func:`diff_golden` replays and reports the first divergence at round
granularity, which is what the regression tests under ``tests/golden/``
and the ``verify`` CLI command consume.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.scenarios.build import build_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.sim.engine import SimulationResult

__all__ = [
    "GOLDEN_FORMAT_VERSION",
    "ScenarioRun",
    "run_scenario",
    "digest_result",
    "write_golden",
    "load_golden",
    "diff_golden",
    "verify_golden_file",
]

GOLDEN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ScenarioRun:
    """The digestible outcome of one scenario run."""

    spec: ScenarioSpec
    seed: int
    rounds: int
    digest: str
    summary: Dict[str, Any]
    round_records: Tuple[Dict[str, int], ...]
    result: Optional[SimulationResult] = None

    def to_golden_dict(self) -> Dict[str, Any]:
        """The JSON payload written to a golden-trace file."""
        return {
            "format": GOLDEN_FORMAT_VERSION,
            "scenario": self.spec.name,
            "seed": self.seed,
            "rounds": self.rounds,
            "digest": self.digest,
            "summary": dict(self.summary),
            "round_records": [dict(r) for r in self.round_records],
            "spec": self.spec.to_dict(),
        }


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _round_records(result: SimulationResult) -> List[Dict[str, int]]:
    records: List[Dict[str, int]] = []
    for stats in result.metrics.round_stats:
        records.append(
            {
                "t": int(stats.time),
                "active": int(stats.active_requests),
                "new": int(stats.new_requests),
                "matched": int(stats.matched),
                "unmatched": int(stats.unmatched),
                "feasible": int(stats.feasible),
                "upload_used": int(stats.upload_used),
                "upload_capacity": int(stats.upload_capacity),
            }
        )
    return records


def _summary(result: SimulationResult) -> Dict[str, Any]:
    metrics = result.metrics
    return {
        "rounds": int(metrics.rounds),
        "total_demands": int(metrics.total_demands),
        "total_requests": int(metrics.total_requests),
        "infeasible_rounds": int(metrics.infeasible_rounds),
        "unmatched_requests": int(metrics.unmatched_requests),
        "rejected_demands": int(result.rejected_demands),
        "swarm_growth_violations": int(metrics.swarm_growth_violations),
        "peak_box_load": int(metrics.peak_box_load),
        "max_startup_delay": None
        if metrics.max_startup_delay is None
        else int(metrics.max_startup_delay),
        "mean_startup_delay": None
        if metrics.mean_startup_delay is None
        else float(metrics.mean_startup_delay),
        "stopped_early": bool(result.stopped_early),
        "trace_events": len(result.trace),
    }


def digest_result(
    spec: ScenarioSpec, seed: int, rounds: int, result: SimulationResult
) -> ScenarioRun:
    """Digest a finished run into a :class:`ScenarioRun`."""
    records = _round_records(result)
    summary = _summary(result)
    payload = {
        "scenario": spec.name,
        "seed": int(seed),
        "rounds": int(rounds),
        "solver": spec.solver,
        # A constant, kept because every recorded digest hashes the key.
        "warm_start": True,
        "round_records": records,
        "summary": summary,
    }
    digest = hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()
    return ScenarioRun(
        spec=spec,
        seed=int(seed),
        rounds=int(rounds),
        digest=digest,
        summary=summary,
        round_records=tuple(records),
        result=result,
    )


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    seed: Optional[int] = None,
    num_rounds: Optional[int] = None,
) -> ScenarioRun:
    """Build, run and digest a scenario (by name or explicit spec)."""
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    rounds = spec.horizon if num_rounds is None else int(num_rounds)
    compiled = build_scenario(spec, seed=seed, min_horizon=rounds)
    result = compiled.run(rounds)
    return digest_result(spec, compiled.seed, rounds, result)


# ---------------------------------------------------------------------- #
# Golden traces
# ---------------------------------------------------------------------- #
def write_golden(run: ScenarioRun, path: Union[str, Path]) -> Path:
    """Write ``run`` as a golden-trace JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(run.to_golden_dict(), indent=2, sort_keys=True) + "\n")
    return path


def load_golden(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a golden-trace file, checking its format version."""
    data = json.loads(Path(path).read_text())
    version = data.get("format")
    if version != GOLDEN_FORMAT_VERSION:
        raise ValueError(
            f"golden trace {path} has format {version!r}, "
            f"expected {GOLDEN_FORMAT_VERSION}"
        )
    return data


def diff_golden(run: ScenarioRun, golden: Dict[str, Any]) -> List[str]:
    """Compare a fresh run against a golden trace.

    Returns a list of human-readable differences (empty = bit-identical).
    The digest comparison is authoritative; the per-round and summary
    diffs only narrow down *where* the divergence started.
    """
    diffs: List[str] = []
    if run.spec.name != golden.get("scenario"):
        diffs.append(
            f"scenario name: ran {run.spec.name!r}, golden {golden.get('scenario')!r}"
        )
    if run.seed != golden.get("seed"):
        diffs.append(f"seed: ran {run.seed}, golden {golden.get('seed')}")
    if run.rounds != golden.get("rounds"):
        diffs.append(f"rounds: ran {run.rounds}, golden {golden.get('rounds')}")
    golden_spec = golden.get("spec")
    if golden_spec is not None and run.spec.to_dict() != golden_spec:
        diffs.append(
            "spec drift: the registered spec no longer matches the recorded one "
            "(regenerate the golden if the change is intentional)"
        )

    golden_records = [dict(r) for r in golden.get("round_records", [])]
    records = [dict(r) for r in run.round_records]
    for index, (current, recorded) in enumerate(zip(records, golden_records)):
        if current != recorded:
            changed = sorted(
                key
                for key in set(current) | set(recorded)
                if current.get(key) != recorded.get(key)
            )
            diffs.append(
                f"round {index} diverges on {changed}: ran {current}, "
                f"golden {recorded}"
            )
            break
    if len(records) != len(golden_records):
        diffs.append(
            f"round count: ran {len(records)}, golden {len(golden_records)}"
        )

    golden_summary = golden.get("summary", {})
    for key in sorted(set(run.summary) | set(golden_summary)):
        if run.summary.get(key) != golden_summary.get(key):
            diffs.append(
                f"summary[{key}]: ran {run.summary.get(key)!r}, "
                f"golden {golden_summary.get(key)!r}"
            )
    if run.digest != golden.get("digest"):
        diffs.append(
            f"digest: ran {run.digest}, golden {golden.get('digest')}"
        )
    return diffs


def verify_golden_file(
    path: Union[str, Path], use_registry: bool = True
) -> Tuple[ScenarioRun, List[str]]:
    """Replay a golden trace and return ``(fresh_run, differences)``.

    With ``use_registry`` (default) the scenario is replayed from the
    *registered* spec of the recorded name — so drift between the registry
    and the recording is caught — falling back to the embedded spec for
    unregistered scenarios.  Run-level overrides the recording CLI offers
    (``solver``, ``horizon``) are taken from the embedded spec, so goldens
    recorded with ``--solver`` verify cleanly; any *other* divergence from
    the registry is reported as drift.
    """
    golden = load_golden(path)
    embedded = ScenarioSpec.from_dict(golden["spec"])
    spec = embedded
    if use_registry:
        try:
            registered = get_scenario(str(golden["scenario"]))
        except KeyError:
            pass
        else:
            spec = registered.with_overrides(
                horizon=embedded.horizon,
                solver=embedded.solver,
            )
    run = run_scenario(spec, seed=int(golden["seed"]), num_rounds=int(golden["rounds"]))
    return run, diff_golden(run, golden)
