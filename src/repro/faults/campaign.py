"""The ``fault_recovery`` campaign: recovery guarantees as pinned digests.

One cell per ``chaos_*`` scenario.  Each cell executes the faulted
scenario three ways and reduces the outcome to booleans a report table
can pin:

* **uninterrupted** — the batch run's digest (the reference);
* **recovered** — step to mid-run, checkpoint to a file, load the file
  back, restore, and complete: the continuation must digest identically
  to the uninterrupted run (``recovered_matches``), *through* the fault
  window;
* **damage detection** — a deliberately truncated copy of the checkpoint
  file must raise the typed
  :class:`~repro.api.errors.SnapshotIntegrityError`
  (``truncated_detected``), never unpickle garbage;
* **fault-free comparison** — whether the per-round metrics equal the
  fault-free twin's (``matches_fault_free``; false for capacity faults,
  which genuinely change the system).

The runner is a pure function of ``(scenario, seed)``; the campaign
registers through :mod:`repro.orchestrate.campaigns` (which imports this
module) and its table is committed under ``docs/results/``.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping

__all__ = ["FAULT_RECOVERY_CAMPAIGN", "run_fault_recovery"]

CHAOS_SCENARIOS = ("chaos_box_crash", "chaos_brownout")


def run_fault_recovery(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Chaos probe of one scenario: checkpoint/restore through the fault window."""
    from repro.api.errors import SnapshotIntegrityError
    from repro.api.session import SessionSnapshot, VodSession
    from repro.scenarios.build import build_scenario
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.replay import _round_records, digest_result

    spec = get_scenario(str(params["scenario"]))
    seed = int(params["seed"])
    rounds = spec.horizon

    # Reference: the uninterrupted faulted run.
    reference = build_scenario(spec, seed=seed).run(rounds)
    reference_digest = digest_result(spec, seed, rounds, reference).digest

    # Interrupted: checkpoint mid-run (inside or before the fault
    # window), round-trip the checkpoint through a file, restore and
    # complete the horizon.
    session = build_scenario(spec, seed=seed).session(horizon=rounds)
    session.step_until(round=max(1, rounds // 2))
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "checkpoint.snap"
        session.snapshot().to_file(checkpoint)
        data = checkpoint.read_bytes()

        truncated = Path(tmp) / "truncated.snap"
        truncated.write_bytes(data[: max(len(data) // 2, 1)])
        try:
            SessionSnapshot.from_file(truncated)
            truncated_detected = False
        except SnapshotIntegrityError:
            truncated_detected = True

        restored = VodSession.restore(SessionSnapshot.from_file(checkpoint))
    restored.step_until(round=rounds)
    recovered = restored.result()
    recovered_digest = digest_result(spec, seed, rounds, recovered).digest

    # Compare with the fault-free twin.
    twin = build_scenario(dataclasses.replace(spec, faults=()), seed=seed).run(rounds)
    matches_fault_free = _round_records(reference) == _round_records(twin)

    return [
        {
            "scenario": spec.name,
            "seed": seed,
            "rounds": rounds,
            "digest": reference_digest,
            "recovered_matches": recovered_digest == reference_digest,
            "truncated_detected": truncated_detected,
            "matches_fault_free": matches_fault_free,
        }
    ]


def __getattr__(name: str):
    # The CampaignSpec itself is built by repro.orchestrate.campaigns
    # (the single registration point); re-exporting it lazily keeps this
    # module free of orchestrate imports, so it is importable first
    # without a cycle (orchestrate's __init__ imports campaigns, which
    # imports this module).
    if name == "FAULT_RECOVERY_CAMPAIGN":
        from repro.orchestrate.campaigns import FAULT_RECOVERY_CAMPAIGN

        return FAULT_RECOVERY_CAMPAIGN
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
