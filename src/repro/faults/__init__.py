"""repro.faults — deterministic fault injection and recovery helpers.

The paper's catalog-size thresholds only matter if the system holds them
*under failure*; this package makes failure paths first-class and
reproducible:

* :mod:`repro.faults.plan` — declarative, seed-deterministic fault plans
  (box crash/rejoin bursts and upload brownouts) registered as
  ``"fault"`` components and applied to a live engine by a
  :class:`FaultDriver` through the existing mutation hooks;
* :mod:`repro.faults.corrupt` — file corruption helpers (truncation,
  byte flips) for exercising store/snapshot integrity checks;
* :mod:`repro.faults.campaign` — the ``fault_recovery`` campaign pinning
  recovered-run digests against fault-free baselines.

Everything is deterministic given the scenario master seed: a faulted
run replays bit-identically, and recovery paths are asserted to converge
to stores/digests identical to fault-free executions.
"""

from repro.faults.plan import (
    FAULT_KINDS,
    FaultDriver,
    FaultEvent,
    FaultPlan,
    build_fault_driver,
)

__all__ = [
    "FAULT_KINDS",
    "FaultDriver",
    "FaultEvent",
    "FaultPlan",
    "build_fault_driver",
]
