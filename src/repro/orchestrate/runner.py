"""Campaign execution: incremental and resumable.

:func:`run_campaign` resolves a :class:`~repro.orchestrate.spec.CampaignSpec`
into cells, skips every cell whose content address is already in the
:class:`~repro.orchestrate.store.ResultsStore`, and executes the missing
ones in the calling process.  Each completed cell is persisted *as it
finishes* (atomic write), so a campaign killed mid-run keeps its
completed cells and a subsequent ``resume`` re-executes only the gap.

Cell execution is deterministic by construction: a cell's parameters
fully determine its result (runners derive any internal randomness from
the cell's ``seed`` parameter, via the same
:func:`repro.util.rng.spawn_seed_sequences` discipline the Monte-Carlo
estimators use), so executing in a different order, in a different
process or on a different day produces the same rows — and the same
stored bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.api.registry import component_factory
from repro.orchestrate.spec import CampaignSpec, CellSpec
from repro.orchestrate.store import ResultsStore

__all__ = ["CellExecutionError", "ExecutionReport", "execute_cell", "execute_campaign_rows", "run_campaign"]


class CellExecutionError(RuntimeError):
    """A cell's runner raised or returned something other than row dicts."""


def execute_cell(runner_name: str, params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Execute one cell: call the registered ``runner_name`` on ``params``."""
    outcome = component_factory("experiment", runner_name)(params)
    if isinstance(outcome, Mapping):
        outcome = [outcome]
    if not isinstance(outcome, (list, tuple)) or not all(
        isinstance(row, Mapping) for row in outcome
    ):
        raise CellExecutionError(
            f"experiment runner {runner_name!r} must return a row dict or a "
            f"list of row dicts, got {type(outcome).__name__}"
        )
    return [dict(row) for row in outcome]


@dataclass
class ExecutionReport:
    """Outcome of one :func:`run_campaign` invocation."""

    campaign: str
    #: Cell keys of the whole campaign, in sweep order.
    cell_keys: List[str] = field(default_factory=list)
    #: Keys executed by *this* invocation.
    executed: List[str] = field(default_factory=list)
    #: Keys already present in the store and reused as-is.
    reused: List[str] = field(default_factory=list)

    @property
    def total_cells(self) -> int:
        """Number of cells the campaign resolves to."""
        return len(self.cell_keys)

    @property
    def complete(self) -> bool:
        """Whether every cell of the campaign is now in the store."""
        return len(self.executed) + len(self.reused) == self.total_cells

    def describe(self) -> str:
        """One-line human summary (what the CLI prints)."""
        state = "complete" if self.complete else "INCOMPLETE"
        return (
            f"{self.campaign}: {self.total_cells} cells — "
            f"{len(self.executed)} executed, {len(self.reused)} reused ({state})"
        )


def run_campaign(
    campaign: CampaignSpec,
    store: ResultsStore,
    force: bool = False,
    max_cells: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ExecutionReport:
    """Execute the campaign's missing cells against ``store``.

    Parameters
    ----------
    force:
        Re-execute every cell even if its key is already stored.
    max_cells:
        Execute at most this many *pending* cells, then return (the
        campaign-smoke CI step and the kill-resume tests use this to
        leave a campaign deliberately incomplete).
    progress:
        Optional callback receiving one human line per executed cell.

    A runner's exception propagates unchanged, after one
    ``FAILED <key> <label>`` line to ``progress`` names the cell that
    raised.  The cells completed before it stay stored, so ``resume``
    re-executes only that cell and the ones after it.

    Returns the :class:`ExecutionReport`; ``report.executed`` is empty
    exactly when the store already held every cell — the resume-is-a-no-op
    property the CLI's ``resume --expect-complete`` asserts.
    """
    say = progress or (lambda message: None)
    store.write_campaign_index(campaign)
    cells = campaign.cells()
    report = ExecutionReport(campaign=campaign.name, cell_keys=[c.key for c in cells])

    pending: List[CellSpec] = []
    for cell in cells:
        if not force and store.has(cell.key):
            report.reused.append(cell.key)
        else:
            pending.append(cell)
    if max_cells is not None:
        pending = pending[: max(int(max_cells), 0)]

    for cell in pending:
        try:
            # Runners get a copy: an in-place-normalizing runner must not
            # change the params (and therefore the key) the result is
            # stored under.
            rows = execute_cell(cell.runner, dict(cell.params))
        except Exception:
            say(f"  FAILED {cell.key[:12]} {cell.label()}")
            raise
        store.put(cell, rows)
        report.executed.append(cell.key)
        say(f"  [{len(report.executed)}/{len(pending)}] {cell.key[:12]} {cell.label()}")
    return report


def execute_campaign_rows(campaign: CampaignSpec) -> List[Dict[str, Any]]:
    """Execute every cell and return the concatenated rows.

    The store-free path the thin benchmark wrappers use: the table a
    ``bench_*.py`` module prints is exactly the table the campaign
    persists, produced by the same runner code.
    """
    rows: List[Dict[str, Any]] = []
    for cell in campaign.cells():
        rows.extend(execute_cell(cell.runner, cell.params))
    return rows
