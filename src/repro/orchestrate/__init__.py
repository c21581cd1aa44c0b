"""repro.orchestrate — resumable experiment campaigns over a results store.

The paper's claims are measured by *campaigns*: declarative sweeps of an
experiment runner over grid/list axes (scenario, solver, scale tier,
seeds, engine knobs).  This package turns the former pile of ad-hoc
benchmark scripts into an auditable pipeline:

* :class:`~repro.orchestrate.spec.CampaignSpec` — a JSON-serializable
  sweep declaration; each resolved cell is content-addressed by the
  SHA-256 of its resolved parameters (:func:`~repro.orchestrate.spec.cell_key`);
* :class:`~repro.orchestrate.store.ResultsStore` — an on-disk
  content-addressed store of cell results, so re-runs are incremental
  and interrupted campaigns resume from their completed cells;
* :func:`~repro.orchestrate.runner.run_campaign` — executes the pending
  cells, persisting each cell as it completes;
* :mod:`~repro.orchestrate.campaigns` — the registered campaign
  definitions (the migrated ``benchmarks/bench_*.py`` experiments);
* :mod:`~repro.orchestrate.report` — renders the stored results into
  byte-stable Markdown tables under ``docs/results/``, including the
  claim-map index that EXPERIMENTS.md links into.

``python -m repro.orchestrate`` (list/run/resume/report/diff) is the
command-line surface over all of it.
"""

from repro.orchestrate.campaigns import (
    all_campaigns,
    campaign_names,
    get_campaign,
    register_campaign,
)
from repro.orchestrate.report import generate_reports, render_campaign_report
from repro.orchestrate.runner import ExecutionReport, execute_campaign_rows, run_campaign
from repro.orchestrate.spec import STORE_FORMAT_VERSION, CampaignSpec, CellSpec, cell_key
from repro.orchestrate.store import ResultsStore

__all__ = [
    "STORE_FORMAT_VERSION",
    "CampaignSpec",
    "CellSpec",
    "cell_key",
    "ResultsStore",
    "ExecutionReport",
    "run_campaign",
    "execute_campaign_rows",
    "register_campaign",
    "get_campaign",
    "campaign_names",
    "all_campaigns",
    "generate_reports",
    "render_campaign_report",
]
