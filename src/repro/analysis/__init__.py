"""Analysis layer: bound numerics, Monte-Carlo estimation, sweeps and reports."""

from repro.analysis.bounds import (
    catalog_bound_vs_n,
    catalog_bound_vs_upload,
    heterogeneous_design_table,
    obstruction_bound_vs_k,
    quality_tradeoff_table,
    replication_vs_upload,
    threshold_design_table,
)
from repro.analysis.montecarlo import (
    MonteCarloResult,
    estimate_simulation_failure_probability,
    estimate_static_obstruction_probability,
    find_max_feasible_catalog,
)
from repro.analysis.report import (
    format_value,
    print_table,
    render_markdown_table,
    render_table,
)
from repro.analysis.sweep import cartesian_grid

__all__ = [
    "catalog_bound_vs_n",
    "catalog_bound_vs_upload",
    "heterogeneous_design_table",
    "obstruction_bound_vs_k",
    "quality_tradeoff_table",
    "replication_vs_upload",
    "threshold_design_table",
    "MonteCarloResult",
    "estimate_simulation_failure_probability",
    "estimate_static_obstruction_probability",
    "find_max_feasible_catalog",
    "format_value",
    "print_table",
    "render_markdown_table",
    "render_table",
    "cartesian_grid",
]
