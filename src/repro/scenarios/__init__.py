"""Named, reproducible end-to-end scenarios.

This subsystem turns the repo's hand-wired experiment scripts into one
declarative layer:

* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec` and its component
  specs (catalog, population, allocation, workload phases, churn), all
  JSON-round-trippable;
* :mod:`repro.scenarios.build` — the compiler wiring a spec + master seed
  into a :class:`~repro.sim.engine.VodSimulator` run, with every random
  stream derived from the seed;
* :mod:`repro.scenarios.registry` — the named scenarios (steady state,
  flash-crowd spike, adaptive adversary, upload tiers, churn storm,
  catalog ramp, warm/cold restart, near-threshold load);
* :mod:`repro.scenarios.replay` — per-round metric digests, golden
  traces and bit-identical replay verification;
* :mod:`repro.scenarios.oracle` — the differential solver harness
  cross-checking the Hopcroft–Karp hot path against the Dinic and
  push–relabel max-flow oracles at simulation scale;
* :mod:`repro.scenarios.cli` — ``python -m repro.scenarios run <name>``.
"""

from repro.scenarios.build import (
    CompiledScenario,
    build_full_solve_twin,
    build_scenario,
)
from repro.scenarios.oracle import (
    OracleReport,
    check_matching_instance,
    run_differential_oracle,
)
from repro.scenarios.phases import PhasedWorkload, WorkloadPhase
from repro.scenarios.registry import (
    all_scenarios,
    get_scenario,
    register,
    scenario_names,
)
from repro.scenarios.replay import (
    ScenarioRun,
    diff_golden,
    digest_result,
    load_golden,
    run_scenario,
    verify_golden_file,
    write_golden,
)
from repro.scenarios.scale import (
    SCALE_TIERS,
    SoakReport,
    run_soak,
    scale_tier_spec,
    soak_spec,
)
from repro.scenarios.spec import (
    AllocationSpec,
    CatalogSpec,
    ChurnSpec,
    PopulationSpec,
    ScenarioSpec,
    WorkloadPhaseSpec,
)

__all__ = [
    "AllocationSpec",
    "CatalogSpec",
    "ChurnSpec",
    "CompiledScenario",
    "OracleReport",
    "PhasedWorkload",
    "PopulationSpec",
    "SCALE_TIERS",
    "ScenarioRun",
    "ScenarioSpec",
    "SoakReport",
    "WorkloadPhase",
    "WorkloadPhaseSpec",
    "all_scenarios",
    "build_full_solve_twin",
    "build_scenario",
    "check_matching_instance",
    "diff_golden",
    "digest_result",
    "get_scenario",
    "load_golden",
    "register",
    "run_differential_oracle",
    "run_scenario",
    "run_soak",
    "scale_tier_spec",
    "scenario_names",
    "soak_spec",
    "verify_golden_file",
    "write_golden",
]
