"""repro — reproduction of *An Upload Bandwidth Threshold for Peer-to-Peer
Video-on-Demand Scalability* (Boufkhad, Mathieu, de Montgolfier, Perino,
Viennot — IEEE IPDPS 2009).

The package provides, as a library:

* the paper's system model — ``(n, u, d)``-video systems, striped videos,
  boxes with storage, upload and a playback cache (:mod:`repro.core`);
* the random allocation schemes, the preloading request strategy, the
  max-flow connection matching of Lemma 1 and the heterogeneous relaying
  of Section 4 (:mod:`repro.core`, :mod:`repro.flow`);
* the threshold and obstruction numerics of Theorems 1–2 and Lemmas 2–4
  (:mod:`repro.core.thresholds`, :mod:`repro.core.obstruction`);
* a round-based discrete-event simulator exercising the whole pipeline
  against adversarial and benign workloads (:mod:`repro.sim`,
  :mod:`repro.workloads`);
* the baselines the paper contrasts with (:mod:`repro.baselines`) and the
  analysis/Monte-Carlo harness regenerating every experiment table
  (:mod:`repro.analysis`).

Quickstart
----------
The canonical public surface is the service layer in :mod:`repro.api`:
configure a system, allocate replicas, then open batch runs or stepwise
sessions with online admission and checkpoint/restore.

>>> from repro import VodSystem
>>> system = VodSystem.configure(
...     catalog={"num_videos": 40, "num_stripes": 5, "duration": 40},
...     population=("homogeneous", {"n": 60, "u": 2.0, "d": 4.0}),
...     mu=1.3,
... )
>>> _ = system.allocate("permutation", replicas_per_stripe=4, seed=0)
>>> session = system.open_session(
...     workload=("flashcrowd", {"target_videos": [0]}), workload_seed=0,
...     horizon=10,
... )
>>> session.step().feasible
True
>>> snapshot = session.snapshot()          # restorable, bit-identical
>>> session.run_to_horizon().feasible
True

Note that the replication prescribed by Theorem 1
(:func:`repro.design_homogeneous`) carries the proof's worst-case
constants and is far larger than what simulations need; the experiments
use small empirical ``k`` and compare against the theorem's guarantee.
"""

import warnings as _warnings

from repro.core import (
    Allocation,
    AllocationError,
    BoxPopulation,
    Catalog,
    CompensationError,
    CompensationPlan,
    ConnectionMatcher,
    ConnectionMatching,
    Demand,
    ImmediateRequestScheduler,
    PossessionIndex,
    PreloadingScheduler,
    RELAYED_START_UP_DELAY_ROUNDS,
    RelayedPreloadingScheduler,
    RequestSet,
    START_UP_DELAY_ROUNDS,
    Stripe,
    SystemParameters,
    Video,
    check_feasibility_hall,
    compute_compensation_plan,
    direct_stripe_budget,
    homogeneous_population,
    is_balanced,
    is_upload_compensable,
    pareto_population,
    proportional_population,
    random_independent_allocation,
    random_permutation_allocation,
    round_robin_allocation,
    two_class_population,
)
from repro.core.thresholds import (
    ThresholdDesign,
    catalog_lower_bound_theorem1,
    catalog_lower_bound_theorem2,
    design_heterogeneous,
    design_homogeneous,
    recommended_stripes_heterogeneous,
    recommended_stripes_homogeneous,
)
from repro.core import negative, obstruction, thresholds
from repro.sim import SimulationResult
from repro.api import (
    AdmissionError,
    RoundReport,
    SessionClosedError,
    SessionSnapshot,
    VodSession,
    VodSystem,
    available_components,
    create_component,
    register_component,
)
from repro.workloads import (
    ColdStartAdversary,
    FlashCrowdWorkload,
    LeastReplicatedAdversary,
    MissingVideoAdversary,
    SequentialViewingWorkload,
    StaggeredFlashCrowdWorkload,
    StaticDemandSchedule,
    UniformDemandWorkload,
    ZipfDemandWorkload,
)
from repro.baselines import (
    CentralServerModel,
    SourcingOnlyPossessionIndex,
    full_replication_allocation,
    max_catalog_full_replication,
    sourcing_capacity_bound,
)
from repro import analysis, api, baselines, flow, scenarios, sim, workloads

__version__ = "1.0.0"

#: Legacy construction paths superseded by the repro.api facade: accessing
#: them from the top-level package warns but keeps working, so downstream
#: code migrates without breaking.  (The engine itself remains available,
#: warning-free, at repro.sim.engine.VodSimulator for embedders.)
_DEPRECATED_FACADE_ALIASES = {
    "VodSimulator": (
        "repro.sim.engine",
        "VodSimulator",
        "construct engines through repro.api.VodSystem "
        "(VodSystem.for_allocation(...).build_simulator(...) or open_session(...))",
    ),
}

#: Alias names that have already warned this process: the shim fires once
#: per name, not once per attribute access, so a hot loop over the legacy
#: name cannot flood logs.  Tests reset this set to re-arm the warning.
_warned_aliases: set = set()


def __getattr__(name):
    """Serve deprecated legacy names lazily, with a one-shot migration warning."""
    alias = _DEPRECATED_FACADE_ALIASES.get(name)
    if alias is not None:
        module_name, attr, hint = alias
        if name not in _warned_aliases:
            _warned_aliases.add(name)
            _warnings.warn(
                f"repro.{name} is deprecated; {hint}",
                DeprecationWarning,
                stacklevel=2,
            )
        import importlib

        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "__version__",
    # core model
    "Allocation",
    "AllocationError",
    "BoxPopulation",
    "Catalog",
    "CompensationError",
    "CompensationPlan",
    "ConnectionMatcher",
    "ConnectionMatching",
    "Demand",
    "ImmediateRequestScheduler",
    "PossessionIndex",
    "PreloadingScheduler",
    "RELAYED_START_UP_DELAY_ROUNDS",
    "RelayedPreloadingScheduler",
    "RequestSet",
    "START_UP_DELAY_ROUNDS",
    "Stripe",
    "SystemParameters",
    "Video",
    "check_feasibility_hall",
    "compute_compensation_plan",
    "direct_stripe_budget",
    "homogeneous_population",
    "is_balanced",
    "is_upload_compensable",
    "pareto_population",
    "proportional_population",
    "random_independent_allocation",
    "random_permutation_allocation",
    "round_robin_allocation",
    "two_class_population",
    # thresholds
    "ThresholdDesign",
    "catalog_lower_bound_theorem1",
    "catalog_lower_bound_theorem2",
    "design_heterogeneous",
    "design_homogeneous",
    "recommended_stripes_heterogeneous",
    "recommended_stripes_homogeneous",
    "thresholds",
    "obstruction",
    "negative",
    # service layer (repro.api)
    "VodSystem",
    "VodSession",
    "RoundReport",
    "SessionSnapshot",
    "SessionClosedError",
    "AdmissionError",
    "register_component",
    "create_component",
    "available_components",
    # simulator + workloads.  repro.VodSimulator still resolves (with a
    # DeprecationWarning) via __getattr__, but is kept out of __all__ so
    # `from repro import *` stays warning-free for users who never touch it.
    "SimulationResult",
    "ColdStartAdversary",
    "FlashCrowdWorkload",
    "LeastReplicatedAdversary",
    "MissingVideoAdversary",
    "SequentialViewingWorkload",
    "StaggeredFlashCrowdWorkload",
    "StaticDemandSchedule",
    "UniformDemandWorkload",
    "ZipfDemandWorkload",
    # baselines
    "CentralServerModel",
    "SourcingOnlyPossessionIndex",
    "full_replication_allocation",
    "max_catalog_full_replication",
    "sourcing_capacity_bound",
    # subpackages
    "analysis",
    "api",
    "baselines",
    "flow",
    "scenarios",
    "sim",
    "workloads",
]
