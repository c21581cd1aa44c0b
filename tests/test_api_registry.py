"""Component registry, protocol conformance and import hygiene."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.api import (
    COMPONENT_KINDS,
    ChurnModel,
    ComponentLookupError,
    DemandGenerator,
    RequestScheduler,
    Solver,
    VodSystem,
    available_components,
    component_factory,
    create_component,
    register_component,
)
from repro.core.matching import ConnectionMatcher
from repro.core.preloading import ImmediateRequestScheduler, PreloadingScheduler
from repro.core.video import Catalog
from repro.sim.churn import ChurnSchedule, Outage
from repro.workloads.popularity import ZipfDemandWorkload


# ---------------------------------------------------------------------- #
# Registry lookups
# ---------------------------------------------------------------------- #
def test_builtin_components_are_registered():
    components = available_components()
    assert set(components) == set(COMPONENT_KINDS)
    assert set(components["solver"]) == {"dinic", "hopcroft_karp"}
    assert {"preloading", "immediate"} <= set(components["scheduler"])
    assert {"zipf", "uniform", "flashcrowd", "cold_start", "static"} <= set(
        components["workload"]
    )
    assert "random" in components["churn"]
    assert {"homogeneous", "two_class", "pareto"} <= set(components["population"])
    assert {"permutation", "independent", "round_robin", "full_replication"} <= set(
        components["allocation"]
    )


def test_available_components_single_kind():
    assert list(available_components("churn")) == ["churn"]


def test_unknown_kind_raises():
    with pytest.raises(ComponentLookupError):
        component_factory("frobnicator", "x")
    with pytest.raises(ComponentLookupError):
        available_components("frobnicator")


def test_unknown_name_raises_and_is_a_keyerror():
    with pytest.raises(ComponentLookupError):
        component_factory("solver", "simplex")
    with pytest.raises(KeyError):
        component_factory("solver", "simplex")


def test_register_refuses_silent_redefinition():
    with pytest.raises(ValueError):
        register_component("solver", "hopcroft_karp", lambda slots: None)


def test_register_and_overwrite_roundtrip():
    marker = object()
    register_component("workload", "test_only_marker", lambda *a: marker)
    try:
        assert create_component("workload", "test_only_marker") is marker
        replacement = object()
        register_component(
            "workload", "test_only_marker", lambda *a: replacement, overwrite=True
        )
        assert create_component("workload", "test_only_marker") is replacement
    finally:
        # Clean the registry for other tests in this process.
        from repro.api import registry as registry_module

        registry_module._REGISTRY["workload"].pop("test_only_marker", None)


def test_register_validates_inputs():
    with pytest.raises(ValueError):
        register_component("solver", "", lambda slots: None)
    with pytest.raises(TypeError):
        register_component("solver", "not_callable", 42)


def test_solver_factory_builds_the_named_kernel():
    matcher = create_component("solver", "dinic", [2, 2, 2])
    assert isinstance(matcher, ConnectionMatcher)
    assert matcher.solver == "dinic"


def test_custom_registered_solver_is_constructed_by_the_facade():
    """A registered solver name is actually usable, not just validated."""
    built = []

    def factory(upload_slots):
        matcher = ConnectionMatcher(upload_slots, solver="dinic")
        built.append(matcher)
        return matcher

    register_component("solver", "test_only_solver", factory)
    try:
        system = VodSystem.configure(
            catalog={"num_videos": 6, "num_stripes": 4, "duration": 8},
            population=("homogeneous", {"n": 12, "u": 2.0, "d": 3.0}),
        )
        system.allocate("permutation", replicas_per_stripe=3, seed=1)
        session = system.open_session(horizon=3, solver="test_only_solver")
        assert built and session.engine.matcher is built[0]
        session.submit(0, 0)
        assert session.step().matched == 1
    finally:
        from repro.api import registry as registry_module

        registry_module._REGISTRY["solver"].pop("test_only_solver", None)


def test_full_replication_allocation_through_facade():
    system = VodSystem.configure(
        catalog={"num_videos": 3, "num_stripes": 4, "duration": 10},
        population=("homogeneous", {"n": 12, "u": 2.0, "d": 3.0}),
    )
    allocation = system.allocate("full_replication", replicas_per_stripe=3)
    assert allocation.scheme == "full_replication"
    # Every box holds a stripe of every video.
    for box in range(12):
        stripes = allocation.stripes_on_box(box)
        videos = {int(s) // 4 for s in stripes}
        assert videos == {0, 1, 2}


# ---------------------------------------------------------------------- #
# Protocol conformance
# ---------------------------------------------------------------------- #
def test_builtin_components_satisfy_protocols():
    catalog = Catalog(num_videos=4, num_stripes=2, duration=8)
    assert isinstance(ConnectionMatcher([1, 1]), Solver)
    assert isinstance(PreloadingScheduler(catalog), RequestScheduler)
    assert isinstance(ImmediateRequestScheduler(catalog), RequestScheduler)
    assert isinstance(ChurnSchedule([Outage(0, 1, 2)]), ChurnModel)
    assert isinstance(ZipfDemandWorkload(arrival_rate=1.0, random_state=0), DemandGenerator)


def test_non_components_fail_protocol_checks():
    assert not isinstance(object(), Solver)
    assert not isinstance(object(), RequestScheduler)
    assert not isinstance(object(), ChurnModel)


class _OddRoundOutage:
    """A churn model with only the protocol's methods: box 0 is offline on odd rounds."""

    def offline_array(self, time):
        return np.array([0] if time % 2 else [], dtype=np.int64)

    def is_offline(self, box_id, time):
        return box_id == 0 and time % 2 == 1


def test_a_churn_model_with_only_the_protocol_methods_drives_a_session():
    churn = _OddRoundOutage()
    assert isinstance(churn, ChurnModel)
    system = VodSystem.configure(
        catalog={"num_videos": 6, "num_stripes": 4, "duration": 8},
        population=("homogeneous", {"n": 12, "u": 2.0, "d": 3.0}),
    )
    system.allocate("permutation", replicas_per_stripe=3, seed=1)
    session = system.open_session(horizon=4, churn=churn)
    session.submit(1, 0)
    reports = session.step_until(round=4)
    assert [report.offline_boxes for report in reports] == [0, 1, 0, 1]
    assert session.engine.offline_boxes(1) == {0}
    assert session.engine.is_box_offline(0, 3)


def test_a_workload_kind_registered_at_test_time_builds_from_a_spec(monkeypatch):
    """A registered name is usable from a scenario spec, as the registry says."""
    from dataclasses import replace

    from repro.api import registry as registry_module
    from repro.scenarios.build import build_scenario
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.spec import ScenarioSpec, WorkloadPhaseSpec

    built = []

    def factory(params, start, mu, rng):
        workload = component_factory("workload", "uniform")(params, start, mu, rng)
        built.append(workload)
        return workload

    monkeypatch.setitem(
        registry_module._REGISTRY["workload"], "my_uniform", (factory, "test only")
    )
    base = get_scenario("steady_state")
    spec = replace(
        base,
        workload=(WorkloadPhaseSpec(kind="my_uniform", params={"arrival_rate": 2.0}),),
    )
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    result = build_scenario(spec, seed=0).run(3)
    assert len(built) == 1 and result.metrics.rounds == 3
    with pytest.raises(ValueError, match="my_uniform") as excinfo:
        WorkloadPhaseSpec(kind="not_registered")
    assert "'static'" in str(excinfo.value)


# ---------------------------------------------------------------------- #
# Import hygiene
# ---------------------------------------------------------------------- #
def test_engine_path_does_not_warn():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        from repro.sim.engine import VodSimulator  # noqa: F401
        from repro.sim import VodSimulator as sim_alias  # noqa: F401
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


def test_unknown_top_level_attribute_raises():
    with pytest.raises(AttributeError):
        repro.definitely_not_a_name


def test_star_import_does_not_warn():
    # The engine is not a top-level name: it lives at repro.sim.engine.
    assert "VodSimulator" not in repro.__all__
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        namespace = {}
        exec("from repro import *", namespace)
    assert "VodSystem" in namespace
    assert "VodSimulator" not in namespace
