"""Component registry, protocol conformance and the deprecation shim."""

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


# ---------------------------------------------------------------------- #
# Legacy deprecation shim
# ---------------------------------------------------------------------- #
def test_top_level_vodsimulator_warns_and_resolves():
    repro._warned_aliases.clear()  # re-arm the one-shot warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        legacy = repro.VodSimulator
    deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
    assert len(deprecations) == 1
    # stacklevel=2 must attribute the warning to this file (the caller of
    # the attribute access), not to repro/__init__.py.
    assert deprecations[0].filename == __file__
    from repro.sim.engine import VodSimulator

    assert legacy is VodSimulator


def test_top_level_vodsimulator_warns_exactly_once():
    repro._warned_aliases.clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = repro.VodSimulator
        second = repro.VodSimulator
    assert first is second
    deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
    assert len(deprecations) == 1


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
    # VodSimulator stays resolvable (with a warning) but out of __all__, so
    # wildcard imports under warnings-as-errors keep working.
    assert "VodSimulator" not in repro.__all__
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        namespace = {}
        exec("from repro import *", namespace)
    assert "VodSystem" in namespace
    assert "VodSimulator" not in namespace
