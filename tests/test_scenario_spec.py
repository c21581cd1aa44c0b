"""Scenario spec, registry and compiler tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.preloading import Demand
from repro.scenarios.build import build_scenario
from repro.scenarios.phases import PhasedWorkload, WorkloadPhase
from repro.scenarios.registry import all_scenarios, get_scenario, register, scenario_names
from repro.scenarios.spec import (
    AllocationSpec,
    CatalogSpec,
    ChurnSpec,
    PopulationSpec,
    ScenarioSpec,
    WorkloadPhaseSpec,
)
from repro.workloads.base import StaticDemandSchedule


def _minimal_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="mini",
        description="minimal test scenario",
        catalog=CatalogSpec(num_videos=4, num_stripes=3, duration=6),
        population=PopulationSpec("homogeneous", {"n": 12, "u": 2.0, "d": 2.0}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=2),
        workload=(WorkloadPhaseSpec("uniform", params={"arrival_rate": 1.0}),),
        horizon=6,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestSpecValidation:
    def test_unknown_population_kind(self):
        with pytest.raises(ValueError, match="population kind"):
            PopulationSpec("exotic", {})

    def test_unknown_allocation_scheme(self):
        with pytest.raises(ValueError, match="allocation scheme"):
            AllocationSpec("striped")

    def test_unknown_workload_kind(self):
        with pytest.raises(ValueError, match="workload kind"):
            WorkloadPhaseSpec("bursty")

    def test_phase_window_ordering(self):
        with pytest.raises(ValueError, match="after its start"):
            WorkloadPhaseSpec("uniform", start=5, stop=5, params={"arrival_rate": 1.0})

    def test_scenario_requires_workload(self):
        with pytest.raises(ValueError, match="workload phase"):
            _minimal_spec(workload=())

    def test_scenario_rejects_unknown_solver(self):
        with pytest.raises(ValueError, match="solver"):
            _minimal_spec(solver="simplex")

    def test_churn_validation(self):
        with pytest.raises(ValueError):
            ChurnSpec(failure_probability=1.5, outage_duration=2)
        with pytest.raises(ValueError):
            ChurnSpec(failure_probability=0.1, outage_duration=0)


class TestSerialization:
    @pytest.mark.parametrize("name", scenario_names())
    def test_registry_specs_roundtrip_through_json_dicts(self, name):
        spec = get_scenario(name)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_golden_embedded_specs_serialize_byte_stable(self):
        """Pre-existing golden spec dicts survive the workload tier untouched.

        The tier added new *values* to the kind enums but no new
        ScenarioSpec fields, so parsing and re-serializing each committed
        golden's embedded spec must reproduce the committed JSON byte for
        byte (canonical form).  A mismatch means a new field leaked into
        default serialization instead of being omitted-when-default.
        """
        import json
        from pathlib import Path

        golden_dir = Path(__file__).parent / "golden"
        checked = 0
        for path in sorted(golden_dir.glob("*.json")):
            embedded = json.loads(path.read_text())["spec"]
            reserialized = ScenarioSpec.from_dict(embedded).to_dict()
            canonical = lambda d: json.dumps(d, sort_keys=True, separators=(",", ":"))
            assert canonical(reserialized) == canonical(embedded), (
                f"embedded spec of {path.name} changed shape on round-trip"
            )
            checked += 1
        assert checked >= 12  # the 8 pre-existing + the 4 workload-tier goldens

    def test_from_dict_rejects_unknown_keys(self):
        """A key this build has no field for fails loudly, naming the key.

        ``"engine": "event"`` selected a clock mode that no longer exists;
        dropping it silently would run the spec on the round engine.
        ``"warm_start"`` was the matching switch every round now ignores:
        a spec recorded with it is rejected like any other unknown key.
        """
        for key, value in (("engine", "event"), ("warm_start", True)):
            data = get_scenario("steady_state").to_dict()
            data[key] = value
            with pytest.raises(ValueError, match=f"unknown scenario spec keys: {key}"):
                ScenarioSpec.from_dict(data)

    def test_churn_and_overrides_roundtrip(self):
        spec = _minimal_spec(
            churn=ChurnSpec(0.05, 3, protected_boxes=(0, 1)),
            solver="dinic",
            default_seed=9,
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.churn.protected_boxes == (0, 1)

    def test_with_overrides(self):
        spec = _minimal_spec()
        tweaked = spec.with_overrides(horizon=3, solver="dinic")
        assert tweaked.horizon == 3
        assert tweaked.solver == "dinic"
        # Untouched fields carry over.
        assert tweaked.catalog == spec.catalog
        assert spec.horizon == 6


class TestRegistry:
    def test_registry_has_the_eight_scenarios(self):
        assert len(scenario_names()) >= 8
        for spec in all_scenarios():
            assert spec.description
            assert spec.paper_claim

    def test_unknown_scenario_lookup(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("does_not_exist")

    def test_duplicate_registration_refused(self):
        spec = get_scenario("steady_state")
        with pytest.raises(ValueError, match="already registered"):
            register(spec)
        register(spec, overwrite=True)  # explicit overwrite is allowed


class TestCompiler:
    def test_same_seed_builds_identical_components(self):
        spec = get_scenario("churn_storm")
        a = build_scenario(spec, seed=5)
        b = build_scenario(spec, seed=5)
        assert np.array_equal(a.allocation.replica_box, b.allocation.replica_box)
        assert a.churn is not None and b.churn is not None
        assert a.churn.outages == b.churn.outages
        assert np.array_equal(a.population.uploads, b.population.uploads)

    def test_different_seeds_build_different_allocations(self):
        spec = get_scenario("steady_state")
        a = build_scenario(spec, seed=1)
        b = build_scenario(spec, seed=2)
        assert not np.array_equal(a.allocation.replica_box, b.allocation.replica_box)

    def test_default_seed_is_used(self):
        spec = _minimal_spec(default_seed=17)
        assert build_scenario(spec).seed == 17

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_scenario(_minimal_spec(), seed=-1)

    def test_two_class_population_is_built(self):
        compiled = build_scenario(get_scenario("hetero_upload_tiers"), seed=0)
        uploads = compiled.population.uploads
        assert set(np.unique(uploads)) == {1.0, 3.0}

    def test_run_executes_for_horizon(self):
        compiled = build_scenario(_minimal_spec(), seed=1)
        result = compiled.run()
        assert result.metrics.rounds == 6

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("zipf", {"arrival_rate": 1.0, "exponent": 0.7}),
            ("uniform", {"arrival_rate": 1.0}),
            ("flashcrowd", {"target_videos": [0], "max_members": 5}),
            (
                "staggered_flashcrowd",
                {"target_videos": [0, 1], "start_times": [0, 2], "max_members": 4},
            ),
            ("sequential", {"boxes": [0, 1, 2], "playlist": [0, 1]}),
            ("missing_video", {"max_demands_per_round": 2, "respect_growth": True}),
            ("least_replicated", {"num_target_videos": 1}),
            ("cold_start", {"max_demands_per_round": 2}),
            ("drift", {"arrival_rate": 1.0, "exponent": 0.9, "drift_period": 2}),
            (
                "flash_rotation",
                {"arrival_rate": 1.0, "hot_videos": 2, "rotation_period": 2,
                 "boost": 4.0},
            ),
        ],
    )
    def test_every_workload_kind_compiles_and_runs(self, kind, params):
        spec = _minimal_spec(
            workload=(WorkloadPhaseSpec(kind, params=params),), horizon=3
        )
        result = build_scenario(spec, seed=2).run()
        assert result.metrics.rounds == 3

    @pytest.mark.parametrize(
        "scheme,params",
        [("independent", {"on_full": "redraw"}), ("round_robin", {"offset": 1})],
    )
    def test_every_allocation_scheme_compiles(self, scheme, params):
        spec = _minimal_spec(
            allocation=AllocationSpec(scheme, replicas_per_stripe=2, params=params)
        )
        compiled = build_scenario(spec, seed=3)
        assert compiled.allocation.scheme == scheme

    def test_trace_workload_compiles_and_runs(self):
        # The bundled fixture was recorded over 16 videos, so the trace
        # kind gets its own catalog rather than the 4-video minimal one.
        spec = _minimal_spec(
            catalog=CatalogSpec(num_videos=16, num_stripes=3, duration=6),
            population=PopulationSpec("homogeneous", {"n": 24, "u": 2.0, "d": 4.0}),
            workload=(WorkloadPhaseSpec("trace", params={"trace": "zipf_small"}),),
            horizon=3,
        )
        result = build_scenario(spec, seed=2).run()
        assert result.metrics.rounds == 3

    def test_hierarchical_cache_allocation_compiles(self):
        tiers = {"cdn_count": 2, "vcdn_count": 4, "mucdn_count": 6, "client_count": 0}
        spec = _minimal_spec(
            population=PopulationSpec("tiered", tiers),
            allocation=AllocationSpec(
                "hierarchical_cache", replicas_per_stripe=2, params=tiers
            ),
        )
        compiled = build_scenario(spec, seed=3)
        assert compiled.allocation.scheme == "hierarchical_cache"
        assert compiled.population.n == 12

    def test_pareto_population_compiles(self):
        spec = _minimal_spec(
            population=PopulationSpec(
                "pareto",
                {"n": 12, "u_min": 1.0, "shape": 2.0, "storage_per_upload": 2.0,
                 "u_cap": 4.0},
            )
        )
        compiled = build_scenario(spec, seed=4)
        assert compiled.population.n == 12
        assert compiled.population.max_upload <= 4.0


class TestPhasedWorkload:
    def test_requires_at_least_one_phase(self):
        with pytest.raises(ValueError, match="at least one phase"):
            PhasedWorkload(())

    def test_window_gating_and_dedup(self):
        demands_a = [Demand(time=t, box_id=0, video_id=0) for t in range(4)]
        demands_b = [Demand(time=t, box_id=0, video_id=1) for t in range(4)] + [
            Demand(time=t, box_id=1, video_id=1) for t in range(4)
        ]
        workload = PhasedWorkload(
            [
                WorkloadPhase(StaticDemandSchedule(demands_a), start=0, stop=2),
                WorkloadPhase(StaticDemandSchedule(demands_b), start=1),
            ]
        )

        class _View:
            free_boxes = np.array([0, 1], dtype=np.int64)

            def __init__(self, time):
                self.time = time

        def arrivals(time):
            boxes, videos = workload.demand_arrays_for_round(_View(time))
            return list(zip(boxes.tolist(), videos.tolist()))

        # Round 0: only phase A is active.
        assert arrivals(0) == [(0, 0)]
        # Round 1: both active; box 0 deduped in favour of phase A.
        assert arrivals(1) == [(0, 0), (1, 1)]
        # Round 2: phase A's window is over.
        assert arrivals(2) == [(0, 1), (1, 1)]
        # The object form, which the benchmark tracer wraps, agrees.
        assert workload.demands_for_round(_View(2)) == [
            Demand(time=2, box_id=0, video_id=1),
            Demand(time=2, box_id=1, video_id=1),
        ]
