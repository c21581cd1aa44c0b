"""The scenario-level fault-injection layer: plans, drivers, recovery.

Covers the determinism contract (same spec + seed ⇒ same fault events ⇒
same run digest), batch/session parity for faulted runs, snapshot
recovery *through* a fault window, and the lean serialization of a
round report's flags.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import VodSession
from repro.faults.plan import (
    FAULT_KINDS,
    FaultEvent,
    box_crash_plan,
    build_fault_driver,
)
from repro.scenarios.build import build_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.replay import _round_records, _summary, run_scenario
from repro.scenarios.spec import FaultSpec, ScenarioSpec

CHAOS_NAMES = ("chaos_box_crash", "chaos_brownout")


def _with_faults(base_name: str, *faults: FaultSpec) -> ScenarioSpec:
    return dataclasses.replace(get_scenario(base_name), faults=tuple(faults))


# ---------------------------------------------------------------------- #
# Specs and events
# ---------------------------------------------------------------------- #
def test_fault_spec_roundtrips_through_dict():
    spec = _with_faults(
        "steady_state", FaultSpec("box_crash", {"start": 2, "fraction": 0.2})
    )
    restored = ScenarioSpec.from_dict(spec.to_dict())
    assert restored == spec
    assert restored.faults[0].kind == "box_crash"


def test_fault_free_spec_dict_has_no_faults_key():
    # Golden compatibility: adding the faults field must not change the
    # serialized form (and therefore the digests) of fault-free specs.
    assert "faults" not in get_scenario("steady_state").to_dict()


def test_fault_spec_rejects_empty_kind():
    with pytest.raises(ValueError, match="kind"):
        FaultSpec("", {})


def test_fault_event_validates_action_and_time():
    with pytest.raises(ValueError, match="action"):
        FaultEvent(0, "reboot")
    with pytest.raises(ValueError, match="time"):
        FaultEvent(-1, "set_capacity")


def test_box_crash_plan_pairs_crash_with_rejoin():
    population = build_scenario(get_scenario("steady_state"), seed=0).population
    plan = box_crash_plan(
        {"start": 2, "duration": 3, "boxes": [5, 7]},
        population,
        horizon=24,
        rng=np.random.default_rng(0),
    )
    crash = [e for e in plan.events if e.time == 2]
    rejoin = [e for e in plan.events if e.time == 5]
    assert {e.box_id for e in crash} == {5, 7}
    assert all(e.value == 0.0 for e in crash)
    assert {e.box_id for e in rejoin} == {5, 7}
    assert all(e.value == float(population.uploads[e.box_id]) for e in rejoin)


def test_fault_window_beyond_horizon_rejected():
    spec = _with_faults("steady_state", FaultSpec("box_crash", {"start": 99}))
    with pytest.raises(ValueError, match="horizon"):
        build_scenario(spec, seed=0)


def test_build_fault_driver_requires_one_rng_per_spec():
    population = build_scenario(get_scenario("steady_state"), seed=0).population
    with pytest.raises(ValueError, match="one rng per fault spec"):
        build_fault_driver(
            (FaultSpec("box_crash", {}),), population, 24, rngs=[]
        )


def test_all_fault_kinds_are_registered_components():
    from repro.api.registry import available_components

    assert set(FAULT_KINDS) <= set(available_components("fault")["fault"])


# ---------------------------------------------------------------------- #
# Determinism and parity
# ---------------------------------------------------------------------- #
def test_fault_plans_are_seed_deterministic():
    spec = _with_faults(
        "steady_state", FaultSpec("box_crash", {"start": 2, "fraction": 0.2})
    )
    a = build_scenario(spec, seed=7).fault_driver.events
    b = build_scenario(spec, seed=7).fault_driver.events
    c = build_scenario(spec, seed=8).fault_driver.events
    assert a == b
    assert a != c  # different seed draws different boxes


def test_adding_faults_keeps_prior_streams_untouched():
    # The fault streams are spawned after all pre-existing ones, so the
    # faulted population must equal the fault-free population draw.
    base = get_scenario("steady_state")
    faulted = _with_faults("steady_state", FaultSpec("brownout", {"start": 2}))
    p0 = build_scenario(base, seed=11).population
    p1 = build_scenario(faulted, seed=11).population
    assert np.array_equal(p0.uploads, p1.uploads)
    assert np.array_equal(p0.storages, p1.storages)


@pytest.mark.parametrize("name", CHAOS_NAMES)
def test_faulted_batch_run_equals_stepped_session(name):
    spec = get_scenario(name)
    batch = build_scenario(spec, seed=3).run()
    session = build_scenario(spec, seed=3).session()
    stepped = session.run_to_horizon()
    assert _round_records(batch) == _round_records(stepped)
    assert _summary(batch) == _summary(stepped)


def test_crash_burst_changes_metrics_but_replays_identically():
    spec = get_scenario("chaos_box_crash")
    run_a = run_scenario(spec, seed=5)
    run_b = run_scenario(spec, seed=5)
    fault_free = run_scenario(dataclasses.replace(spec, faults=()), seed=5)
    assert run_a.digest == run_b.digest
    assert run_a.digest != fault_free.digest


def test_snapshot_restore_through_fault_window():
    # Checkpoint *inside* the crash window: the restored continuation
    # must replay the remaining fault events (including the rejoins).
    spec = get_scenario("chaos_box_crash")
    baseline = build_scenario(spec, seed=2).session()
    baseline.step_until(round=spec.horizon)
    expected = [r.to_dict() for r in baseline.reports]

    interrupted = build_scenario(spec, seed=2).session()
    interrupted.step_until(round=6)  # crash at 4, rejoin at 8
    restored = VodSession.restore(interrupted.snapshot())
    restored.step_until(round=spec.horizon)
    assert [r.to_dict() for r in restored.reports] == expected


# ---------------------------------------------------------------------- #
# Round report flags
# ---------------------------------------------------------------------- #
def test_round_report_repair_fallback_flag_roundtrip_and_lean_serialization():
    from repro.api.session import RoundReport

    compiled = build_scenario(get_scenario("near_threshold_load"), seed=9)
    session = compiled.session(horizon=16)
    session.engine.matcher.set_repair_search_budget(0)
    reports = session.step_until(round=16)
    flagged = [r for r in reports if r.repair_fallback]
    clean = [r for r in reports if not r.repair_fallback]
    assert flagged and clean
    # Rounds without a fallback serialize without the key (golden/digest
    # compat); flagged rounds carry it and round-trip.
    assert "repair_fallback" not in clean[0].to_dict()
    assert flagged[0].to_dict()["repair_fallback"] == 1
    assert RoundReport.from_dict(flagged[0].to_dict()) == flagged[0]
    assert RoundReport.from_dict(clean[0].to_dict()) == clean[0]


def test_fault_recovery_runner_row_shape_and_guarantees():
    # The cell behind the committed fault_recovery table: every pinned
    # column must be present and the recovery booleans must hold.
    from repro.faults.campaign import FAULT_RECOVERY_CAMPAIGN, run_fault_recovery

    (row,) = run_fault_recovery({"scenario": "chaos_box_crash", "seed": 0})
    assert row["scenario"] == "chaos_box_crash"
    assert row["recovered_matches"] is True
    assert row["truncated_detected"] is True
    assert row["matches_fault_free"] is False  # crashes genuinely change the run
    assert len(row["digest"]) > 0
    assert FAULT_RECOVERY_CAMPAIGN.runner == "fault_recovery"
    assert set(FAULT_RECOVERY_CAMPAIGN.grid["scenario"]) == set(CHAOS_NAMES)
