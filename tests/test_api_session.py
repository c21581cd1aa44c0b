"""The VodSystem facade and the stepwise VodSession lifecycle."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    AdmissionError,
    ApiError,
    ComponentLookupError,
    RoundReport,
    SessionClosedError,
    VodSession,
    VodSystem,
)
from repro.core.allocation import AllocationError
from repro.core.preloading import Demand
from repro.scenarios.build import build_scenario
from repro.scenarios.registry import get_scenario
from repro.sim.churn import ChurnSchedule, Outage


def small_system(n=24, m=8, c=4, u=2.0, d=3.0, k=4, mu=1.5, seed=7) -> VodSystem:
    system = VodSystem.configure(
        catalog={"num_videos": m, "num_stripes": c, "duration": 10},
        population=("homogeneous", {"n": n, "u": u, "d": d}),
        mu=mu,
    )
    system.allocate("permutation", replicas_per_stripe=k, seed=seed)
    return system


# ---------------------------------------------------------------------- #
# Facade construction
# ---------------------------------------------------------------------- #
def test_build_simulator_requires_allocation():
    system = VodSystem.configure(
        catalog={"num_videos": 4, "num_stripes": 2, "duration": 8},
        population=("homogeneous", {"n": 8, "u": 2.0, "d": 2.0}),
    )
    with pytest.raises(ApiError):
        system.build_simulator()


def test_build_simulator_rejects_unknown_solver():
    with pytest.raises(ComponentLookupError):
        small_system().build_simulator(solver="simplex")


def test_scheduler_resolved_by_name():
    engine = small_system().build_simulator(scheduler="immediate")
    assert type(engine.scheduler).__name__ == "ImmediateRequestScheduler"


def test_adopt_allocation_rejects_mismatches():
    system_a = small_system(n=24)
    system_b = small_system(n=16, k=3)
    with pytest.raises(ApiError):
        system_a.adopt_allocation(system_b.allocation)


def test_adopt_allocation_rejects_same_size_different_capacities():
    # Same n, but the allocation was drawn over a 2x-upload population: the
    # engine would enforce capacities the facade does not report.
    system_a = small_system(n=24, u=1.0)
    system_b = small_system(n=24, u=2.0)
    with pytest.raises(ApiError, match="population"):
        system_a.adopt_allocation(system_b.allocation)


def test_adopt_allocation_accepts_equivalent_population():
    system_a = small_system(n=24, seed=7)
    system_b = small_system(n=24, seed=9)  # distinct but equal-capacity pop
    adopted = system_a.adopt_allocation(system_b.allocation)
    assert system_a.allocation is adopted


def test_run_requires_workload():
    with pytest.raises(ApiError):
        small_system().run(None, num_rounds=3)


def test_invalid_workload_spec_rejected():
    with pytest.raises(ApiError):
        small_system().open_session(workload=42)


def test_workload_spec_honors_explicit_mu_override():
    # Same semantics as the scenario compiler: params["mu"] beats system mu.
    system = small_system(mu=1.5)
    session = system.open_session(
        workload=("flashcrowd", {"mu": 3.0, "target_videos": [0]}),
        workload_seed=1,
        horizon=4,
    )
    assert session._workload._mu == 3.0
    default = system.open_session(
        workload=("flashcrowd", {"target_videos": [0]}), workload_seed=1, horizon=4
    )
    assert default._workload._mu == 1.5


# ---------------------------------------------------------------------- #
# Stepwise execution equals batch execution
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["steady_state", "flashcrowd_spike"])
def test_session_rounds_equal_batch_rounds(name):
    spec = get_scenario(name)
    rounds = min(spec.horizon, 10)
    batch = build_scenario(spec).run(rounds)

    session = build_scenario(spec).session(horizon=rounds)
    reports = [session.step() for _ in range(rounds)]

    assert len(batch.metrics.round_stats) == len(reports)
    for stats, report in zip(batch.metrics.round_stats, reports):
        assert stats.time == report.time
        assert stats.active_requests == report.active_requests
        assert stats.new_requests == report.new_requests
        assert stats.matched == report.matched
        assert stats.unmatched == report.unmatched
        assert stats.feasible == report.feasible
        assert stats.upload_used == report.upload_used
        assert stats.upload_capacity == report.upload_capacity

    # The aggregated result agrees too.
    result = session.result()
    assert result.metrics.to_dict() == batch.metrics.to_dict()


def test_step_until_and_remaining_rounds():
    session = build_scenario(get_scenario("steady_state")).session(horizon=8)
    first = session.step_until(rounds=3)
    assert [r.time for r in first] == [0, 1, 2]
    assert session.remaining_rounds == 5
    rest = session.step_until(round=8)
    assert [r.time for r in rest] == [3, 4, 5, 6, 7]
    assert session.closed
    assert session.digest() == session.digest()


def test_step_until_argument_validation():
    session = build_scenario(get_scenario("steady_state")).session(horizon=8)
    with pytest.raises(ValueError):
        session.step_until()
    with pytest.raises(ValueError):
        session.step_until(round=3, rounds=3)
    with pytest.raises(ValueError):
        session.step_until(rounds=-1)
    session.step_until(rounds=4)
    with pytest.raises(ValueError):
        session.step_until(round=2)


# ---------------------------------------------------------------------- #
# Typed errors: exhausted horizon, closed session
# ---------------------------------------------------------------------- #
def test_step_past_horizon_raises_session_closed():
    session = small_system().open_session(horizon=2)
    session.step()
    session.step()
    with pytest.raises(SessionClosedError):
        session.step()


def test_explicit_close_refuses_steps_and_submissions():
    session = small_system().open_session(horizon=10)
    session.step()
    session.close()
    with pytest.raises(SessionClosedError):
        session.step()
    with pytest.raises(SessionClosedError):
        session.submit(0, 0)


def test_run_to_horizon_requires_bounded_session():
    session = small_system().open_session(horizon=None)
    with pytest.raises(ValueError):
        session.run_to_horizon()


def test_run_to_horizon_completes_and_reports():
    session = small_system().open_session(
        workload=("zipf", {"arrival_rate": 2.0}), workload_seed=3, horizon=6
    )
    result = session.run_to_horizon()
    assert result.metrics.rounds == 6
    assert session.closed


# ---------------------------------------------------------------------- #
# Online admission
# ---------------------------------------------------------------------- #
def test_submitted_demand_is_served_next_step():
    session = small_system().open_session(horizon=6)
    assert session.submit_demands([(3, 1)]) == 1
    assert session.pending_demands == ((3, 1),)
    report = session.step()
    assert report.demands_injected == 1
    # One preload request issued at the demand round.
    assert report.new_requests == 1
    assert report.matched == 1
    # c−1 postponed requests follow next round.
    follow_up = session.step()
    assert follow_up.new_requests == 3


def test_submit_busy_box_raises_admission_error():
    session = small_system().open_session(horizon=12)
    session.submit(5, 0)
    session.step()
    # Box 5 now plays for `duration` rounds.
    with pytest.raises(AdmissionError, match="busy"):
        session.submit(5, 1)


def test_submit_offline_box_raises_admission_error():
    system = small_system()
    churn = ChurnSchedule([Outage(box_id=4, start=0, end=5)])
    session = system.open_session(horizon=8, churn=churn)
    with pytest.raises(AdmissionError, match="offline"):
        session.submit(4, 0)
    # Other boxes admit fine.
    session.submit(5, 0)


def test_submit_out_of_range_raises_admission_error():
    session = small_system(n=24, m=8).open_session(horizon=4)
    with pytest.raises(AdmissionError, match="box"):
        session.submit(24, 0)
    with pytest.raises(AdmissionError, match="video"):
        session.submit(0, 8)


def test_double_queue_same_box_raises():
    session = small_system().open_session(horizon=4)
    session.submit(2, 0)
    with pytest.raises(AdmissionError, match="already"):
        session.submit(2, 1)


def test_demand_object_with_wrong_round_rejected():
    session = small_system().open_session(horizon=4)
    with pytest.raises(AdmissionError, match="dated"):
        session.submit_demands([Demand(time=3, box_id=0, video_id=0)])
    # A correctly dated Demand is accepted.
    assert session.submit_demands([Demand(time=0, box_id=0, video_id=0)]) == 1


def test_injected_demands_take_precedence_over_background_workload():
    # The background generator and the injection target the same box: the
    # injected demand wins, the generator's duplicate is dropped.
    system = small_system()
    session = system.open_session(
        workload=("flashcrowd", {"target_videos": [0], "max_members": 4}),
        workload_seed=5,
        horizon=4,
    )
    session.submit(0, 3)
    report = session.step()
    assert report.demands_injected == 1


# ---------------------------------------------------------------------- #
# Live reconfiguration
# ---------------------------------------------------------------------- #
def test_set_capacity_changes_round_capacity():
    system = small_system(n=24, u=2.0, c=4)
    session = system.open_session(horizon=6)
    before = session.step()
    new_slots = session.set_capacity(0, 4.0)
    assert new_slots == 16
    after = session.step()
    assert after.upload_capacity == before.upload_capacity + 8
    with pytest.raises(ValueError):
        session.set_capacity(99, 1.0)
    with pytest.raises(ValueError):
        session.set_capacity(0, -1.0)


def test_join_boxes_extends_population_and_serves_them():
    system = small_system()
    session = system.open_session(horizon=8)
    session.step()
    new_ids = session.join_boxes(uploads=[2.0, 2.0], storages=[0.0, 0.0])
    assert new_ids == [24, 25]
    assert session.engine.population.n == 26
    # A new box can demand a video and be served by the old population.
    session.submit(24, 0)
    report = session.step()
    assert report.demands_injected == 1
    assert report.matched == report.active_requests
    # Capacity grew by 2 boxes × ⌊2.0·4⌋ slots.
    assert report.upload_capacity == 24 * 8 + 2 * 8


def test_add_videos_extends_catalog_and_serves_demand():
    system = small_system(m=8, d=3.0, k=4)
    session = system.open_session(horizon=8)
    session.step()
    new_ids = session.add_videos(2, random_state=11)
    assert new_ids == [8, 9]
    assert session.engine.catalog.num_videos == 10
    allocation = session.engine.allocation
    assert allocation.num_stripes == 10 * 4
    assert allocation.respects_storage()
    # Every new stripe has k replicas placed.
    for stripe in range(8 * 4, 10 * 4):
        assert allocation.replica_boxes_of_stripe(stripe).size == 4
    session.submit(1, 9)
    report = session.step()
    assert report.matched == report.active_requests


def test_add_videos_precondition_failure_leaves_engine_untouched():
    """A scheduler without update_catalog fails BEFORE any mutation."""

    class MinimalScheduler:
        # Implements exactly the RequestScheduler protocol, nothing more.
        start_up_delay = 1

        def on_demand_arrays(self, video_ids, box_ids, demand_indices, time):
            return self.due_arrays(time)

        def due_arrays(self, time):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, np.empty(0, dtype=bool)

    system = small_system()
    session = VodSession(
        system.build_simulator(scheduler=MinimalScheduler()), horizon=4
    )
    engine = session.engine
    catalog_before = engine.catalog
    allocation_before = engine.allocation
    with pytest.raises(RuntimeError, match="update_catalog"):
        session.add_videos(1)
    assert engine.catalog is catalog_before
    assert engine.allocation is allocation_before
    # Demands for the existing catalog still behave.
    session.submit(0, 0)
    assert session.step().demands_injected == 1


def test_add_videos_requires_free_storage():
    # d=1.34, c=4 ⇒ 5 slots/box sized for exactly m*k/n... fill it tight:
    # n=8 boxes × 5 slots = 40 slots; catalog 5 videos × 4 stripes × k=2 = 40.
    system = VodSystem.configure(
        catalog={"num_videos": 5, "num_stripes": 4, "duration": 6},
        population=("homogeneous", {"n": 8, "u": 2.0, "d": 1.25}),
    )
    system.allocate("permutation", replicas_per_stripe=2, seed=1)
    session = system.open_session(horizon=4)
    with pytest.raises(AllocationError):
        session.add_videos(1)


def test_mutations_preserve_snapshot_determinism():
    def drive(session):
        session.step()
        session.join_boxes([2.0], [0.0])
        session.set_capacity(0, 3.0)
        session.add_videos(1, random_state=13)
        session.submit(24, 8)
        return [session.step().to_dict() for _ in range(3)]

    a = small_system().open_session(horizon=8)
    b = small_system().open_session(horizon=8)
    assert drive(a) == drive(b)


# ---------------------------------------------------------------------- #
# RoundReport serialization
# ---------------------------------------------------------------------- #
def test_round_report_json_round_trip():
    session = small_system().open_session(
        workload=("zipf", {"arrival_rate": 2.0}), workload_seed=1, horizon=3
    )
    report = session.step()
    payload = json.dumps(report.to_dict(), sort_keys=True)
    rebuilt = RoundReport.from_dict(json.loads(payload))
    assert rebuilt == report
    assert rebuilt.digest == report.digest
    assert all(
        isinstance(v, (int, bool)) for v in report.to_dict().values()
    ), "RoundReport.to_dict must emit native scalars"


def test_round_report_utilization():
    report = RoundReport(
        time=0,
        active_requests=4,
        new_requests=4,
        matched=4,
        unmatched=0,
        feasible=True,
        upload_used=4,
        upload_capacity=16,
        demands_injected=0,
        demands_rejected=0,
        playback_starts=0,
        offline_boxes=0,
    )
    assert report.utilization == 0.25
    zero = RoundReport.from_dict({**report.to_dict(), "upload_capacity": 0})
    assert zero.utilization == 0.0
