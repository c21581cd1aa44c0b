"""Snapshot/restore determinism of the stepwise session layer.

The property: for any scenario, solver and split point ``k``,
``snapshot after k rounds → restore → step to the horizon`` produces
per-round metric digests bit-identical to an uninterrupted run — i.e. a
snapshot captures the *entire* deterministic state (clock, swarms,
caches, possession index, RNG streams, warm-start assignment, pending
requests).
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import VodSession
from repro.scenarios.build import build_scenario
from repro.scenarios.registry import get_scenario

#: Scenario/solver grid pinned by the acceptance criteria: ≥3 registry
#: scenarios (covering churn, flash crowds and steady demand) × both the
#: Hopcroft–Karp kernel and the Dinic max-flow oracle.
SNAPSHOT_GRID = [
    (name, solver)
    for name in ("steady_state", "flashcrowd_spike", "churn_storm", "near_threshold_load")
    for solver in ("hopcroft_karp", "dinic")
]

ROUNDS = 10
SPLIT = 4


def _session_for(name: str, solver: str, rounds: int) -> VodSession:
    spec = get_scenario(name).with_overrides(solver=solver)
    return build_scenario(spec, min_horizon=rounds).session(horizon=rounds)


@pytest.mark.parametrize("name,solver", SNAPSHOT_GRID)
def test_snapshot_restore_step_matches_uninterrupted_run(name, solver):
    baseline = _session_for(name, solver, ROUNDS)
    baseline.step_until(round=ROUNDS)
    expected = [report.to_dict() for report in baseline.reports]
    expected_digests = [report.digest for report in baseline.reports]

    interrupted = _session_for(name, solver, ROUNDS)
    interrupted.step_until(round=SPLIT)
    snapshot = interrupted.snapshot()

    restored = VodSession.restore(snapshot)
    assert restored.now == SPLIT
    assert restored.rounds_completed == SPLIT
    restored.step_until(round=ROUNDS)

    assert [r.to_dict() for r in restored.reports] == expected
    assert [r.digest for r in restored.reports] == expected_digests
    assert restored.digest() == baseline.digest()

    # The aggregated SimulationResult agrees too (startup delays, swarm
    # violations, trace length — everything the metrics expose).
    assert (
        restored.result().metrics.to_dict() == baseline.result().metrics.to_dict()
    )


@pytest.mark.parametrize("name,solver", [("steady_state", "hopcroft_karp")])
def test_snapshot_is_restorable_multiple_times(name, solver):
    session = _session_for(name, solver, ROUNDS)
    session.step_until(round=SPLIT)
    snapshot = session.snapshot()

    first = VodSession.restore(snapshot)
    second = VodSession.restore(snapshot)
    assert first is not second
    first.step_until(round=ROUNDS)
    second.step_until(round=ROUNDS)
    assert first.digest() == second.digest()

    # The original session keeps stepping independently and identically.
    session.step_until(round=ROUNDS)
    assert session.digest() == first.digest()


def test_snapshot_file_round_trip(tmp_path):
    from repro.api import SessionSnapshot

    session = _session_for("flashcrowd_spike", "hopcroft_karp", ROUNDS)
    session.step_until(round=SPLIT)
    snapshot = session.snapshot()
    path = snapshot.to_file(tmp_path / "checkpoints" / "mid.ckpt")
    loaded = SessionSnapshot.from_file(path)
    assert loaded.time == SPLIT
    assert loaded.rounds_completed == SPLIT

    session.step_until(round=ROUNDS)
    restored = VodSession.restore(loaded)
    restored.step_until(round=ROUNDS)
    assert restored.digest() == session.digest()


def test_snapshot_preserves_pending_injected_demands():
    session = _session_for("steady_state", "hopcroft_karp", ROUNDS)
    session.step_until(round=SPLIT)
    session.submit(0, 1)
    snapshot = session.snapshot()

    restored = VodSession.restore(snapshot)
    assert restored.pending_demands == ((0, 1),)
    a = session.step()
    b = restored.step()
    assert a == b
    assert a.demands_injected == 1


def test_from_file_rejects_non_snapshots(tmp_path):
    import pickle

    from repro.api import SessionSnapshot

    path = tmp_path / "junk.ckpt"
    path.write_bytes(pickle.dumps({"not": "a snapshot"}))
    with pytest.raises(ValueError):
        SessionSnapshot.from_file(path)


class TestSnapshotFormatVersioning:
    """Snapshots are versioned: payloads pickle engine internals, so a
    layout change (the PR-4 struct-of-arrays core) bumps the format and
    older files must fail with a typed, documented error instead of
    deserializing into a torn engine."""

    FIXTURE_V1 = Path(__file__).parent / "fixtures" / "session_snapshot_v1.bin"

    def test_current_format_version_is_3(self):
        from repro.api.session import SNAPSHOT_FORMAT_VERSION

        assert SNAPSHOT_FORMAT_VERSION == 3

    def test_loading_a_v1_fixture_raises_a_typed_error(self):
        from repro.api import SessionSnapshot, SnapshotFormatError

        assert self.FIXTURE_V1.exists(), "pre-refactor fixture missing"
        with pytest.raises(SnapshotFormatError, match="format version 1"):
            SessionSnapshot.from_file(self.FIXTURE_V1)

    @pytest.mark.parametrize(
        "fixture", ["session_snapshot_sharded.bin", "session_snapshot_event.bin"]
    )
    def test_snapshot_of_a_removed_engine_mode_raises_a_format_error(self, fixture):
        """Checkpoints of the removed sharded and event-driven modes.

        Both fixtures (``steady_state``, seed 1, 3 rounds; one on 2 inline
        shards, one on the event clock) were recorded while those modes
        existed, under snapshot format 2.  Their framing and checksum still
        verify, so what fails is the format check: that must read as a
        format error with a re-record hint, not as a corrupt payload.
        """
        from repro.api import (
            SessionSnapshot,
            SnapshotFormatError,
            SnapshotIntegrityError,
            VodSession,
        )

        path = Path(__file__).parent / "fixtures" / fixture
        with pytest.raises(SnapshotFormatError, match="re-record") as excinfo:
            VodSession.restore(SessionSnapshot.from_file(path))
        assert not isinstance(excinfo.value, SnapshotIntegrityError)

    def test_payload_naming_missing_code_raises_a_format_error(self):
        """A checksummed current-version payload whose classes are gone.

        The payload pickles an instance of a class from a module that is
        then removed, as a refactor would remove an engine class: restore
        must report a format error with a re-record hint, not corruption.
        """
        import hashlib
        import pickle
        import sys
        import types

        from repro.api import SessionSnapshot, SnapshotFormatError, SnapshotIntegrityError

        module = types.ModuleType("repro_snapshot_vanished_module")
        exec("class VanishedEngine:\n    pass\n", module.__dict__)
        sys.modules[module.__name__] = module
        try:
            payload = pickle.dumps(module.VanishedEngine())
        finally:
            del sys.modules[module.__name__]
        snapshot = SessionSnapshot(
            payload=payload,
            time=0,
            rounds_completed=0,
            payload_sha256=hashlib.sha256(payload).hexdigest(),
        )
        with pytest.raises(SnapshotFormatError, match="re-record") as excinfo:
            VodSession.restore(snapshot)
        assert not isinstance(excinfo.value, SnapshotIntegrityError)

    def test_restore_rejects_stale_in_memory_snapshots(self):
        from repro.api import SessionSnapshot, SnapshotFormatError, VodSession

        stale = SessionSnapshot(
            payload=b"irrelevant", time=3, rounds_completed=3, format_version=1
        )
        with pytest.raises(SnapshotFormatError, match="re-record"):
            VodSession.restore(stale)

    def test_snapshot_format_error_is_an_api_error(self):
        from repro.api import ApiError, SnapshotFormatError

        assert issubclass(SnapshotFormatError, ApiError)

    def test_fresh_snapshots_carry_the_current_version_and_round_trip(self, tmp_path):
        from repro.api import SessionSnapshot, VodSession
        from repro.api.session import SNAPSHOT_FORMAT_VERSION

        session = _session_for("steady_state", "hopcroft_karp", 6)
        session.step_until(rounds=3)
        snapshot = session.snapshot()
        assert snapshot.format_version == SNAPSHOT_FORMAT_VERSION
        path = snapshot.to_file(tmp_path / "current.ckpt")
        restored = VodSession.restore(SessionSnapshot.from_file(path))
        assert restored.rounds_completed == 3


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(split=st.integers(min_value=0, max_value=ROUNDS))
def test_snapshot_restore_property_any_split_point(split):
    """Hypothesis property: the split point never matters."""
    baseline = _session_for("steady_state", "hopcroft_karp", ROUNDS)
    baseline.step_until(round=ROUNDS)

    interrupted = _session_for("steady_state", "hopcroft_karp", ROUNDS)
    interrupted.step_until(round=split)
    restored = VodSession.restore(interrupted.snapshot())
    restored.step_until(round=ROUNDS)
    assert restored.digest() == baseline.digest()
