"""Snapshot/restore determinism of the stepwise session layer.

The property: for any scenario, solver and split point ``k``,
``snapshot after k rounds → restore → step to the horizon`` produces
per-round metric digests bit-identical to an uninterrupted run — i.e. a
snapshot captures the *entire* deterministic state (clock, swarms,
caches, possession index, RNG streams, warm-start assignment, pending
requests).
"""

from __future__ import annotations

import io
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import VodSession
from repro.scenarios.build import build_scenario
from repro.scenarios.registry import get_scenario, scenario_names

#: Every registered scenario but the scale tiers on the Hopcroft–Karp
#: kernel, and four of them (churn, flash crowds, steady demand, the
#: threshold) on the Dinic max-flow oracle too.
SNAPSHOT_GRID = [
    (name, "hopcroft_karp")
    for name in scenario_names()
    if not name.startswith("scale_tier_")
] + [
    (name, "dinic")
    for name in ("steady_state", "flashcrowd_spike", "churn_storm", "near_threshold_load")
]

ROUNDS = 10
SPLIT = 4


def _session_for(name: str, solver: str, rounds: int) -> VodSession:
    spec = get_scenario(name).with_overrides(solver=solver)
    return build_scenario(spec, min_horizon=rounds).session(horizon=rounds)


def _arrays_on_copied_dtypes(session: VodSession) -> list:
    """The arrays in ``session``'s state whose dtype is not NumPy's own instance.

    Found by re-pickling the session through a recording
    ``reducer_override``.  ``ufunc.at`` leaves its fast loop on a copied
    dtype, so a restored session holding one steps slowly.
    """
    met = []

    class Recorder(pickle.Pickler):
        def reducer_override(self, obj):
            if isinstance(obj, np.ndarray):
                met.append(obj)
            return NotImplemented

    Recorder(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(session)
    assert met
    return [a for a in met if a.dtype is not np.dtype(a.dtype.str)]


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
    # The payload holds only live rows, and its arrays load on NumPy's
    # own dtypes.
    engine = restored.engine
    pool = engine._pool
    assert {getattr(pool, column).size for column in pool._COLUMNS} == {len(pool)}
    assert {getattr(engine, column).size for column in engine._DEMAND_COLUMNS} == {
        engine._demand_count
    }
    assert _arrays_on_copied_dtypes(restored) == []
    # A restored session re-pickles to the payload it came from.
    assert restored.snapshot().payload == snapshot.payload
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


def test_a_round_observer_stays_out_of_the_snapshot():
    """The engine leaves its round observer out of its pickled state.

    The observer here is a lambda, which pickle refuses, so the snapshot
    succeeds only if the observer is left out.  The live session keeps it.
    """
    seen: list = []
    observer = lambda observation: seen.append(observation.time)  # noqa: E731
    session = build_scenario(
        get_scenario("churn_storm"), seed=1, round_observer=observer
    ).session()
    session.step_until(rounds=3)
    snapshot = session.snapshot()

    restored = VodSession.restore(snapshot)
    assert restored.engine._round_observer is None
    assert session.engine._round_observer is observer
    assert seen == [0, 1, 2]
    session.step()
    assert seen == [0, 1, 2, 3]


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

    FIXTURES = Path(__file__).parent / "fixtures"
    FIXTURE_V1 = FIXTURES / "session_snapshot_v1.bin"

    def test_current_format_version_is_4(self):
        from repro.api.session import SNAPSHOT_FORMAT_VERSION

        assert SNAPSHOT_FORMAT_VERSION == 4

    def test_loading_a_v1_fixture_raises_a_typed_error(self):
        from repro.api import SessionSnapshot, SnapshotFormatError

        assert self.FIXTURE_V1.exists(), "pre-refactor fixture missing"
        with pytest.raises(SnapshotFormatError, match="not a readable snapshot"):
            SessionSnapshot.from_file(self.FIXTURE_V1)

    @pytest.mark.parametrize(
        "fixture",
        [
            "session_snapshot_v3.bin",
            "session_snapshot_v3_flashcrowd.bin",
            "session_snapshot_v3_churn.bin",
        ],
    )
    def test_v3_fixture_is_rejected_with_a_format_error(self, fixture):
        """Format-3 checkpoints of older builds are rejected, not converted.

        ``session_snapshot_v3.bin`` (``steady_state``) is in the earlier
        ``VODSNAP\\x01`` frame; the ``flashcrowd_spike`` and ``churn_storm``
        ones are in the current frame under format version 3.  Each is
        intact, so what fails is the format, with a re-record hint.
        """
        from repro.api import SessionSnapshot, SnapshotFormatError, SnapshotIntegrityError

        with pytest.raises(SnapshotFormatError, match="re-record") as excinfo:
            SessionSnapshot.from_file(self.FIXTURES / fixture)
        assert not isinstance(excinfo.value, SnapshotIntegrityError)

    @pytest.mark.parametrize("frame", ["bare_pickle", "old_frame"])
    def test_from_file_unpickles_nothing(self, tmp_path, frame):
        """A file outside the current frame is refused before any unpickling.

        The pickled object's reduction runs code when it loads.  Neither a
        bare pickle nor one in the earlier frame (magic, 8-byte length and
        a valid SHA-256) may run it: each fails with a format error.
        """
        import builtins
        import hashlib

        from repro.api import SessionSnapshot, SnapshotFormatError

        class Trap:
            def __reduce__(self):
                return (exec, ("import builtins; builtins._repro_trap_ran = True",))

        body = pickle.dumps(Trap())
        if frame == "old_frame":
            body = (
                b"VODSNAP\x01"
                + len(body).to_bytes(8, "big")
                + hashlib.sha256(body).digest()
                + body
            )
        path = tmp_path / "trap.ckpt"
        path.write_bytes(body)
        try:
            with pytest.raises(SnapshotFormatError, match="not a readable snapshot"):
                SessionSnapshot.from_file(path)
            assert not hasattr(builtins, "_repro_trap_ran")
        finally:
            if hasattr(builtins, "_repro_trap_ran"):
                del builtins._repro_trap_ran

    @pytest.mark.parametrize(
        "fixture", ["session_snapshot_sharded.bin", "session_snapshot_event.bin"]
    )
    def test_snapshot_of_a_removed_engine_mode_raises_a_format_error(self, fixture):
        """Checkpoints of the removed sharded and event-driven modes.

        Both fixtures (``steady_state``, seed 1, 3 rounds; one on 2 inline
        shards, one on the event clock) were recorded while those modes
        existed, under snapshot format 2 in the earlier ``VODSNAP\\x01``
        frame, which this build no longer reads: loading one must read as a
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
        """A payload whose classes are gone.

        The payload pickles an instance of a class from a module that is
        then removed, as a refactor would remove an engine class: restore
        must report a format error with a re-record hint, not corruption.
        """
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
        snapshot = SessionSnapshot(payload=payload, time=0, rounds_completed=0)
        with pytest.raises(SnapshotFormatError, match="re-record") as excinfo:
            VodSession.restore(snapshot)
        assert not isinstance(excinfo.value, SnapshotIntegrityError)

    def test_payload_in_a_changed_state_layout_raises_a_format_error(self):
        """A payload whose class now reads another state layout.

        The class pickles a two-value state and is then redefined with a
        ``__setstate__`` that unpacks three, as a refactor would change an
        engine class's layout.  Restore checks no integrity, so what fails
        is the format: restore must report a format error with a
        re-record hint, not a truncated or corrupt payload.
        """
        import pickle
        import sys
        import types

        from repro.api import SessionSnapshot, SnapshotFormatError, SnapshotIntegrityError

        module = types.ModuleType("repro_snapshot_relaid_module")
        sys.modules[module.__name__] = module
        try:
            exec(
                "class RelaidEngine:\n"
                "    def __getstate__(self):\n"
                "        return (1, 2)\n"
                "    def __setstate__(self, state):\n"
                "        self.a, self.b = state\n",
                module.__dict__,
            )
            payload = pickle.dumps(module.RelaidEngine())
            exec(
                "class RelaidEngine:\n"
                "    def __setstate__(self, state):\n"
                "        self.a, self.b, self.c = state\n",
                module.__dict__,
            )
            snapshot = SessionSnapshot(payload=payload, time=0, rounds_completed=0)
            with pytest.raises(SnapshotFormatError, match="re-record") as excinfo:
                VodSession.restore(snapshot)
        finally:
            del sys.modules[module.__name__]
        assert not isinstance(excinfo.value, SnapshotIntegrityError)

    def test_snapshot_format_error_is_an_api_error(self):
        from repro.api import ApiError, SnapshotFormatError

        assert issubclass(SnapshotFormatError, ApiError)

    def test_fresh_snapshots_carry_the_current_version_and_round_trip(self, tmp_path):
        from repro.api import SessionSnapshot, VodSession
        from repro.api.session import SNAPSHOT_FORMAT_VERSION

        session = _session_for("steady_state", "hopcroft_karp", 6)
        session.step_until(rounds=3)
        path = session.snapshot().to_file(tmp_path / "current.ckpt")
        # The big-endian format version follows the file's 8-byte magic.
        written = int.from_bytes(path.read_bytes()[8:16], "big", signed=True)
        assert written == SNAPSHOT_FORMAT_VERSION
        restored = VodSession.restore(SessionSnapshot.from_file(path))
        assert restored.rounds_completed == 3


def test_one_checkpoint_cycle_hashes_the_payload_twice_and_pickles_once(
    tmp_path, monkeypatch
):
    """The exact work of ``snapshot`` → ``to_file`` → ``from_file`` → ``restore``.

    The payload is hashed only at the file boundary: once when the file
    is written and once when it is read; ``snapshot`` only pickles and
    ``restore`` only unpickles.  The session is pickled and unpickled
    once: the file frame carries the payload as it is.  The session is
    pickled through the snapshot pickler's ``dump``; ``pickle.dumps`` is
    counted too, so a second pickle of either kind fails.
    """
    import hashlib
    import pickle

    from repro.api import SessionSnapshot
    from repro.api import session as session_module

    hashed: list = []
    dumps: list = []
    loads: list = []
    real_sha256 = session_module.hashlib.sha256
    real_dump = session_module._SnapshotPickler.dump
    real_dumps = session_module.pickle.dumps
    real_loads = session_module.pickle.loads

    def counting_sha256(data=b"", *args, **kwargs):
        hashed.append(len(data))
        return real_sha256(data, *args, **kwargs)

    def counting_dump(pickler, obj):
        dumps.append(type(obj).__name__)
        return real_dump(pickler, obj)

    def counting_dumps(obj, *args, **kwargs):
        dumps.append(type(obj).__name__)
        return real_dumps(obj, *args, **kwargs)

    def counting_loads(data, *args, **kwargs):
        loads.append(len(data))
        return real_loads(data, *args, **kwargs)

    assert session_module.hashlib is hashlib and session_module.pickle is pickle
    session = _session_for("steady_state", "hopcroft_karp", ROUNDS)
    session.step_until(round=SPLIT)
    monkeypatch.setattr(session_module.hashlib, "sha256", counting_sha256)
    monkeypatch.setattr(session_module._SnapshotPickler, "dump", counting_dump)
    monkeypatch.setattr(session_module.pickle, "dumps", counting_dumps)
    monkeypatch.setattr(session_module.pickle, "loads", counting_loads)
    payload_hashes = []

    def count_payload_hashes(length):
        payload_hashes.append(sum(size >= length for size in hashed))
        hashed.clear()

    snapshot = session.snapshot()
    payload_length = len(snapshot.payload)
    count_payload_hashes(payload_length)
    path = snapshot.to_file(tmp_path / "cycle.ckpt")
    count_payload_hashes(payload_length)
    loaded = SessionSnapshot.from_file(path)
    count_payload_hashes(payload_length)
    restored = VodSession.restore(loaded)
    count_payload_hashes(payload_length)
    monkeypatch.undo()

    assert payload_hashes == [0, 1, 1, 0]
    assert dumps == ["VodSession"]
    assert loads == [payload_length]
    session.step_until(round=ROUNDS)
    restored.step_until(round=ROUNDS)
    assert restored.digest() == session.digest()


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
