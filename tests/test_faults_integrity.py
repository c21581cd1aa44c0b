"""Data-at-rest integrity: checksummed store records and framed snapshots.

Damage is injected with :mod:`repro.faults.corrupt` (the same helpers the
CI chaos job uses) and must always surface as *typed* errors —
``StoreIntegrityError`` / ``SnapshotIntegrityError`` — never as raw
``JSONDecodeError`` or ``UnpicklingError`` on attacker-shaped bytes.  The
healing loop (``verify`` → ``repair`` → ``resume``) re-executes exactly
the damaged cells.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.api import SessionSnapshot, SnapshotFormatError, SnapshotIntegrityError
from repro.api.registry import register_component
from repro.faults.corrupt import corrupt_store_record, flip_byte, truncate_file
from repro.orchestrate.runner import run_campaign
from repro.orchestrate.spec import CampaignSpec, CellSpec
from repro.orchestrate.store import ResultsStore, StoreIntegrityError
from repro.scenarios.build import build_scenario
from repro.scenarios.registry import get_scenario

#: A checkpoint file's fixed header: magic, format version, time, rounds
#: completed, payload length, the payload's SHA-256 and the header's own.
FRAME_HEADER_BYTES = 104
#: Offsets of the big-endian format-version, ``time`` and payload-length
#: fields inside that header, and the length of the fields the header's
#: SHA-256 covers.
VERSION_FIELD_OFFSET = 8
TIME_FIELD_OFFSET = 16
LENGTH_FIELD_OFFSET = 32
HEADER_FIELDS_BYTES = 72

register_component(
    "experiment",
    "unit_integrity_echo",
    lambda params: [{"x": params["x"], "y": params["x"] * 10}],
    "test helper: echoes its parameter",
    overwrite=True,
)

SWEEP = CampaignSpec(
    name="unit_integrity_sweep",
    description="integrity-test sweep",
    runner="unit_integrity_echo",
    grid={"x": (1, 2, 3)},
)


@pytest.fixture
def store(tmp_path):
    return ResultsStore(tmp_path / "store")


def _one_record(store):
    cell = CellSpec(runner="demo", params={"u": 2.0})
    key = store.put(cell, rows=[{"u": 2.0, "feasible": True}])
    return cell, key


# ---------------------------------------------------------------------- #
# Store records
# ---------------------------------------------------------------------- #
class TestStoreIntegrity:
    def test_put_embeds_checksum_and_get_verifies(self, store):
        _, key = _one_record(store)
        record = store.get(key)
        assert len(record["sha256"]) == 64
        assert store.verify() == []

    def test_torn_record_raises_typed_error(self, store):
        _, key = _one_record(store)
        corrupt_store_record(store, key, mode="truncate")
        with pytest.raises(StoreIntegrityError, match="corrupt record"):
            store.get(key)
        damage = store.verify()
        assert [d.key for d in damage] == [key]
        assert "unparseable JSON" in damage[0].reason

    def test_flipped_byte_raises_checksum_mismatch(self, store):
        _, key = _one_record(store)
        corrupt_store_record(store, key, mode="flip")
        with pytest.raises(StoreIntegrityError):
            store.get(key)
        damage = store.verify()
        assert len(damage) == 1
        assert damage[0].key == key

    def test_semantic_tamper_with_valid_json_is_caught(self, store):
        # Flip a value, keep the JSON parseable: only the checksum can
        # tell, and it must.
        _, key = _one_record(store)
        path = store._object_path(key)
        path.write_text(path.read_text().replace("true", "false"))
        assert [d.reason for d in store.verify()] == ["checksum mismatch"]
        with pytest.raises(StoreIntegrityError, match="checksum mismatch"):
            store.get(key)

    def test_legacy_record_without_checksum_loads_but_verify_flags_it(self, store):
        import json

        _, key = _one_record(store)
        path = store._object_path(key)
        record = json.loads(path.read_text())
        del record["sha256"]
        path.write_text(json.dumps(record))
        assert store.get(key)["rows"]  # legacy read stays permissive
        assert [d.reason for d in store.verify()] == ["missing checksum"]

    def test_miskeyed_record_is_flagged(self, store):
        cell_a = CellSpec(runner="demo", params={"u": 1.0})
        cell_b = CellSpec(runner="demo", params={"u": 2.0})
        store.put(cell_a, rows=[{"u": 1.0}])
        key_b = store.put(cell_b, rows=[{"u": 2.0}])
        # A's bytes land under B's path: checksum is fine, the key is not.
        store._object_path(key_b).write_bytes(
            store._object_path(cell_a.key).read_bytes()
        )
        assert [d.reason for d in store.verify()] == ["key mismatch"]
        with pytest.raises(StoreIntegrityError, match="claims key"):
            store.get(key_b)

    def test_repair_removes_only_damaged_records(self, store):
        _, key = _one_record(store)
        other = store.put(CellSpec(runner="demo", params={"u": 9.0}), rows=[{"u": 9.0}])
        corrupt_store_record(store, key, mode="flip")
        assert store.repair() == [key]
        assert not store.has(key)
        assert store.has(other)
        assert store.verify() == []

    def test_repair_on_healthy_store_is_a_no_op(self, store):
        _one_record(store)
        assert store.repair() == []


class TestVerifyRepairResumeLoop:
    def test_resume_re_executes_exactly_the_damaged_cell(self, store):
        first = run_campaign(SWEEP, store)
        assert first.complete and len(first.executed) == 3
        damaged_key = first.cell_keys[1]
        corrupt_store_record(store, damaged_key, mode="truncate")

        assert [d.key for d in store.verify()] == [damaged_key]
        assert store.repair() == [damaged_key]

        healed = run_campaign(SWEEP, store)  # what the CLI `resume` runs
        assert healed.complete
        assert healed.executed == [damaged_key]
        assert set(healed.reused) == set(first.cell_keys) - {damaged_key}
        assert store.verify() == []

    def test_healed_record_is_byte_identical_to_the_original(self, store):
        run_campaign(SWEEP, store)
        key = SWEEP.cell_keys()[0]
        original = store._object_path(key).read_bytes()
        corrupt_store_record(store, key, mode="flip")
        store.repair()
        run_campaign(SWEEP, store)
        assert store._object_path(key).read_bytes() == original

    @pytest.mark.parametrize("stray", ["copy", "wrong_shard"])
    def test_stray_object_file_is_reported_and_repaired(self, store, stray):
        """A file-manager copy or a misplaced record is damage, not a key."""
        run_campaign(SWEEP, store)
        key = SWEEP.cell_keys()[0]
        if stray == "copy":
            path = store._object_path(key).with_name(f"{key} copy.json")
        else:
            shard = "00" if key[:2] != "00" else "01"
            path = store.root / "objects" / shard / f"{key}.json"
            path.parent.mkdir()
        path.write_bytes(store._object_path(key).read_bytes())

        assert store.keys() == sorted(SWEEP.cell_keys())
        assert len(store) == 3
        assert [(d.path, d.reason) for d in store.verify()] == [
            (path, "malformed file name")
        ]
        assert store.repair() == [path.stem]
        assert not path.exists()
        assert store.verify() == []
        assert run_campaign(SWEEP, store).executed == []


# ---------------------------------------------------------------------- #
# Corruption helpers
# ---------------------------------------------------------------------- #
class TestCorruptHelpers:
    def test_truncate_and_flip_validate_inputs(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"abcdef")
        truncate_file(path, keep_bytes=2)
        assert path.read_bytes() == b"ab"
        with pytest.raises(ValueError, match="keep_bytes"):
            truncate_file(path, keep_bytes=-1)
        flip_byte(path, offset=0)
        assert path.read_bytes()[0] == ord("a") ^ 0xFF
        with pytest.raises(ValueError, match="beyond"):
            flip_byte(path, offset=99)
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            flip_byte(path)

    def test_corrupt_store_record_validates(self, store):
        _, key = _one_record(store)
        with pytest.raises(ValueError, match="mode"):
            corrupt_store_record(store, key, mode="shred")
        missing = "0" * 64
        with pytest.raises(FileNotFoundError):
            corrupt_store_record(store, missing)


# ---------------------------------------------------------------------- #
# Snapshot checkpoints
# ---------------------------------------------------------------------- #
def _stepped_session():
    session = build_scenario(get_scenario("steady_state"), seed=1).session()
    session.step_until(rounds=2)
    return session


def _checkpoint(tmp_path):
    return _stepped_session().snapshot().to_file(tmp_path / "checkpoint.snap")


class TestSnapshotIntegrity:
    # Inside the 104-byte header: empty, torn inside the 8-byte magic, the
    # bare magic, and past it.
    @pytest.mark.parametrize("keep_bytes", [0, 4, 7, 8, 20])
    def test_truncated_header_detected(self, tmp_path, keep_bytes):
        path = _checkpoint(tmp_path)
        truncate_file(path, keep_bytes=keep_bytes)
        with pytest.raises(SnapshotIntegrityError, match="incomplete header"):
            SessionSnapshot.from_file(path)

    def test_a_write_failing_mid_way_keeps_the_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        session = _stepped_session()
        first = session.snapshot()
        path = first.to_file(tmp_path / "checkpoint.snap")
        session.step()
        fdopen = os.fdopen

        class TornHandle:
            """Writes the header, then half the payload, then fails."""

            def __init__(self, fd, mode):
                self._handle = fdopen(fd, mode)
                self._chunks = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._handle.close()

            def write(self, chunk):
                self._chunks += 1
                if self._chunks == 1:
                    return self._handle.write(chunk)
                self._handle.write(chunk[: len(chunk) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(os, "fdopen", TornHandle)
        with pytest.raises(OSError, match="no space left"):
            session.snapshot().to_file(path)
        monkeypatch.undo()
        assert SessionSnapshot.from_file(path) == first
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.snap"]

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = _checkpoint(tmp_path)
        flip_byte(path)  # middle of the pickled payload
        with pytest.raises(SnapshotIntegrityError, match="checksum mismatch"):
            SessionSnapshot.from_file(path)

    def test_non_snapshot_file_raises_format_error(self, tmp_path):
        path = tmp_path / "garbage.snap"
        path.write_bytes(b"this was never a snapshot")
        with pytest.raises(SnapshotFormatError, match="not a readable snapshot"):
            SessionSnapshot.from_file(path)

    def test_intact_checkpoint_round_trips(self, tmp_path):
        captured = _stepped_session().snapshot()
        path = captured.to_file(tmp_path / "checkpoint.snap")
        snapshot = SessionSnapshot.from_file(path)
        assert snapshot.rounds_completed == 2
        assert snapshot.payload == captured.payload

    def test_flipped_header_field_fails_the_header_checksum(self, tmp_path):
        path = _checkpoint(tmp_path)
        flip_byte(path, offset=TIME_FIELD_OFFSET + 7)  # low byte of ``time``
        with pytest.raises(SnapshotIntegrityError, match="checksum mismatch"):
            SessionSnapshot.from_file(path)

    def test_file_one_byte_short_of_its_payload_is_truncated(self, tmp_path):
        path = _checkpoint(tmp_path)
        truncate_file(path, keep_bytes=path.stat().st_size - 1)
        with pytest.raises(SnapshotIntegrityError, match="truncated"):
            SessionSnapshot.from_file(path)

    def test_header_claiming_more_payload_than_the_file_holds_is_truncated(
        self, tmp_path
    ):
        # The header's SHA-256 catches bit rot, not a crafted length: a
        # checksummed header may claim any payload length, and the claim is
        # compared with the file before that many bytes are read.
        path = _checkpoint(tmp_path)
        fields = bytearray(path.read_bytes()[:HEADER_FIELDS_BYTES])
        claimed = (1 << 63) - 1
        fields[LENGTH_FIELD_OFFSET:LENGTH_FIELD_OFFSET + 8] = claimed.to_bytes(8, "big")
        path.write_bytes(bytes(fields) + hashlib.sha256(fields).digest() + b"abc")
        expected = f"truncated: expected {claimed} payload bytes, found 3"
        with pytest.raises(SnapshotIntegrityError, match=expected):
            SessionSnapshot.from_file(path)

    def test_file_one_byte_past_its_payload_is_rejected(self, tmp_path):
        path = _checkpoint(tmp_path)
        with path.open("ab") as handle:
            handle.write(b"\0")
        with pytest.raises(SnapshotIntegrityError, match="truncated"):
            SessionSnapshot.from_file(path)

    def test_other_format_version_in_the_header_is_a_format_error(self, tmp_path):
        # A current file whose version field reads 2, under a re-sealed
        # header SHA-256: the frame is intact, so what fails is the format.
        path = _checkpoint(tmp_path)
        data = path.read_bytes()
        fields = bytearray(data[:HEADER_FIELDS_BYTES])
        fields[VERSION_FIELD_OFFSET:VERSION_FIELD_OFFSET + 8] = (2).to_bytes(8, "big")
        path.write_bytes(
            bytes(fields) + hashlib.sha256(fields).digest() + data[FRAME_HEADER_BYTES:]
        )
        with pytest.raises(SnapshotFormatError, match="re-record") as excinfo:
            SessionSnapshot.from_file(path)
        assert not isinstance(excinfo.value, SnapshotIntegrityError)

    def test_file_is_the_header_followed_by_the_raw_payload(self, tmp_path):
        snapshot = _stepped_session().snapshot()
        path = snapshot.to_file(tmp_path / "checkpoint.snap")
        assert path.stat().st_size == FRAME_HEADER_BYTES + len(snapshot.payload)
        assert path.read_bytes()[FRAME_HEADER_BYTES:] == snapshot.payload


# ---------------------------------------------------------------------- #
# Scenario smoke CLI: typed exit codes
# ---------------------------------------------------------------------- #
class TestScenarioSmokeExitCodes:
    def test_unknown_scenario_is_a_usage_error(self, capsys):
        from repro.scenarios.cli import main

        assert main(["smoke", "no_such_scenario", "--rounds", "1"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_healthy_scenario_exits_zero(self, capsys):
        from repro.scenarios.cli import main

        assert main(["smoke", "steady_state", "--rounds", "1"]) == 0
        assert "steady_state" in capsys.readouterr().out

    def test_expected_failure_counts_and_exits_one(self, monkeypatch, capsys):
        from repro.scenarios import cli

        def infeasible(*args, **kwargs):
            raise ValueError("deliberately infeasible build")

        monkeypatch.setattr(cli, "run_scenario", infeasible)
        assert cli.main(["smoke", "steady_state", "--rounds", "1"]) == 1
        assert "ERROR ValueError" in capsys.readouterr().out

    def test_programming_errors_propagate_with_traceback(self, monkeypatch):
        from repro.scenarios import cli

        def broken(*args, **kwargs):
            raise TypeError("a real bug, not an expected failure")

        monkeypatch.setattr(cli, "run_scenario", broken)
        with pytest.raises(TypeError, match="real bug"):
            cli.main(["smoke", "steady_state", "--rounds", "1"])
