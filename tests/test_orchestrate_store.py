"""The content-addressed results store: records, indexes, atomicity."""

from __future__ import annotations

import json
import os

import pytest

from repro.orchestrate.spec import CampaignSpec, CellSpec
from repro.orchestrate.store import ResultsStore, StoreError


@pytest.fixture
def store(tmp_path):
    return ResultsStore(tmp_path / "store")


CELL = CellSpec(runner="echo", params={"u": 2.0, "n": 10})
ROWS = [{"u": 2.0, "feasible": True}, {"u": 2.0, "feasible": False}]


class TestObjects:
    def test_put_get_round_trip(self, store):
        key = store.put(CELL, ROWS)
        assert key == CELL.key
        record = store.get(key)
        assert record["rows"] == ROWS
        assert record["runner"] == "echo"
        assert record["params"] == {"u": 2.0, "n": 10}

    def test_has_keys_len_contains(self, store):
        assert not store.has(CELL.key)
        assert store.keys() == []
        store.put(CELL, ROWS)
        assert store.has(CELL.key)
        assert CELL.key in store
        assert store.keys() == [CELL.key]
        assert len(store) == 1

    def test_put_is_deterministic_bytes(self, store):
        store.put(CELL, ROWS)
        path = store._object_path(CELL.key)
        first = path.read_bytes()
        store.put(CELL, ROWS)
        assert path.read_bytes() == first

    def test_get_missing_raises(self, store):
        with pytest.raises(StoreError, match="no record"):
            store.get(CELL.key)

    def test_malformed_key_rejected(self, store):
        with pytest.raises(StoreError, match="malformed"):
            store.has("not-a-key")
        with pytest.raises(StoreError, match="malformed"):
            store.has("../" + "0" * 62)

    def test_corrupt_record_raises(self, store):
        store.put(CELL, ROWS)
        path = store._object_path(CELL.key)
        path.write_text("{ torn", encoding="utf-8")
        with pytest.raises(StoreError, match="corrupt"):
            store.get(CELL.key)

    def test_key_mismatch_detected(self, store):
        store.put(CELL, ROWS)
        other = CellSpec(runner="echo", params={"u": 3.0})
        path = store._object_path(other.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"key": CELL.key, "rows": []}), encoding="utf-8"
        )
        with pytest.raises(StoreError, match="claims key"):
            store.get(other.key)

    def test_a_failed_put_leaves_no_record_and_no_temp_file(self, store, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="no space left"):
            store.put(CELL, ROWS)
        monkeypatch.undo()
        assert not store.has(CELL.key)
        assert [p for p in store.root.rglob("*") if p.is_file()] == []

    def test_objects_sharded_by_key_prefix(self, store):
        store.put(CELL, ROWS)
        path = store._object_path(CELL.key)
        assert path.parent.name == CELL.key[:2]


class TestCampaignIndex:
    def make_campaign(self):
        return CampaignSpec(
            name="demo",
            description="d",
            runner="echo",
            base={"n": 10},
            grid={"u": (1.5, 2.0)},
        )

    def test_write_read_round_trip(self, store):
        campaign = self.make_campaign()
        store.write_campaign_index(campaign)
        index = store.read_campaign_index("demo")
        assert index["name"] == "demo"
        assert index["cells"] == campaign.cell_keys()
        assert CampaignSpec.from_dict(index["spec"]) == campaign

    def test_missing_index_raises(self, store):
        with pytest.raises(StoreError, match="never run"):
            store.read_campaign_index("demo")

    def test_campaign_names(self, store):
        assert store.campaign_names() == []
        store.write_campaign_index(self.make_campaign())
        assert store.campaign_names() == ["demo"]

    def test_malformed_campaign_name_rejected(self, store):
        with pytest.raises(StoreError, match="malformed"):
            store.read_campaign_index("../evil")

    def test_missing_cells(self, store):
        campaign = self.make_campaign()
        assert [c.params["u"] for c in store.missing_cells(campaign)] == [1.5, 2.0]
        store.put(campaign.cells()[0], [{"u": 1.5}])
        assert [c.params["u"] for c in store.missing_cells(campaign)] == [2.0]
