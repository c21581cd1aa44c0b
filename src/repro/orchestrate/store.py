"""The content-addressed on-disk results store.

Layout under the store root::

    objects/<key[:2]>/<key>.json     one JSON record per completed cell
    campaigns/<name>.json            campaign index: spec + ordered cell keys

Cell records are keyed by :func:`~repro.orchestrate.spec.cell_key` —
the SHA-256 of the resolved invocation — and contain the runner name,
the resolved parameters and the result rows.  Records carry **no
timestamps or host details**: writing the same cell twice produces the
same bytes, which is what makes campaign re-runs no-ops and the rendered
reports byte-stable.

Writes are atomic (temp file + ``os.replace``), so a campaign killed
mid-cell never leaves a torn record; resuming simply re-executes the
missing keys.  Against damage that happens *after* a clean write — torn
copies, bit rot, hand edits — every record also embeds a ``sha256``
checksum of its own body; :meth:`ResultsStore.get` verifies it on every
read, :meth:`ResultsStore.verify` sweeps the whole object tree, and
:meth:`ResultsStore.repair` deletes damaged records so a campaign
``resume`` re-runs exactly the damaged cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro.orchestrate.spec import CampaignSpec, CellSpec, canonical_json

__all__ = ["StoreError", "StoreIntegrityError", "StoreDamage", "ResultsStore"]

_KEY_LENGTH = 64  # hex SHA-256


class StoreError(RuntimeError):
    """A malformed key, record or index in the results store."""


class StoreIntegrityError(StoreError):
    """A stored record is corrupt: unparseable, mis-keyed or checksum-failed."""


def _is_key(key: str) -> bool:
    return len(key) == _KEY_LENGTH and all(c in "0123456789abcdef" for c in key)


def _is_record_file(path: Path) -> bool:
    """Whether ``path`` is named ``<key[:2]>/<key>.json`` for a valid key."""
    return _is_key(path.stem) and path.parent.name == path.stem[:2]


def _check_key(key: str) -> str:
    if not _is_key(key):
        raise StoreError(f"malformed cell key {key!r} (expected hex SHA-256)")
    return key


def _record_checksum(record: Mapping[str, Any]) -> str:
    """SHA-256 of a record's body, excluding the ``sha256`` field itself."""
    body = {name: value for name, value in record.items() if name != "sha256"}
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


class StoreDamage:
    """One damaged object file found by :meth:`ResultsStore.verify`."""

    __slots__ = ("key", "path", "reason")

    def __init__(self, key: str, path: Path, reason: str):
        self.key = key
        self.path = path
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover
        return f"StoreDamage(key={self.key[:12]}..., reason={self.reason!r})"


class ResultsStore:
    """Content-addressed store of campaign cell results.

    >>> import tempfile
    >>> from repro.orchestrate.spec import CellSpec
    >>> store = ResultsStore(tempfile.mkdtemp())
    >>> cell = CellSpec(runner="demo", params={"u": 2.0})
    >>> store.has(cell.key)
    False
    >>> _ = store.put(cell, rows=[{"u": 2.0, "feasible": True}])
    >>> store.get(cell.key)["rows"]
    [{'u': 2.0, 'feasible': True}]
    >>> len(store)
    1
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    # Object records
    # ------------------------------------------------------------------ #
    def _object_path(self, key: str) -> Path:
        _check_key(key)
        return self.root / "objects" / key[:2] / f"{key}.json"

    def has(self, key: str) -> bool:
        """Whether a completed record exists for ``key``."""
        return self._object_path(key).is_file()

    def put(self, cell: CellSpec, rows: List[Mapping[str, Any]]) -> str:
        """Persist the result ``rows`` of ``cell`` atomically; returns the key.

        The record is deterministic: same cell + same rows ⇒ same bytes.
        """
        key = cell.key
        record = {
            "key": key,
            "runner": cell.runner,
            "params": cell.params,
            "rows": [dict(row) for row in rows],
        }
        record["sha256"] = _record_checksum(record)
        path = self._object_path(key)
        self._write_atomic(path, canonical_json(record) + "\n")
        return key

    def get(self, key: str) -> Dict[str, Any]:
        """Load the record stored under ``key``, verifying its checksum.

        Raises :class:`StoreIntegrityError` for corrupt records — torn
        JSON, a key that doesn't match the file, or a checksum mismatch.
        Records written before checksums existed (no ``sha256`` field)
        load without verification; :meth:`verify` flags them.
        """
        path = self._object_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            raise StoreError(f"no record for cell {key} in {self.root}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            # Bit rot can break the UTF-8 encoding before JSON parsing
            # even starts; both read failures are the same damage class.
            raise StoreIntegrityError(f"corrupt record {path}: {exc}") from None
        if record.get("key") != key:
            raise StoreIntegrityError(
                f"record {path} claims key {record.get('key')!r}, expected {key}"
            )
        stored = record.get("sha256")
        if stored is not None and stored != _record_checksum(record):
            raise StoreIntegrityError(
                f"corrupt record {path}: checksum mismatch "
                f"(stored {str(stored)[:12]}..., recomputed differs)"
            )
        return record

    def _object_files(self) -> List[Path]:
        """Every ``objects/*/*.json`` file, sorted, well-named or not."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(
            path
            for shard in objects.iterdir()
            if shard.is_dir()
            for path in shard.glob("*.json")
        )

    def keys(self) -> List[str]:
        """All stored cell keys, sorted.

        Files under ``objects/`` that are not named after a key (a
        ``<key> copy.json`` duplicate, a record moved to the wrong shard)
        are not records; :meth:`verify` reports them.
        """
        return sorted(
            path.stem for path in self._object_files() if _is_record_file(path)
        )

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------------ #
    # Integrity
    # ------------------------------------------------------------------ #
    def verify(self) -> List[StoreDamage]:
        """Sweep every object file and report the damaged ones.

        Strict: a record without a ``sha256`` field counts as damaged
        (it cannot be distinguished from one whose checksum was torn
        off), and so does a file whose name is not a record's, so that
        :meth:`repair` removes it.  Returns an empty list for a healthy
        store.
        """
        damage: List[StoreDamage] = []
        for path in self._object_files():
            key = path.stem
            if not _is_record_file(path):
                damage.append(StoreDamage(key, path, "malformed file name"))
                continue
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                damage.append(StoreDamage(key, path, f"unparseable JSON: {exc}"))
                continue
            if not isinstance(record, dict) or record.get("key") != key:
                damage.append(StoreDamage(key, path, "key mismatch"))
                continue
            stored = record.get("sha256")
            if stored is None:
                damage.append(StoreDamage(key, path, "missing checksum"))
            elif stored != _record_checksum(record):
                damage.append(StoreDamage(key, path, "checksum mismatch"))
        return damage

    def repair(self, damage: Optional[List[StoreDamage]] = None) -> List[str]:
        """Delete damaged object files so ``resume`` re-runs those cells.

        ``damage`` defaults to a fresh :meth:`verify` sweep.  Returns the
        keys whose records were removed (the file stem, for a file with a
        malformed name).  Campaign indexes are untouched
        — they still name the removed keys, which is exactly what lets
        ``resume`` re-execute only the damaged cells.
        """
        if damage is None:
            damage = self.verify()
        removed: List[str] = []
        for item in damage:
            try:
                os.unlink(item.path)
            except FileNotFoundError:
                continue
            removed.append(item.key)
        return removed

    def __contains__(self, key: str) -> bool:
        return self.has(key)

    # ------------------------------------------------------------------ #
    # Campaign indexes
    # ------------------------------------------------------------------ #
    def _index_path(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise StoreError(f"malformed campaign name {name!r}")
        return self.root / "campaigns" / f"{name}.json"

    def write_campaign_index(self, campaign: CampaignSpec) -> Path:
        """Record the campaign spec and its resolved cell keys.

        Written *before* execution starts, so an interrupted campaign's
        membership is known to ``resume`` and ``report`` even while some
        cells are still missing.
        """
        payload = {
            "name": campaign.name,
            "spec": campaign.to_dict(),
            "cells": campaign.cell_keys(),
        }
        path = self._index_path(campaign.name)
        self._write_atomic(path, canonical_json(payload) + "\n")
        return path

    def read_campaign_index(self, name: str) -> Dict[str, Any]:
        """Load a campaign index previously written by a run."""
        path = self._index_path(name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            raise StoreError(
                f"campaign {name!r} has no index in {self.root} (never run?)"
            ) from None

    def campaign_names(self) -> List[str]:
        """Campaigns with an index in this store, sorted."""
        campaigns = self.root / "campaigns"
        if not campaigns.is_dir():
            return []
        return sorted(path.stem for path in campaigns.glob("*.json"))

    def missing_cells(self, campaign: CampaignSpec) -> List[CellSpec]:
        """The campaign's cells that have no stored record yet."""
        return [cell for cell in campaign.cells() if not self.has(cell.key)]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _write_atomic(path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __repr__(self) -> str:  # pragma: no cover
        return f"ResultsStore({str(self.root)!r}, cells={len(self)})"
