"""Stepwise simulation sessions with checkpoint/restore.

The paper's model is online: demands arrive every round and the Lemma 1
matching is re-solved incrementally.  :class:`VodSession` exposes that
loop one round at a time on top of the exact per-round path batch
``VodSimulator.run`` uses, so stepwise and batch executions of the same
workload are bit-identical:

* :meth:`VodSession.submit_demands` — admission-checked external demand
  injection (typed :class:`~repro.api.errors.AdmissionError` on a busy or
  offline box), merged ahead of the session's background workload;
* :meth:`VodSession.step` / :meth:`VodSession.step_until` — execute rounds
  and receive structured :class:`RoundReport` records
  (:class:`~repro.api.errors.SessionClosedError` past the horizon);
* :meth:`VodSession.snapshot` / :meth:`VodSession.restore` — full
  deterministic state capture (clock, swarms, caches, possession index,
  RNG streams, warm-start assignment, pending requests) as one opaque
  blob; restoring and stepping reproduces an uninterrupted run bit for
  bit, for every solver;
* :meth:`VodSession.add_videos` / :meth:`VodSession.join_boxes` /
  :meth:`VodSession.set_capacity` — live reconfiguration between rounds.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import json
import os
import pickle
import struct

import numpy as np
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.errors import (
    AdmissionError,
    SessionClosedError,
    SnapshotFormatError,
    SnapshotIntegrityError,
)
from repro.core.preloading import Demand
from repro.sim.engine import SimulationResult, VodSimulator
from repro.sim.metrics import RoundStats
from repro.util.files import write_atomic
from repro.workloads.base import DemandGenerator, SystemView

__all__ = ["RoundReport", "SessionSnapshot", "VodSession"]

#: Bump when the pickled payload layout changes: no converter reads an
#: older format.  Version history:
#: 1 — object-graph engine state (per-request/per-member Python objects);
#: 2 — struct-of-arrays engine core (request pool, download log, demand log);
#: 3 — one request path, bounded round state, live rows, dtypes by name;
#: 4 — format-3 payloads of older builds are rejected, not converted.
SNAPSHOT_FORMAT_VERSION = 4


def _reduce_dtype(dtype: np.dtype):
    # A dtype with metadata keeps NumPy's own reduction, which carries it.
    if dtype.metadata is not None:
        return dtype.__reduce__()
    return np.dtype, (dtype.str,)


class _SnapshotPickler(pickle.Pickler):
    """Pickles NumPy's bool, integer and float dtypes by name.

    NumPy reduces a dtype to ``np.dtype(name, False, True)``, which loads
    as a new copy.  Arrays on a copied dtype leave ``ufunc.at``'s fast
    loop, and so does every array computed from them: by name, the dtypes
    load as NumPy's own shared instances.  Arrays keep NumPy's reduction.
    """

    dispatch_table = copyreg.dispatch_table.copy()
    dispatch_table.update(
        (type(np.dtype(code)), _reduce_dtype)
        for code in "?" + np.typecodes["AllInteger"] + np.typecodes["AllFloat"]
    )


@dataclass(frozen=True)
class RoundReport:
    """Structured outcome of one stepped round.

    The first eight fields mirror the engine's
    :class:`~repro.sim.metrics.RoundStats` (serialization and the
    batch-parity view derive from it generically — adding a stats field
    flows through automatically); the rest are session-only.  All
    fields are native Python scalars; :meth:`to_dict` output feeds
    ``json.dumps`` directly, which is what external services log.
    """

    #: Round the report describes.
    time: int
    #: Active stripe requests handed to the matcher.
    active_requests: int
    #: Stripe requests newly issued this round.
    new_requests: int
    #: Requests served by the matching.
    matched: int
    #: Requests left unserved (0 in a feasible round).
    unmatched: int
    #: Whether the round's matching was feasible (Lemma 1 held).
    feasible: bool
    #: Upload slots used across all boxes.
    upload_used: int
    #: Aggregate per-round upload capacity.
    upload_capacity: int
    #: Demands injected through :meth:`VodSession.submit_demands`.
    demands_injected: int
    #: Demands the engine rejected this round (busy boxes).
    demands_rejected: int
    #: Playbacks that started as of this round.
    playback_starts: int
    #: Boxes offline under churn this round.
    offline_boxes: int
    #: 1 when the incremental repair path gave up on its search budget and
    #: the round fell back to the full matching kernel, 0 otherwise.
    #: Serialized only when set, so digests of runs without it are unchanged.
    repair_fallback: int = 0

    @property
    def utilization(self) -> float:
        """Fraction of the aggregate upload capacity in use."""
        if self.upload_capacity == 0:
            return 0.0
        return self.upload_used / self.upload_capacity

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-dict form (round-trips through :meth:`from_dict`)."""
        payload = self.to_round_stats().to_dict()
        for name in _SESSION_ONLY_FIELDS:
            payload[name] = int(getattr(self, name))
        if not payload["repair_fallback"]:
            # Only rounds that tripped the flag serialize it: digests of
            # runs without it are byte-identical to earlier recordings.
            del payload["repair_fallback"]
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RoundReport":
        """Rebuild from :meth:`to_dict` output (tolerates absent flags)."""
        return cls.from_round_stats(
            RoundStats.from_dict(data),
            **{name: int(data.get(name, 0)) for name in _SESSION_ONLY_FIELDS},
        )

    @classmethod
    def from_round_stats(cls, stats: RoundStats, **session_fields: int) -> "RoundReport":
        """Build a report from engine stats plus the session-only fields."""
        stats = RoundStats.from_dict(stats.to_dict())  # coerce numpy → native
        kwargs = {name: getattr(stats, name) for name in _ROUND_STATS_FIELDS}
        kwargs.update(session_fields)
        return cls(**kwargs)

    @property
    def digest(self) -> str:
        """SHA-256 digest of the canonical JSON form (replay comparisons)."""
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_round_stats(self) -> RoundStats:
        """The engine-level :class:`RoundStats` view of this round.

        The single comparison point for batch-vs-stepwise parity checks
        (CLI, golden tests, the overhead benchmark): a stepped round's
        report must equal ``run()``'s recorded stats field for field.
        """
        return RoundStats(**{name: getattr(self, name) for name in _ROUND_STATS_FIELDS})


#: RoundReport = the engine's RoundStats fields + these session-only ones
#: (all integer counters).
_ROUND_STATS_FIELDS = tuple(f.name for f in fields(RoundStats))
_SESSION_ONLY_FIELDS = tuple(
    f.name for f in fields(RoundReport) if f.name not in _ROUND_STATS_FIELDS
)


@dataclass(frozen=True)
class SessionSnapshot:
    """Opaque, restorable capture of a session's full deterministic state.

    The payload pickles the session object graph — engine (clock, swarms,
    playback/relay caches, possession index, warm-start assignments,
    pending postponed requests, metrics, trace), background workload with
    its RNG streams, and queued injected demands — so
    :meth:`VodSession.restore` continues exactly where the capture was
    taken.  A snapshot can be restored any number of times; restores are
    independent sessions.  Round observers are *not* captured (they may
    close over live resources) and must be re-attached after restore.

    On disk (:meth:`to_file`) the payload follows a fixed, checksummed
    header that carries the format version, the other fields and the
    payload's SHA-256, so a checkpoint file is written and read without
    pickling the snapshot around its payload.  The file is the one place
    the payload's integrity is checked: :meth:`to_file` hashes it and
    :meth:`from_file` verifies it.  Only :meth:`VodSession.restore`
    unpickles the payload, and only one of the current format: a change
    to the pickled layout bumps :data:`SNAPSHOT_FORMAT_VERSION`, and older
    payloads are rejected, not converted.
    """

    payload: bytes
    #: Round at which the snapshot was taken (the next round to execute).
    time: int
    #: Rounds completed when the snapshot was taken.
    rounds_completed: int

    def to_file(self, path: Union[str, Path]) -> Path:
        """Persist the snapshot to ``path`` (checkpoint files).

        The file is a fixed header — magic, format version, time, rounds
        completed, payload length, the payload's SHA-256 and a SHA-256 of
        the header itself — followed by the raw payload bytes, so
        :meth:`from_file` detects truncated or torn checkpoint files.  The
        payload is hashed here, once per file written.  The file is
        replaced atomically (:func:`repro.util.files.write_atomic`): a
        write killed mid-way leaves the previous checkpoint at ``path``
        intact.
        """
        packed = _FRAME_FIELDS.pack(
            _SNAPSHOT_MAGIC,
            SNAPSHOT_FORMAT_VERSION,
            self.time,
            self.rounds_completed,
            len(self.payload),
            hashlib.sha256(self.payload).digest(),
        )
        path = Path(path)
        write_atomic(path, packed + hashlib.sha256(packed).digest(), self.payload)
        return path

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SessionSnapshot":
        """Load a snapshot previously written with :meth:`to_file`.

        Raises :class:`~repro.api.errors.SnapshotIntegrityError` when the
        file is truncated (down to a proper prefix of its magic bytes) or a
        checksum does not match (torn copy, bit rot), and :class:`~repro.api.errors.SnapshotFormatError` when it is
        not in the current frame (any other file, an earlier frame, a bare
        pickle) or was recorded under a different snapshot format version;
        re-record the checkpoint from a fresh run instead.

        Nothing is unpickled: the header is checked, then the format
        version, then the payload's length against the file's size before
        the payload is read, then the payload's SHA-256.  A snapshot this
        returns needs no further check: :meth:`VodSession.restore` only
        unpickles it.
        """
        with Path(path).open("rb") as handle:
            header = handle.read(_FRAME_HEADER_SIZE)
            # A file torn inside the magic is a prefix of it, not foreign.
            if not _SNAPSHOT_MAGIC.startswith(header[: len(_SNAPSHOT_MAGIC)]):
                raise SnapshotFormatError(
                    f"{path} is not a readable snapshot file (no {_SNAPSHOT_MAGIC!r} "
                    "frame); re-record the checkpoint from a fresh run"
                )
            if len(header) < _FRAME_HEADER_SIZE:
                raise SnapshotIntegrityError(
                    f"snapshot {path} is truncated: incomplete header "
                    f"({len(header)} bytes)"
                )
            packed = header[: _FRAME_FIELDS.size]
            if hashlib.sha256(packed).digest() != header[_FRAME_FIELDS.size:]:
                raise SnapshotIntegrityError(
                    f"snapshot {path} is corrupt: checksum mismatch in its header"
                )
            _, version, time, rounds_completed, length, digest = (
                _FRAME_FIELDS.unpack(packed)
            )
            if version != SNAPSHOT_FORMAT_VERSION:
                raise SnapshotFormatError(
                    f"snapshot {path} has format version {version}, "
                    f"but this build reads version {SNAPSHOT_FORMAT_VERSION}; "
                    "snapshots are not migratable across engine-layout changes — "
                    "re-record the checkpoint from a fresh run"
                )
            # The header checksum catches bit rot, not a crafted length:
            # compare it with the file before reading that many bytes.
            found = os.fstat(handle.fileno()).st_size - _FRAME_HEADER_SIZE
            if found != length:
                raise SnapshotIntegrityError(
                    f"snapshot {path} is truncated: expected {length} payload "
                    f"bytes, found {found}"
                )
            payload = handle.read(length)
        if hashlib.sha256(payload).digest() != digest:
            raise SnapshotIntegrityError(
                f"snapshot {path} is corrupt: checksum mismatch"
            )
        return cls(payload=payload, time=time, rounds_completed=rounds_completed)


#: Leading bytes of a checkpoint file.  The header that follows is the
#: format version, time and rounds completed (signed 64-bit), the payload
#: length (unsigned 64-bit), all big-endian, and the payload's 32-byte
#: SHA-256; a SHA-256 of those header bytes closes it, and the raw
#: payload follows.
_SNAPSHOT_MAGIC = b"VODSNAP\x02"
_FRAME_FIELDS = struct.Struct(">8sqqqQ32s")
_FRAME_HEADER_SIZE = _FRAME_FIELDS.size + 32


class _SessionWorkload:
    """Adapter merging injected demands ahead of the background workload.

    With no injections it returns exactly the background generator's
    output, so a session stepping a scenario workload is bit-identical to
    the batch run of the same workload.
    """

    def __init__(self, session: "VodSession"):
        self._session = session

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Injected demands, then background demands on the other boxes."""
        pending = self._session._drain_pending()
        injected = np.asarray(pending, dtype=np.int64).reshape(-1, 2)
        boxes, videos = injected[:, 0], injected[:, 1]
        background = self._session._workload
        if background is None:
            return boxes, videos
        more_boxes, more_videos = background.demand_arrays_for_round(view)
        if not boxes.size:
            return more_boxes, more_videos
        keep = ~np.isin(more_boxes, boxes)
        return (
            np.concatenate([boxes, more_boxes[keep]]),
            np.concatenate([videos, more_videos[keep]]),
        )


class VodSession:
    """A stepwise handle on one live simulated system.

    Sessions are opened through :meth:`repro.api.VodSystem.open_session`
    (or :meth:`repro.scenarios.build.CompiledScenario.session`); the
    constructor accepts a ready engine for advanced embedding.

    Parameters
    ----------
    engine:
        The wrapped :class:`~repro.sim.engine.VodSimulator`.
    workload:
        Optional background demand generator queried every round (injected
        demands take precedence per box).  ``None`` means fully external
        demand: only :meth:`submit_demands` produces traffic.
    horizon:
        Optional round budget; :meth:`step` past it raises
        :class:`SessionClosedError`.  ``None`` = unbounded.
    fault_driver:
        Optional :class:`repro.faults.FaultDriver` applied at the start of
        every round (before the engine steps).  The driver's schedule is
        precomputed and keyed by absolute round, so it pickles with the
        session: snapshot/restore replays the remaining faults exactly.
    """

    def __init__(
        self,
        engine: VodSimulator,
        workload: Optional[DemandGenerator] = None,
        horizon: Optional[int] = None,
        fault_driver=None,
    ):
        if horizon is not None and horizon <= 0:
            raise ValueError(f"horizon must be positive or None, got {horizon}")
        self._engine = engine
        self._workload = workload
        self._horizon = horizon
        self._adapter = _SessionWorkload(self)
        self._fault_driver = fault_driver
        #: (box_id, video_id) demands queued for the next step, in order.
        self._pending: List[Tuple[int, int]] = []
        self._reports: List[RoundReport] = []
        self._closed = False
        self._stopped_early = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> VodSimulator:
        """The wrapped engine (read-only use; mutate through the hooks)."""
        return self._engine

    @property
    def now(self) -> int:
        """The next round to execute."""
        return self._engine.now

    @property
    def horizon(self) -> Optional[int]:
        """Round budget of the session (``None`` = unbounded)."""
        return self._horizon

    @property
    def rounds_completed(self) -> int:
        """Rounds executed so far."""
        return self._engine.rounds_completed

    @property
    def remaining_rounds(self) -> Optional[int]:
        """Rounds left before the horizon closes the session."""
        if self._horizon is None:
            return None
        return max(self._horizon - self.rounds_completed, 0)

    @property
    def closed(self) -> bool:
        """Whether the session refuses further rounds."""
        if self._closed:
            return True
        return self._horizon is not None and self.rounds_completed >= self._horizon

    @property
    def reports(self) -> Tuple[RoundReport, ...]:
        """Reports of every stepped round, in order."""
        return tuple(self._reports)

    @property
    def pending_demands(self) -> Tuple[Tuple[int, int], ...]:
        """Demands queued for the next round as ``(box_id, video_id)`` pairs."""
        return tuple(self._pending)

    def digest(self) -> str:
        """SHA-256 digest over all round reports (replay comparisons)."""
        payload = json.dumps(
            [report.to_dict() for report in self._reports],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # Online admission
    # ------------------------------------------------------------------ #
    def submit_demands(
        self,
        demands: Iterable[Union[Demand, Tuple[int, int]]],
    ) -> int:
        """Queue external demands for the next round; returns the count.

        Each entry is a ``(box_id, video_id)`` pair or a
        :class:`~repro.core.preloading.Demand` whose ``time`` must be the
        session's current round.  Admission is checked *now*, against the
        round the demand will execute in: a busy box (still playing), an
        offline box, a box already queued, or an out-of-range box/video
        raises :class:`AdmissionError` and queues nothing from the failing
        entry on (earlier entries stay queued).
        """
        if self.closed:
            raise SessionClosedError(
                f"session is closed after {self.rounds_completed} rounds"
            )
        engine = self._engine
        time = engine.now
        count = 0
        queued = {box_id for box_id, _ in self._pending}
        for entry in demands:
            if isinstance(entry, Demand):
                if entry.time != time:
                    raise AdmissionError(
                        f"demand is dated round {entry.time} but the session "
                        f"is at round {time}"
                    )
                box_id, video_id = entry.box_id, entry.video_id
            else:
                box_id, video_id = (int(entry[0]), int(entry[1]))
            if not 0 <= box_id < engine.population.n:
                raise AdmissionError(
                    f"box {box_id} outside the population of {engine.population.n}"
                )
            if not 0 <= video_id < engine.catalog.num_videos:
                raise AdmissionError(
                    f"video {video_id} outside the catalog of "
                    f"{engine.catalog.num_videos}"
                )
            if box_id in queued:
                raise AdmissionError(
                    f"box {box_id} already has a demand queued for round {time}"
                )
            if engine.is_box_busy(box_id, time):
                raise AdmissionError(
                    f"box {box_id} is busy playing a video at round {time}"
                )
            if engine.is_box_offline(box_id, time):
                raise AdmissionError(f"box {box_id} is offline at round {time}")
            self._pending.append((box_id, video_id))
            queued.add(box_id)
            count += 1
        return count

    def submit(self, box_id: int, video_id: int) -> None:
        """Queue a single demand (:meth:`submit_demands` convenience)."""
        self.submit_demands([(int(box_id), int(video_id))])

    def _drain_pending(self) -> List[Tuple[int, int]]:
        pending, self._pending = self._pending, []
        return pending

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def step(self) -> RoundReport:
        """Execute one round and return its :class:`RoundReport`.

        Raises :class:`SessionClosedError` once the horizon is exhausted or
        the session was closed.
        """
        if self.closed:
            raise SessionClosedError(
                f"session is closed after {self.rounds_completed} rounds"
                + (
                    f" (horizon {self._horizon})"
                    if self._horizon is not None
                    else ""
                )
            )
        engine = self._engine
        time = engine.now
        driver = self._fault_driver
        if driver is not None:
            driver.apply(engine, time)
        injected = len(self._pending)
        rejected_before = engine.rejected_demands
        playbacks_before = engine.playbacks_started

        feasible = engine.step(self._adapter)

        stats = engine.last_round_stats
        playback_starts = engine.playbacks_started - playbacks_before
        report = RoundReport.from_round_stats(
            stats,
            demands_injected=injected,
            demands_rejected=int(engine.rejected_demands - rejected_before),
            playback_starts=playback_starts,
            offline_boxes=int(engine.offline_array(time).size),
            repair_fallback=int(engine.last_round_repair_fallback),
        )
        self._reports.append(report)
        if not feasible and engine._stop_on_infeasible:
            self._stopped_early = True
            self._closed = True
        return report

    def step_until(
        self,
        round: Optional[int] = None,
        *,
        rounds: Optional[int] = None,
    ) -> List[RoundReport]:
        """Step until the clock reaches ``round`` (or ``rounds`` more rounds).

        Exactly one of ``round`` / ``rounds`` must be given.  Stops early
        (without error) if the engine's ``stop_on_infeasible`` closes the
        session; raises :class:`SessionClosedError` only when asked to step
        a session that is already closed.
        """
        if (round is None) == (rounds is None):
            raise ValueError("provide exactly one of round= or rounds=")
        if rounds is not None:
            if rounds < 0:
                raise ValueError(f"rounds must be non-negative, got {rounds}")
            target = self.now + rounds
        else:
            target = int(round)
            if target < self.now:
                raise ValueError(
                    f"target round {target} is in the past (now: {self.now})"
                )
        collected: List[RoundReport] = []
        while self.now < target:
            collected.append(self.step())
            if self._closed:
                break
        return collected

    def run_to_horizon(self) -> SimulationResult:
        """Step through every remaining round and return the final result."""
        if self._horizon is None:
            raise ValueError("run_to_horizon requires a bounded session")
        self.step_until(round=self._horizon)
        return self.result()

    def result(self) -> SimulationResult:
        """Aggregate everything executed so far (callable mid-session)."""
        return self._engine.result(stopped_early=self._stopped_early)

    def close(self) -> None:
        """Refuse further rounds; stepping afterwards raises."""
        self._closed = True

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #
    def snapshot(self) -> SessionSnapshot:
        """Capture the session's full deterministic state.

        Everything a continuation needs is included — clock, swarms,
        playback/relay caches, possession index, RNG streams of every
        component, warm-start assignment, pending postponed requests and
        queued injected demands — so ``restore(snapshot)`` followed by
        ``step()``s is bit-identical to continuing uninterrupted.  The
        engine's ``round_observer`` (if any) is left out of its pickled
        state and must be re-attached after restore.  Only live state is
        pickled: the request pool and the demand log keep their live rows,
        and NumPy's dtypes are named, so the restored arrays are on NumPy's
        own dtype instances and the restored session steps as fast as this
        one.  The payload is not hashed here: :meth:`SessionSnapshot.to_file`
        hashes it when it writes a checkpoint file.
        """
        buffer = io.BytesIO()
        _SnapshotPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(self)
        return SessionSnapshot(
            payload=buffer.getvalue(),
            time=self.now,
            rounds_completed=self.rounds_completed,
        )

    @classmethod
    def restore(cls, snapshot: SessionSnapshot) -> "VodSession":
        """Reconstruct an independent session from a snapshot.

        Each call produces a fresh object graph: restoring twice yields two
        sessions that evolve independently (and identically, given the same
        inputs).  This is the one place the package unpickles, and it only
        unpickles: a snapshot's payload comes from :meth:`snapshot` in this
        process or from :meth:`SessionSnapshot.from_file`, which has checked
        its frame, format version and SHA-256.  A payload this build cannot
        unpickle (it names classes this build no longer has, or a state
        layout they no longer read), or one that does not hold a session,
        raises :class:`~repro.api.errors.SnapshotFormatError`.
        """
        try:
            session = pickle.loads(snapshot.payload)
        except Exception as exc:
            raise SnapshotFormatError(
                f"snapshot payload cannot be read by this build ({exc}); "
                "re-record the checkpoint from a fresh run"
            ) from exc
        if not isinstance(session, cls):
            raise SnapshotFormatError(
                "snapshot payload does not contain a VodSession; "
                "re-record the checkpoint from a fresh run"
            )
        return session

    # ------------------------------------------------------------------ #
    # Live reconfiguration
    # ------------------------------------------------------------------ #
    def add_videos(self, num_videos: int, random_state=None) -> List[int]:
        """Grow the catalog mid-run; returns the new video identifiers.

        New stripes are replicated at the allocation's ``k`` over the
        population's free storage slots (see
        :meth:`repro.sim.engine.VodSimulator.add_videos`).
        """
        return self._engine.add_videos(num_videos, random_state=random_state)

    def join_boxes(
        self, uploads: Sequence[float], storages: Sequence[float]
    ) -> List[int]:
        """Add boxes to the live population; returns their identifiers."""
        return self._engine.join_boxes(uploads, storages)

    def set_capacity(self, box_id: int, upload: float) -> int:
        """Reconfigure a box's upload capacity; returns its new stripe budget."""
        return self._engine.set_upload_capacity(box_id, upload)
