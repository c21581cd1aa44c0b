"""Compact on-disk demand traces and the trace-replay generator.

Real-workload studies (and Icarus' ``TraceDrivenWorkload``) replay
recorded request logs instead of sampling a parametric law.  This module
defines a minimal binary trace format, a writer, a *streaming* reader —
traces are consumed in fixed-size chunks and are never fully resident in
RAM — and :class:`TraceDemandWorkload`, which replays a trace through the
same :class:`~repro.workloads.base.DemandGenerator` protocol as the
synthetic generators.

Format (little-endian, version 1)::

    offset  size  field
    0       4     magic  b"RPTR"
    4       2     format version (1)
    6       2     reserved (0)
    8       4     num_videos  (u32; every event's video id is < this)
    12      8     num_events  (u64)
    20      8*n   events: (time u32, video u32) pairs, sorted by time

The trace pins *what* is requested and *when*; *which* box issues each
request is drawn from the generator's random stream (a per-phase child of
the scenario master seed), so trace replays stay inside the golden-digest
discipline.

A small fixture trace ships with the package under
``repro/workloads/data/`` so the ``trace_replay`` scenario works from a
clean checkout; :func:`resolve_trace_path` accepts either a bundled trace
name or a filesystem path.
"""

from __future__ import annotations

import os
import struct
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.util.rng import RandomState, as_generator
from repro.util.validation import check_non_negative_integer, check_positive_integer
from repro.workloads.base import SystemView

__all__ = [
    "TRACE_MAGIC",
    "TRACE_VERSION",
    "TraceHeader",
    "bundled_trace_names",
    "resolve_trace_path",
    "write_trace",
    "read_trace_header",
    "iter_trace",
    "load_trace",
    "TraceDemandWorkload",
]

TRACE_MAGIC = b"RPTR"
TRACE_VERSION = 1
_HEADER = struct.Struct("<4sHHIQ")
_EVENT_DTYPE = np.dtype([("time", "<u4"), ("video", "<u4")])

#: Events decoded per read when streaming; bounds resident memory at
#: ``CHUNK_EVENTS * 8`` bytes regardless of trace length.
CHUNK_EVENTS = 4096

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class TraceHeader:
    """Decoded trace-file header."""

    __slots__ = ("num_videos", "num_events")

    def __init__(self, num_videos: int, num_events: int):
        self.num_videos = num_videos
        self.num_events = num_events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceHeader(num_videos={self.num_videos}, num_events={self.num_events})"


def bundled_trace_names() -> List[str]:
    """Names of the traces shipped inside the package (sorted)."""
    if not os.path.isdir(_DATA_DIR):
        return []
    return sorted(
        name[: -len(".trace")]
        for name in os.listdir(_DATA_DIR)
        if name.endswith(".trace")
    )


def resolve_trace_path(trace: str) -> str:
    """Resolve a trace reference to a file path.

    ``trace`` may be a filesystem path or the name of a bundled trace
    (a file ``<name>.trace`` under ``repro/workloads/data/``).
    """
    if os.path.isfile(trace):
        return trace
    bundled = os.path.join(_DATA_DIR, f"{trace}.trace")
    if os.path.isfile(bundled):
        return bundled
    names = ", ".join(bundled_trace_names()) or "<none>"
    raise FileNotFoundError(
        f"trace {trace!r} is neither an existing file nor a bundled trace "
        f"name; bundled traces: {names}"
    )


def write_trace(
    path: str, events: Iterable[Tuple[int, int]], num_videos: int
) -> int:
    """Write ``(time, video)`` events to ``path``; returns the event count.

    Events must be sorted by time (ties allowed) and every video id must
    lie in ``[0, num_videos)`` — violations raise ``ValueError`` naming
    the offending event index so a bad trace never reaches disk silently.
    """
    num_videos = check_positive_integer(num_videos, "num_videos")
    rows: List[Tuple[int, int]] = []
    last_time = -1
    for index, (time, video) in enumerate(events):
        time = int(time)
        video = int(video)
        if time < last_time:
            raise ValueError(
                f"trace events must be sorted by time: event {index} has "
                f"time {time} after time {last_time}"
            )
        if time < 0 or time > 0xFFFFFFFF:
            raise ValueError(f"event {index} time {time} does not fit in u32")
        if not 0 <= video < num_videos:
            raise ValueError(
                f"event {index} video id {video} is outside [0, {num_videos})"
            )
        last_time = time
        rows.append((time, video))
    data = np.array(rows, dtype=_EVENT_DTYPE)
    with open(path, "wb") as handle:
        handle.write(
            _HEADER.pack(TRACE_MAGIC, TRACE_VERSION, 0, num_videos, len(rows))
        )
        handle.write(data.tobytes())
    return len(rows)


def read_trace_header(path: str) -> TraceHeader:
    """Read and validate the header of a trace file."""
    with open(path, "rb") as handle:
        raw = handle.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise ValueError(f"trace file {path!r} is truncated (no full header)")
    magic, version, _reserved, num_videos, num_events = _HEADER.unpack(raw)
    if magic != TRACE_MAGIC:
        raise ValueError(
            f"trace file {path!r} has bad magic {magic!r} (expected "
            f"{TRACE_MAGIC!r}); is this really a repro trace?"
        )
    if version != TRACE_VERSION:
        raise ValueError(
            f"trace file {path!r} is format version {version}, but this "
            f"reader supports only version {TRACE_VERSION}"
        )
    return TraceHeader(num_videos=int(num_videos), num_events=int(num_events))


def iter_trace(path: str) -> Iterator[Tuple[int, int]]:
    """Stream ``(time, video)`` events from ``path`` in bounded memory.

    Reads ``CHUNK_EVENTS`` events per I/O call; a multi-gigabyte trace
    replays with the same footprint as the bundled fixture.
    """
    header = read_trace_header(path)
    remaining = header.num_events
    with open(path, "rb") as handle:
        handle.seek(_HEADER.size)
        while remaining > 0:
            batch = min(remaining, CHUNK_EVENTS)
            raw = handle.read(batch * _EVENT_DTYPE.itemsize)
            if len(raw) < batch * _EVENT_DTYPE.itemsize:
                raise ValueError(
                    f"trace file {path!r} is truncated: header promises "
                    f"{header.num_events} events but the data ends early"
                )
            chunk = np.frombuffer(raw, dtype=_EVENT_DTYPE)
            for time, video in zip(chunk["time"].tolist(), chunk["video"].tolist()):
                yield time, video
            remaining -= batch


def load_trace(path: str) -> Tuple[TraceHeader, List[Tuple[int, int]]]:
    """In-memory reference reader (tests compare it against :func:`iter_trace`)."""
    header = read_trace_header(path)
    return header, list(iter_trace(path))


class TraceDemandWorkload:
    """Replay a recorded trace as the demand process.

    Each round, every trace event with timestamp up to the current round
    (and not yet delivered) becomes one demand; the requesting boxes are
    drawn without replacement from the currently free boxes.  When fewer
    boxes are free than events are due, the surplus events are dropped
    (the trace is demand pressure, not a guarantee), mirroring the
    truncation rule of the Poisson generators.

    Parameters
    ----------
    trace:
        Bundled trace name or path (see :func:`resolve_trace_path`).
    start_time:
        Offset added to every trace timestamp, shifting the replay.
    """

    def __init__(
        self,
        trace: str,
        start_time: int = 0,
        random_state: RandomState = None,
    ):
        self._path = resolve_trace_path(trace)
        self._start = check_non_negative_integer(start_time, "start_time")
        self._rng = as_generator(random_state)
        self._header = read_trace_header(self._path)
        self._events = iter_trace(self._path)
        self._pending: Tuple[int, int] | None = None
        self._exhausted = self._header.num_events == 0

    @property
    def header(self) -> TraceHeader:
        return self._header

    def _due_videos(self, time: int) -> List[int]:
        """Trace video ids with (shifted) timestamp <= ``time``, in order."""
        due: List[int] = []
        while True:
            if self._pending is None:
                if self._exhausted:
                    break
                try:
                    self._pending = next(self._events)
                except StopIteration:
                    self._exhausted = True
                    break
            event_time, video = self._pending
            if event_time + self._start > time:
                break
            due.append(video)
            self._pending = None
        return due

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Replay this round's due trace events."""
        if self._header.num_videos > view.catalog.num_videos:
            raise ValueError(
                f"trace {self._path!r} was recorded over "
                f"{self._header.num_videos} videos but the catalog holds only "
                f"{view.catalog.num_videos}; replay it against a catalog of at "
                f"least {self._header.num_videos} videos"
            )
        due = self._due_videos(view.time)
        free = np.asarray(view.free_boxes, dtype=np.int64)
        count = min(len(due), free.size)
        if count == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        boxes = self._rng.choice(free, size=count, replace=False)
        videos = np.asarray(due[:count], dtype=np.int64)
        return boxes.astype(np.int64, copy=False), videos


def synthesize_zipf_trace(
    path: str,
    num_videos: int,
    num_rounds: int,
    events_per_round: float,
    exponent: float = 0.8,
    seed: int = 0,
) -> int:
    """Generate and write a Zipf-popular Poisson trace (fixture helper).

    Used to build the committed fixture deterministically; kept in the
    library so the fixture can be regenerated byte-identically.
    """
    from repro.workloads.popularity import zipf_weights

    rng = np.random.default_rng(seed)
    weights = zipf_weights(num_videos, exponent)
    events: List[Tuple[int, int]] = []
    for time in range(check_positive_integer(num_rounds, "num_rounds")):
        count = int(rng.poisson(events_per_round))
        for video in rng.choice(num_videos, size=count, replace=True, p=weights):
            events.append((time, int(video)))
    return write_trace(path, events, num_videos)
