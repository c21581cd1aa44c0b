"""In-memory span tracer for the end-to-end benchmark's traced run.

The tracer wraps the public entry points of each engine layer at class or
module level (never on instances: snapshots pickle instances, and a
restored session must stay traced).  Every call records a span — name,
start, end, parent span and the round index as request id — plus the
counters its layer boundary exposes.  Spans stay in memory until
:meth:`Tracer.dump`; :meth:`Tracer.installed` restores every original
attribute on exit.

A layer's self time is its span's duration minus the time its child spans
cover; self times of all spans under the benchmark's own root spans sum to
the roots' total, which is what lets a speed-up be credited to one layer.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import repro.core.matching as matching_module
import repro.sim.engine as engine_module
from repro.api.session import SessionSnapshot, VodSession
from repro.core.matching import ConnectionMatcher, PossessionIndex
from repro.core.preloading import PreloadingScheduler
from repro.scenarios.phases import PhasedWorkload
from repro.sim.churn import ChurnSchedule
from repro.sim.metrics import MetricsCollector
from repro.sim.scheduler import ActiveRequestPool
from repro.sim.swarm import SwarmRegistry

#: Root span around ``VodSession.step()``; its self time is the engine's own
#: round code between the traced layer calls.
STEP_SPAN = "sim.engine.step"
#: Root span around one snapshot -> file -> load -> restore cycle.
CHECKPOINT_SPAN = "api.session.checkpoint"


def _count_edges(counters, args, kwargs, result, before) -> None:
    counters["core.matching.edges_gathered"] += int(result[1].size)


def _count_hk_edges(counters, args, kwargs, result, before) -> None:
    indices = kwargs["indices"] if "indices" in kwargs else args[3]
    counters["flow.hopcroft_karp_edges"] += int(indices.size)


def _repair_rounds_before(args, kwargs) -> int:
    return args[0].repair_rounds


def _count_match(counters, args, kwargs, result, before) -> None:
    counters["core.matching.repair_rounds"] += args[0].repair_rounds - before
    counters["core.matching.repair_fallback_rounds"] += int(result.repair_fallback)
    counters["core.matching.degraded_rounds"] += int(result.degraded)


def _count_demand_arrays(counters, args, kwargs, result, before) -> None:
    if result is not None:
        counters["workloads.demands_generated"] += int(result[0].size)


def _count_demand_objects(counters, args, kwargs, result, before) -> None:
    counters["workloads.object_path_rounds"] += 1
    counters["workloads.demands_generated"] += len(result)


def _count_requests(counters, args, kwargs, result, before) -> None:
    counters["core.preloading.requests_generated"] += int(result[0].size)


def _count_snapshot_file(counters, args, kwargs, result, before) -> None:
    counters["api.session.snapshot_bytes_total"] += Path(result).stat().st_size


#: (owner, attribute, span name, pre-call hook, post-call counter hook).
#: Pre-hooks read state the post-hook compares against; both run outside
#: the span so counting never inflates a layer's time.
PATCHES = (
    (PossessionIndex, "adjacency_delta_for", "core.matching.adjacency_delta_for", None, _count_edges),
    (PossessionIndex, "adjacency_for", "core.matching.adjacency_for", None, _count_edges),
    (PossessionIndex, "row_with_expiry", "core.matching.row_with_expiry", None, None),
    (PossessionIndex, "evict_before", "core.matching.evict_before", None, None),
    (PossessionIndex, "record_downloads", "core.matching.record_downloads", None, None),
    (ConnectionMatcher, "match", "core.matching.match", _repair_rounds_before, _count_match),
    (matching_module, "hopcroft_karp_matching", "flow.hopcroft_karp", None, _count_hk_edges),
    (matching_module, "repair_matching", "flow.repair_matching", None, None),
    (engine_module, "admission_mask", "sim.rules.admission_mask", None, None),
    (engine_module, "detect_playback_starts", "sim.rules.detect_playback_starts", None, None),
    (PhasedWorkload, "demand_arrays_for_round", "workloads.demands", None, _count_demand_arrays),
    (PhasedWorkload, "demands_for_round", "workloads.demands", None, _count_demand_objects),
    (SwarmRegistry, "enter", "sim.swarm.enter", None, None),
    (SwarmRegistry, "enter_batch", "sim.swarm.enter", None, None),
    (PreloadingScheduler, "on_demand_arrays", "core.preloading.on_demands", None, _count_requests),
    (PreloadingScheduler, "on_demands_batch", "core.preloading.on_demands", None, _count_requests),
    (PreloadingScheduler, "due_arrays", "core.preloading.due_arrays", None, _count_requests),
    (ActiveRequestPool, "drop_expired_keeping", "sim.scheduler.drop_expired", None, None),
    (ActiveRequestPool, "extend_from_arrays", "sim.scheduler.extend", None, None),
    (ActiveRequestPool, "request_set", "sim.scheduler.request_set", None, None),
    (ActiveRequestPool, "apply_matching", "sim.scheduler.apply_matching", None, None),
    (MetricsCollector, "record_demands", "sim.metrics.record", None, None),
    (MetricsCollector, "record_requests", "sim.metrics.record", None, None),
    (MetricsCollector, "record_round", "sim.metrics.record", None, None),
    (MetricsCollector, "record_startup_delays", "sim.metrics.record", None, None),
    (ChurnSchedule, "offline_array", "sim.churn.offline_array", None, None),
    (VodSession, "snapshot", "api.session.snapshot", None, None),
    (SessionSnapshot, "to_file", "api.session.to_file", None, _count_snapshot_file),
    (SessionSnapshot, "from_file", "api.session.from_file", None, None),
    (VodSession, "restore", "api.session.restore", None, None),
)


class Tracer:
    """Collects spans and boundary counters while installed."""

    def __init__(self) -> None:
        #: Each span is ``[name, start_ns, end_ns, parent_index, round]``.
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        #: Round index stamped on every new span (the request id).
        self.round = -1
        self._stack: List[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.round])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around the benchmark's own call into a layer."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn: Callable, pre, post) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre is not None else None
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if post is not None:
                post(tracer.counters, args, kwargs, result, before)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every layer entry point; restore the originals on exit."""
        saved = []
        try:
            for owner, attribute, name, pre, post in PATCHES:
                original = owner.__dict__[attribute]
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(name, original.__func__, pre, post))
                else:
                    patched = self._wrap(name, original, pre, post)
                setattr(owner, attribute, patched)
                saved.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def layer_times(self) -> Dict[str, Dict[str, int]]:
        """Per span name: ``calls``, inclusive ``total_ns`` and ``self_ns``."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers: Dict[str, Dict[str, int]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = layers.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - covered[index]
        return layers

    def dump(self, path: Path, meta: Optional[dict] = None) -> Path:
        """Write every span (names interned) and counter as JSON."""
        names = sorted({span[0] for span in self.spans})
        code = {name: k for k, name in enumerate(names)}
        payload = {
            "meta": meta or {},
            "fields": ["name", "start_ns", "end_ns", "parent", "round"],
            "names": names,
            "spans": [[code[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counters": dict(self.counters),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))
        return path
