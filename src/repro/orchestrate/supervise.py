"""A supervised process pool for campaign execution.

``ProcessPoolExecutor.map`` has exactly the failure modes a long
campaign cannot afford: one SIGKILLed worker poisons every in-flight
future with ``BrokenProcessPool``, a hung worker stalls the whole run
forever, and a deterministic crasher takes the campaign down with it.
:func:`run_supervised` wraps the pool with the supervision loop the
orchestrator needs:

* **timeouts** — each submitted cell carries a deadline; when it expires
  the pool's workers are killed, the timed-out cell is charged one
  attempt, and every *other* in-flight cell is requeued uncharged;
* **crash recovery** — a broken pool is rebuilt and the in-flight cells
  are requeued without being charged (the kill is not attributable to
  any one of them); the pool then runs in *isolation mode* — one cell in
  flight at a time — until each suspect has cleared, so a deterministic
  crasher is identified and charged instead of poisoning its neighbours;
* **bounded retry** — failed attempts are retried with exponential
  backoff; a cell that exhausts its retries is *quarantined* and
  reported, never fatal;
* **as-it-finishes delivery** — completed cells reach the caller's
  callback immediately, preserving the incremental-persistence property
  that makes killed campaigns resumable.

Determinism note: retries, reordering and pool rebuilds never change
*what* a cell computes (cells are pure functions of their params), so a
store produced under injected worker crashes is byte-identical to a
fault-free one once every cell has completed.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["SupervisionPolicy", "QuarantinedCell", "run_supervised"]


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the supervision loop.

    ``cell_timeout`` is the per-attempt wall-clock budget in seconds
    (``None`` disables timeouts); ``max_retries`` is the number of
    *re*-tries after the first failed attempt, so a cell is quarantined
    on failure number ``max_retries + 1``.
    """

    cell_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(
                f"cell_timeout must be positive or None, got {self.cell_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")

    def backoff(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return min(self.backoff_cap, self.backoff_base * (2.0 ** max(attempt - 1, 0)))


@dataclass(frozen=True)
class QuarantinedCell:
    """A cell that exhausted its retry budget; reported, not fatal."""

    index: int
    label: str
    attempts: int
    reason: str


class _Item:
    __slots__ = ("index", "payload", "label", "attempts")

    def __init__(self, index: int, payload: Any, label: str):
        self.index = index
        self.payload = payload
        self.label = label
        self.attempts = 0


def _kill_workers(executor: ProcessPoolExecutor) -> None:
    # There is no public API for tearing down stuck workers; killing the
    # processes directly is the documented workaround (shutdown() would
    # join them and hang forever behind a worker that never returns).
    for process in list(getattr(executor, "_processes", {}).values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - already-dead race
            pass
    executor.shutdown(wait=True, cancel_futures=True)


def run_supervised(
    payloads: Sequence[Any],
    worker: Callable[[Any], Any],
    max_workers: int,
    policy: Optional[SupervisionPolicy] = None,
    on_complete: Optional[Callable[[int, Any], None]] = None,
    labels: Optional[Sequence[str]] = None,
) -> Tuple[List[Optional[Any]], List[QuarantinedCell]]:
    """Run ``worker`` over ``payloads`` under supervision.

    Returns ``(results, quarantined)`` where ``results[i]`` is the
    worker's return value for ``payloads[i]`` (``None`` when that cell
    was quarantined).  ``on_complete(index, result)`` fires as each cell
    finishes, before the function returns — persist there to keep
    interrupted runs resumable.
    """
    policy = policy or SupervisionPolicy()
    if max_workers < 1:
        raise ValueError(f"max_workers must be positive, got {max_workers}")
    labels = list(labels) if labels is not None else [str(i) for i in range(len(payloads))]
    if len(labels) != len(payloads):
        raise ValueError("need exactly one label per payload")

    queue = deque(_Item(i, payload, labels[i]) for i, payload in enumerate(payloads))
    results: List[Optional[Any]] = [None] * len(payloads)
    quarantined: List[QuarantinedCell] = []
    suspects: set = set()  # indexes that were in flight during a pool break
    executor = ProcessPoolExecutor(max_workers=max_workers)
    in_flight: Dict[Any, _Item] = {}
    deadlines: Dict[Any, float] = {}

    def _charge(item: _Item, reason: str) -> None:
        item.attempts += 1
        suspects.discard(item.index)
        if item.attempts > policy.max_retries:
            quarantined.append(
                QuarantinedCell(item.index, item.label, item.attempts, reason)
            )
        else:
            if policy.backoff_base > 0:
                time.sleep(policy.backoff(item.attempts))
            suspects.add(item.index)  # retried cells stay isolated
            queue.append(item)

    def _rebuild_pool() -> None:
        nonlocal executor
        _kill_workers(executor)
        executor = ProcessPoolExecutor(max_workers=max_workers)

    def _recover_broken_pool(broken_items: List[_Item]) -> None:
        if not in_flight and len(broken_items) == 1:
            # The cell was alone in the pool (isolation mode or a
            # lone straggler): the crash is attributable — charge.
            _charge(broken_items[0], "worker process died (SIGKILL/crash)")
        else:
            # Several cells shared the broken pool: none of them
            # can be blamed, so all requeue uncharged as suspects
            # and run isolated until cleared.
            for item in broken_items:
                suspects.add(item.index)
                queue.appendleft(item)
        for item in in_flight.values():
            suspects.add(item.index)
            queue.appendleft(item)
        in_flight.clear()
        deadlines.clear()
        _rebuild_pool()

    try:
        while queue or in_flight:
            # Isolation mode: while any crash suspect is unresolved, run
            # one cell at a time so the next crash is attributable.
            limit = 1 if suspects else max_workers
            submit_broke = False
            while queue and len(in_flight) < limit:
                item = queue.popleft()
                try:
                    future = executor.submit(worker, item.payload)
                except BrokenProcessPool:
                    # A worker died and the pool is marked broken before
                    # its futures completed.  This item never ran, so it
                    # requeues uncharged; the in-flight cells shared the
                    # broken pool and are recovered as if wait() said so.
                    queue.appendleft(item)
                    submit_broke = True
                    break
                in_flight[future] = item
                if policy.cell_timeout is not None:
                    deadlines[future] = time.monotonic() + policy.cell_timeout
            if submit_broke:
                _recover_broken_pool([])
                continue

            timeout = None
            if deadlines:
                timeout = max(min(deadlines.values()) - time.monotonic(), 0.0)
            done, _ = wait(in_flight, timeout=timeout, return_when=FIRST_COMPLETED)

            if not done:
                # A deadline expired with nothing finished: the expired
                # cells are charged, everything else requeues uncharged.
                now = time.monotonic()
                expired = [f for f, d in deadlines.items() if d <= now]
                survivors = [f for f in in_flight if f not in expired]
                _rebuild_pool()
                for future in survivors:
                    item = in_flight.pop(future)
                    suspects.discard(item.index)
                    queue.appendleft(item)
                for future in expired:
                    item = in_flight.pop(future)
                    _charge(item, f"timed out after {policy.cell_timeout}s")
                deadlines.clear()
                continue

            batch = [(future, in_flight.pop(future)) for future in done]
            broken_items: List[_Item] = []
            for future, item in batch:
                deadlines.pop(future, None)
                error = future.exception()
                if error is None:
                    results[item.index] = future.result()
                    suspects.discard(item.index)
                    if on_complete is not None:
                        on_complete(item.index, results[item.index])
                elif isinstance(error, BrokenProcessPool):
                    broken_items.append(item)
                else:
                    _charge(item, f"{type(error).__name__}: {error}")
            if broken_items:
                _recover_broken_pool(broken_items)
    finally:
        _kill_workers(executor)
    return results, quarantined
