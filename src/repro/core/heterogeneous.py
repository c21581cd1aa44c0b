"""Heterogeneous systems: balance conditions, compensation and relaying (Section 4).

In a heterogeneous system the difficult case is a crowd of *poor* boxes
(upload below a threshold ``u* > 1``) all playing the same video: they
cannot replicate the data among themselves.  The paper's solution:

* **upload compensation** — every poor box ``b`` (``u_b < u*``) is paired
  with a rich box ``r(b)`` on which an upload capacity of
  ``u* + 1 − 2·u_b`` is statically reserved; a rich box ``a`` may back
  several poor boxes as long as
  ``u_a ≥ u* + Σ_{b : r(b)=a} (u* + 1 − 2·u_b)``;
* **storage balance** — ``2 ≤ d_b/u_b ≤ d/u*`` for every box, so that
  relay caching (the relay keeps a copy of every stripe it forwards) costs
  at most half of the relay's storage;
* **relayed request strategy** — a poor box issues its preloading request
  through ``r(b)`` and receives the stripes forwarded over the reserved
  upload; it requests directly only ``c_b = ⌊c·u_b − 4µ⁴⌋`` of the
  remaining stripes.  On the doubled time scale this reduces to the
  homogeneous strategy with growth bound ``µ²``.

This module implements the balance predicates, a greedy compensation
planner (first-fit decreasing on the rich boxes), the per-box reserved
upload/storage accounting, and the relayed preloading scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.parameters import BoxPopulation
from repro.core.preloading import (
    NO_REQUESTS,
    RequestArrays,
    check_video_ids,
    other_stripes,
    pop_block,
    pop_postponed,
    preload_indices,
    queue_block,
)
from repro.core.video import Catalog
from repro.util.validation import (
    check_in_range,
    check_positive_integer,
)

__all__ = [
    "CompensationError",
    "CompensationPlan",
    "compute_compensation_plan",
    "is_upload_compensable",
    "is_balanced",
    "direct_stripe_budget",
    "RelayedPreloadingScheduler",
    "RELAYED_START_UP_DELAY_ROUNDS",
]

#: Start-up delay of the relayed strategy (the poor-box timeline spans
#: rounds t .. t+3 before every stripe flows, then playback begins).
RELAYED_START_UP_DELAY_ROUNDS = 5


class CompensationError(RuntimeError):
    """Raised when a population cannot be ``u*``-upload-compensated."""


@dataclass(frozen=True)
class CompensationPlan:
    """A ``u*``-upload-compensation: which rich box backs which poor box.

    Attributes
    ----------
    u_star:
        The upload threshold ``u*`` the plan compensates for.
    relay_of:
        ``relay_of[b]`` is the rich box backing poor box ``b``; ``-1`` for
        rich boxes (they need no relay).
    reserved_upload:
        ``reserved_upload[a]`` is the total upload reserved on box ``a``
        for the poor boxes it backs, ``Σ_{b : r(b)=a} (u* + 1 − 2·u_b)``.
    """

    u_star: float
    relay_of: np.ndarray
    reserved_upload: np.ndarray

    def __post_init__(self) -> None:
        relay = np.asarray(self.relay_of, dtype=np.int64)
        reserved = np.asarray(self.reserved_upload, dtype=np.float64)
        if relay.ndim != 1 or reserved.ndim != 1 or relay.size != reserved.size:
            raise ValueError("relay_of and reserved_upload must be 1-D arrays of equal length")
        object.__setattr__(self, "relay_of", relay)
        object.__setattr__(self, "reserved_upload", reserved)

    @property
    def num_boxes(self) -> int:
        """Number of boxes covered by the plan."""
        return int(self.relay_of.size)

    def relay(self, box_id: int) -> Optional[int]:
        """The relay ``r(b)`` of poor box ``box_id`` (``None`` for rich boxes)."""
        value = int(self.relay_of[box_id])
        return None if value < 0 else value

    def backed_boxes(self, relay_id: int) -> np.ndarray:
        """Poor boxes backed by ``relay_id``."""
        return np.flatnonzero(self.relay_of == relay_id).astype(np.int64)

    def is_poor(self, box_id: int) -> bool:
        """Whether ``box_id`` is a poor box under this plan."""
        return int(self.relay_of[box_id]) >= 0

    def residual_uploads(self, population: BoxPopulation) -> np.ndarray:
        """Per-box upload remaining after subtracting the reserved capacity."""
        return population.uploads - self.reserved_upload


def is_upload_compensable(population: BoxPopulation, u_star: float) -> bool:
    """Whether a compensation plan exists (checked constructively)."""
    try:
        compute_compensation_plan(population, u_star)
        return True
    except CompensationError:
        return False


def compute_compensation_plan(
    population: BoxPopulation, u_star: float
) -> CompensationPlan:
    """Compute a ``u*``-upload-compensation by first-fit-decreasing packing.

    Each poor box ``b`` needs a reservation of ``u* + 1 − 2·u_b`` on some
    rich box ``a``, subject to ``u_a ≥ u* + Σ reservations on a``.  Poor
    boxes are processed by decreasing need and placed on the rich box with
    the largest remaining headroom (best-fit on remaining capacity), which
    succeeds whenever a perfect packing is "reasonably" possible; a
    :class:`CompensationError` carries the diagnostic when it is not.
    """
    u_star = check_in_range(u_star, "u_star", 1.0, math.inf, inclusive_low=False)
    uploads = population.uploads
    poor = population.poor_boxes(u_star)
    rich = population.rich_boxes(u_star)
    relay_of = np.full(population.n, -1, dtype=np.int64)
    reserved = np.zeros(population.n, dtype=np.float64)
    if poor.size == 0:
        return CompensationPlan(u_star=u_star, relay_of=relay_of, reserved_upload=reserved)
    if rich.size == 0:
        raise CompensationError(
            f"no box has upload ≥ u* = {u_star}: cannot compensate "
            f"{poor.size} poor boxes"
        )
    # Headroom of a rich box a: u_a − u* (reservations must keep u_a ≥ u* + reserved).
    headroom = uploads[rich] - u_star
    needs = u_star + 1.0 - 2.0 * uploads[poor]
    # A poor box with u_b ≥ (u*+1)/2 needs a non-positive reservation; it
    # still gets a relay (the strategy routes its preload through r(b)) but
    # consumes no headroom.
    order = np.argsort(-needs)
    for poor_idx in order:
        b = int(poor[poor_idx])
        need = max(float(needs[poor_idx]), 0.0)
        candidate_order = np.argsort(-headroom)
        placed = False
        for cand in candidate_order:
            if headroom[cand] + 1e-12 >= need:
                a = int(rich[cand])
                relay_of[b] = a
                reserved[a] += need
                headroom[cand] -= need
                placed = True
                break
        if not placed:
            raise CompensationError(
                f"cannot reserve {need:.3f} upload for poor box {b}: "
                f"maximum remaining rich-box headroom is {float(headroom.max()):.3f} "
                f"(u* = {u_star}, Δ(u*) = {population.upload_deficit(u_star):.3f}, "
                f"n = {population.n})"
            )
    return CompensationPlan(u_star=u_star, relay_of=relay_of, reserved_upload=reserved)


def is_balanced(population: BoxPopulation, u_star: float) -> bool:
    """Whether the population is ``u*``-balanced (storage-balanced + compensable)."""
    return population.is_storage_balanced(u_star) and is_upload_compensable(
        population, u_star
    )


def direct_stripe_budget(upload: float, c: int, mu: float) -> int:
    """``c_b = ⌊c·u_b − 4µ⁴⌋`` — stripes a poor box requests directly (≥ 0).

    The remaining ``c − 1 − c_b`` stripes are requested through the relay.
    ``c_b = 0`` when ``u_b ≤ 2µ⁴/c`` (the paper's convention, subsumed by
    clamping at zero).
    """
    c = check_positive_integer(c, "c")
    mu = check_in_range(mu, "mu", 1.0, math.inf)
    if upload < 0:
        raise ValueError(f"upload must be non-negative, got {upload}")
    return int(_direct_stripe_budgets(np.array([float(upload)]), c, mu)[0])


def _direct_stripe_budgets(uploads: np.ndarray, c: int, mu: float) -> np.ndarray:
    """:func:`direct_stripe_budget` over an array of uploads (unchecked)."""
    budgets = np.floor(c * uploads - 4.0 * mu**4 + 1e-9).astype(np.int64)
    return np.maximum(budgets, 0)


class RelayedPreloadingScheduler:
    """The relayed request strategy of Section 4.

    Timeline for a poor box ``b`` demanding a video in ``[t−1, t[``
    (relay ``a = r(b)``):

    * ``t``   — ``a`` issues the preloading request for ``b``'s preload
      stripe (a regular request, counted against the system);
    * ``t+1`` — ``a`` forwards that stripe to ``b`` over the statically
      reserved upload (not a request);
    * ``t+2`` — ``b`` directly requests ``c_b = ⌊c·u_b − 4µ⁴⌋`` of the
      remaining stripes;
    * ``t+3`` — ``a`` requests the remaining ``c − 1 − c_b`` stripes
      (postponed requests) and forwards them to ``b`` over the reserved
      upload, caching every stripe it forwards.

    Rich boxes follow the homogeneous strategy on the doubled time scale:
    preload at ``t``, postponed requests at ``t+2``.  Every request, the
    relay's included, carries the index of the demand it serves.
    """

    def __init__(
        self,
        catalog: Catalog,
        population: BoxPopulation,
        plan: CompensationPlan,
        mu: float,
    ):
        self._catalog = catalog
        self._population = population
        self._plan = plan
        self._mu = check_in_range(mu, "mu", 1.0, math.inf)
        self._entry_counter: Dict[int, int] = {}
        #: Postponed requests keyed by round, as blocks of
        #: (stripe_ids, box_ids, demand_indices).
        self._pending: Dict[int, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        #: Blocks of (relay box, stripe) pairs that must be marked as
        #: relay-cached when the corresponding forward happens, keyed by round.
        self._relay_cache_events: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}

    @property
    def catalog(self) -> Catalog:
        """The catalog requests are generated against."""
        return self._catalog

    @property
    def plan(self) -> CompensationPlan:
        """The compensation plan providing the relay mapping."""
        return self._plan

    @property
    def start_up_delay(self) -> int:
        """Worst-case start-up delay (poor box) in rounds."""
        return RELAYED_START_UP_DELAY_ROUNDS

    def swarm_entry_count(self, video_id: int) -> int:
        """Number of boxes that entered the swarm of ``video_id`` so far."""
        return self._entry_counter.get(int(video_id), 0)

    def on_demand_arrays(
        self,
        video_ids: np.ndarray,
        box_ids: np.ndarray,
        demand_indices: np.ndarray,
        time: int,
    ) -> RequestArrays:
        """Process one round's demands; return the requests to issue at ``time``.

        Same layout as
        :meth:`~repro.core.preloading.PreloadingScheduler.on_demand_arrays`:
        one preloading request per demand, made by the relay for a poor
        box.  The later requests and relay-cache events of each demand are
        queued in arrival order.
        """
        n = int(video_ids.size)
        if n == 0:
            return NO_REQUESTS
        check_video_ids(self._catalog, video_ids)
        c = self._catalog.num_stripes_per_video
        time = int(time)
        preload_idx = preload_indices(self._entry_counter, video_ids, c)
        preload_stripes = video_ids * c + preload_idx
        relays = self._plan.relay_of[box_ids]
        poor = relays >= 0
        # Of each demand's c−1 other stripes, the first ``direct`` go out at
        # t+2 from the demanding box; a poor box's relay requests the rest
        # at t+3.
        direct = np.full(n, c - 1, dtype=np.int64)
        direct[poor] = np.minimum(
            _direct_stripe_budgets(
                self._population.uploads[box_ids[poor]], c, self._mu
            ),
            c - 1,
        )
        others = other_stripes(video_ids, preload_idx, c)
        is_direct = np.arange(c - 1)[None, :] < direct[:, None]
        queue_block(
            self._pending,
            time + 2,
            (
                others[is_direct],
                np.repeat(box_ids, direct),
                np.repeat(demand_indices, direct),
            ),
        )
        via_relay = c - 1 - direct
        relayed_stripes = others[~is_direct]
        relayed_boxes = np.repeat(relays, via_relay)
        queue_block(
            self._pending,
            time + 3,
            (relayed_stripes, relayed_boxes, np.repeat(demand_indices, via_relay)),
        )
        # The relay caches the preload stripe when it forwards it (t+1),
        # and every stripe it requests at t+3.
        queue_block(
            self._relay_cache_events, time + 1, (relays[poor], preload_stripes[poor])
        )
        queue_block(
            self._relay_cache_events, time + 3, (relayed_boxes, relayed_stripes)
        )
        requesters = np.where(poor, relays, box_ids)
        return preload_stripes, requesters, demand_indices, np.ones(n, dtype=bool)

    def due_arrays(self, time: int) -> RequestArrays:
        """Pop the postponed requests queued for round ``time`` (never preloads)."""
        return pop_postponed(self._pending, time)

    def relay_cache_events_due(self, time: int) -> Tuple[np.ndarray, np.ndarray]:
        """Pop the cache events for round ``time`` as ``(relay_boxes, stripe_ids)``."""
        return pop_block(self._relay_cache_events, time, 2)

    def reset(self) -> None:
        """Clear all counters and queued requests."""
        self._entry_counter.clear()
        self._pending.clear()
        self._relay_cache_events.clear()
