"""Connection matching: the per-round b-matching and Lemma 1 feasibility.

At every round ``t`` the set of *stripe requests* not yet wired,
``Y = {(s_1, t_1, b_1), …, (s_p, t_p, b_p)}``, must be matched against the
boxes that possess the corresponding data so that each box ``b`` serves at
most ``⌊u_b·c⌋`` stripes (Section 2.2).  Wiring connections according to
such a matching serves every request at round ``t+1``, since each stripe
has rate ``1/c``.

The request multiset lives in :mod:`repro.core.requests`, the possession
relation ``B(·)`` in :mod:`repro.core.possession` and the incremental
repair in :mod:`repro.flow.repair`.  This module provides:

* :class:`ConnectionMatcher` — builds the bipartite graph ``G`` from ``Y``
  to the boxes and solves the connection matching, repairing the previous
  round's matching when the call carries its pair expiries.  The matcher
  keeps no round state: the engine's request pool holds the previous
  assignment and pair expiries, and each result hands back the new ones;
* :func:`check_feasibility_hall` — the direct (exponential) form of
  Lemma 1's condition ``∀X ⊆ Y : U_{B(X)} ≥ |X|/c`` over the matcher's
  per-box slots ``⌊u_b·c⌋``, used on small instances to validate the
  flow-based answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.possession import PossessionIndex
from repro.core.requests import RequestSet
from repro.flow.dinic import dinic_matching
from repro.flow.hopcroft_karp import HKMatchingResult, hopcroft_karp_rows

# Not called here: the end-to-end benchmark's tracer
# (``benchmarks/e2e/spans.py``) patches this name on this module, as it
# imports ``PossessionIndex`` from it.
from repro.flow.hopcroft_karp import hopcroft_karp_matching  # noqa: F401
from repro.flow.repair import _greedy_first_fit, _retire_pairs, repair_matching

__all__ = [
    "ConnectionMatching",
    "ConnectionMatcher",
    "MATCHING_SOLVERS",
    "check_feasibility_hall",
]

#: Cache-block clip for the repair greedy's delta rows: per row, only the
#: newest this-many playback-cache edges are read (plus all static/relay
#: edges).  Heuristic only — exact searches use full rows.
_GREEDY_MAX_CACHE_EDGES = 48


@dataclass(frozen=True)
class ConnectionMatching:
    """Result of wiring the requests of one round.

    Attributes
    ----------
    feasible:
        Whether every request could be assigned a server.
    assignment:
        For each request (in the order of the request set), the box serving
        it, or ``-1`` when infeasible and left unmatched.
    matched:
        Number of matched requests.
    obstruction_witness:
        When infeasible, indices (into the request set) of a subset ``X``
        violating the Lemma 1 condition ``U_{B(X)} ≥ |X|/c``.
    box_load:
        Per-box number of stripes served under the returned assignment.
    capacities:
        Effective per-box capacities the matching was solved against
        (upload slots minus any ``busy_slots``, clipped at zero) — the
        exact right-hand side of the solved instance, reused by the
        differential solver oracle.
    degraded:
        Always ``False``: every round is solved on the one matching path.
        The field stays only because the end-to-end benchmark's tracer
        (``benchmarks/e2e/spans.py``) reads ``result.degraded`` on every
        traced call; it goes together with that read.
    repair_fallback:
        ``True`` when the incremental repair path exceeded its search
        budget and the round was re-solved by the full Hopcroft–Karp
        kernel.  A provenance flag only: an over-budget repair stops
        before its exact searches, and the kernel returns its own maximum
        matching from the greedy-filled seed, which need not be the one a
        completed repair would have made.  Either way the result is a
        maximum matching of the same instance.
    pair_expiry:
        Per request, the last round its matched pair stays valid
        (meaningless where unmatched), for the next round's repair;
        ``None`` when the round kept none (no ``warm_start``, or the
        Dinic solver).
    """

    feasible: bool
    assignment: np.ndarray
    matched: int
    obstruction_witness: Optional[Tuple[int, ...]]
    box_load: np.ndarray
    capacities: np.ndarray
    degraded: bool = False
    repair_fallback: bool = False
    pair_expiry: Optional[np.ndarray] = None


#: Matching kernels a :class:`ConnectionMatcher` (and so a scenario, the
#: CLI and the component registry) accepts by name: the Hopcroft–Karp
#: production path and the in-house Dinic max-flow reduction, its cold twin.
MATCHING_SOLVERS: Tuple[str, ...] = ("hopcroft_karp", "dinic")


class ConnectionMatcher:
    """Builds the bipartite graph ``G`` and solves the connection matching.

    Parameters
    ----------
    upload_slots:
        Per-box number of stripes uploadable per round, ``⌊u_b·c⌋``,
        possibly already reduced by statically reserved relay capacity
        (Section 4).
    solver:
        ``"hopcroft_karp"`` (default) seeds every round with the previous
        round's pairs that still hold, repairs the seed when the call
        carries its pair expiries, and otherwise, or when the repair falls
        short, solves with the full kernel on the round's rows
        (:meth:`PossessionIndex.kernel_rows`) from that seed;
        ``"dinic"`` solves every round cold with the in-house Dinic max
        flow (:func:`repro.flow.dinic.dinic_matching`) on the CSR
        adjacency emitted by :meth:`PossessionIndex.adjacency_for`, and
        serves as the cold twin in cross-validation tests and benchmarks.
    """

    def __init__(self, upload_slots: Sequence[int], solver: str = "hopcroft_karp"):
        slots = np.asarray(upload_slots, dtype=np.int64)
        if slots.ndim != 1 or slots.size == 0:
            raise ValueError("upload_slots must be a non-empty 1-D sequence")
        if np.any(slots < 0):
            raise ValueError("upload_slots must be non-negative")
        if solver not in MATCHING_SOLVERS:
            known = ", ".join(MATCHING_SOLVERS)
            raise ValueError(f"solver must be one of {known}, got {solver!r}")
        self._slots = slots
        self._solver = solver
        self._repair_search_budget: Optional[int] = None
        self._repair_rounds = 0

    @property
    def upload_slots(self) -> np.ndarray:
        """Per-box stripe-upload capacity used for the matching."""
        return self._slots

    @property
    def solver(self) -> str:
        """Name of the matching kernel in use."""
        return self._solver

    @property
    def repair_search_budget(self) -> Optional[int]:
        """Search cap of the incremental repair (``None`` = size heuristic)."""
        return self._repair_search_budget

    def set_repair_search_budget(self, budget: Optional[int]) -> None:
        """Cap the incremental repair's augmenting-path searches.

        When a round's repair would exceed the cap it re-runs the full
        Hopcroft–Karp kernel instead (counted via
        :attr:`ConnectionMatching.repair_fallback`).  ``None`` restores
        the default ``max(256, 2·⌊√n⌋, ⌊n/64⌋)`` heuristic over the
        round's ``n`` requests.
        """
        if budget is not None:
            budget = int(budget)
            if budget < 0:
                raise ValueError("repair_search_budget must be non-negative")
        self._repair_search_budget = budget

    @property
    def repair_rounds(self) -> int:
        """Rounds solved entirely by the incremental repair (no full kernel)."""
        return self._repair_rounds

    def update_upload_slots(self, upload_slots: Sequence[int]) -> None:
        """Replace the per-box capacities (live capacity reconfiguration).

        The new vector may be longer than the old one (boxes joined) but
        never shorter; it takes effect from the next :meth:`match` call.
        """
        slots = np.asarray(upload_slots, dtype=np.int64)
        if slots.ndim != 1 or slots.size < self._slots.size:
            raise ValueError(
                "upload_slots must be a 1-D sequence at least as long as the "
                f"current population ({self._slots.size})"
            )
        if np.any(slots < 0):
            raise ValueError("upload_slots must be non-negative")
        self._slots = slots

    def match(
        self,
        requests: RequestSet,
        possession: PossessionIndex,
        current_time: int,
        busy_slots: Optional[Sequence[int]] = None,
        warm_start: Optional[Sequence[int]] = None,
        pair_expiry: Optional[Sequence[int]] = None,
    ) -> ConnectionMatching:
        """Wire the requests of round ``current_time``.

        ``busy_slots`` optionally gives, per box, the number of upload
        slots already consumed by connections carried over from previous
        rounds (ongoing stripe transfers); they are subtracted from the
        capacity available to new requests.

        ``warm_start`` optionally seeds the matching with a previous
        round's request→box assignment (``-1`` = unmatched).  Ignored by
        the Dinic solver.  ``pair_expiry`` gives, per request, the last
        round its ``warm_start`` pair stays valid, as the previous round's
        result returned it in :attr:`ConnectionMatching.pair_expiry`
        (``-1`` for the requests activated since); it needs a
        ``warm_start`` of the same length, else ``ValueError``.  A call
        with a ``warm_start`` but no ``pair_expiry`` (round 0, after a
        reset) looks each seed pair's expiry up instead; a pair that is
        not an edge of the round reads ``-1``.

        Every Hopcroft–Karp round runs one route.  The seed is the
        ``warm_start`` (all ``-1`` without one).  :func:`_retire_pairs`
        drops the pairs that no longer hold — expired or never an edge,
        then past their box's capacity in request order — so the seed
        holds only edges of this round within capacity, and the result is
        always a maximum matching of the *current* instance.  A call with
        ``pair_expiry`` repairs the seed's deficit from the deficit rows,
        read on demand; a repaired-to-perfect matching is maximum by
        construction.  Otherwise, or when the repair fell short, the full
        kernel solves on the round's rows
        (:meth:`PossessionIndex.kernel_rows`, read as the kernel touches
        them) through :func:`~repro.flow.hopcroft_karp.hopcroft_karp_rows`
        from that seed, which it adopts without an adjacency test.  No
        route gathers the round's CSR.

        The result carries the pair expiries of its matching whenever the
        call has a ``warm_start``.  A pair the kernel returns equal to its
        seed pair keeps the seed's expiry, which may be an earlier edge's
        than the box's latest (a cache edge's although the box also relays
        the stripe, or caches it again later), so the pair may retire
        early, which is safe.  Only the pairs the kernel made are looked
        up, through :meth:`PossessionIndex.adjacency_delta_for` on their
        rows, and take their box's latest edge expiry.
        """
        n = self._slots.size
        capacities = self._slots.copy()
        if busy_slots is not None:
            busy = np.asarray(busy_slots, dtype=np.int64)
            if busy.shape != capacities.shape:
                raise ValueError("busy_slots must have one entry per box")
            if np.any(busy < 0):
                raise ValueError("busy_slots must be non-negative")
            capacities = np.maximum(capacities - busy, 0)

        num_requests = len(requests)
        if not num_requests:
            empty = np.empty(0, dtype=np.int64)
            return ConnectionMatching(
                feasible=True,
                assignment=empty,
                matched=0,
                obstruction_witness=None,
                box_load=np.zeros(n, dtype=np.int64),
                capacities=capacities,
                pair_expiry=empty if self._solver == "hopcroft_karp" else None,
            )

        repair_fallback = False
        expiry: Optional[np.ndarray] = None
        # A repaired round's load, as the repair tracked it; else counted
        # from the assignment below.
        box_load: Optional[np.ndarray] = None
        if self._solver == "dinic":
            indptr, indices = possession.adjacency_for(requests, current_time)
            result = dinic_matching(num_requests, n, indptr, indices, capacities)
        else:
            if warm_start is not None and len(warm_start) != num_requests:
                raise ValueError("warm_start must have one entry per request")
            if pair_expiry is not None and (
                warm_start is None or len(pair_expiry) != num_requests
            ):
                raise ValueError("pair_expiry needs a warm_start of the same length")
            if warm_start is None:
                seed = np.full(num_requests, -1, dtype=np.int64)
            else:
                seed = np.array(warm_start, dtype=np.int64)
            if pair_expiry is None:
                seed_expiry = self._pair_expiry(
                    seed, np.flatnonzero(seed >= 0), requests, possession, current_time
                )
            else:
                seed_expiry = np.array(pair_expiry, dtype=np.int64)
            # Retire the pairs whose edge aged out (or never was one) or
            # whose box lost capacity: what is left are edges of this
            # round within capacity, the seed of the repair and the kernel.
            load = _retire_pairs(seed, seed_expiry, capacities, current_time)
            if pair_expiry is not None:
                box_load, repair_fallback = self._try_repair(
                    requests, possession, current_time, capacities,
                    seed, seed_expiry, load,
                )
            if box_load is not None:
                expiry = seed_expiry
                result = HKMatchingResult(
                    feasible=True,
                    assignment=seed,
                    matched=num_requests,
                    deficient_left=(),
                    unsatisfied_witness=None,
                )
                self._repair_rounds += 1
            else:
                result = hopcroft_karp_rows(
                    num_requests,
                    n,
                    possession.kernel_rows(requests, current_time),
                    capacities,
                    seed,
                )
                if warm_start is not None:
                    # A pair equal to its seed pair keeps the seed's
                    # expiry; only the pairs the kernel made are looked up.
                    assignment = result.assignment
                    carried = (assignment >= 0) & (assignment == seed)
                    made = np.flatnonzero((assignment >= 0) & ~carried)
                    expiry = self._pair_expiry(
                        assignment, made, requests, possession, current_time
                    )
                    expiry[carried] = seed_expiry[carried]

        assignment = result.assignment
        if box_load is None:
            box_load = np.bincount(assignment[assignment >= 0], minlength=n)
        return ConnectionMatching(
            feasible=result.feasible,
            assignment=assignment,
            matched=result.matched,
            obstruction_witness=result.unsatisfied_witness,
            box_load=box_load,
            capacities=capacities,
            repair_fallback=repair_fallback,
            pair_expiry=expiry,
        )

    # ------------------------------------------------------------------ #
    # Incremental round path
    # ------------------------------------------------------------------ #
    @staticmethod
    def _pair_expiry(
        assignment: np.ndarray,
        rows: np.ndarray,
        requests: RequestSet,
        possession: PossessionIndex,
        current_time: int,
    ) -> np.ndarray:
        """Per-request pair expiries, looked up on ``rows`` only (``-1`` elsewhere).

        Row ``i`` of ``rows`` gets the expiry of the pair ``(i,
        assignment[i])``: only those rows are gathered with expiries,
        through :meth:`PossessionIndex.adjacency_delta_for` (no requester
        entries).  Duplicate ``(request, box)`` edges (a static holder that
        also caches) take the *latest* expiry — exactly the round after
        which the pair stops being an edge; a pair that is not an edge of
        the round reads ``-1``.
        """
        pair_expiry = np.full(assignment.size, -1, dtype=np.int64)
        if not rows.size:
            return pair_expiry
        indptr, indices, edge_expiry = possession.adjacency_delta_for(
            RequestSet(
                requests.stripe_id_array[rows],
                requests.request_time_array[rows],
                requests.box_id_array[rows],
            ),
            current_time,
        )
        rows_of = np.repeat(rows, np.diff(indptr))
        hit = indices == assignment[rows_of]
        if hit.any():
            np.maximum.at(pair_expiry, rows_of[hit], edge_expiry[hit])
        return pair_expiry

    def _try_repair(
        self,
        requests: RequestSet,
        possession: PossessionIndex,
        current_time: int,
        capacities: np.ndarray,
        assignment: np.ndarray,
        pair_expiry: np.ndarray,
        load: np.ndarray,
    ) -> Tuple[Optional[np.ndarray], bool]:
        """Repair the retired seed ``assignment`` of one round in place.

        ``assignment`` holds only edges of this round within capacity,
        ``pair_expiry`` their expiries and ``load`` the per-box load of
        those pairs; each pair the repair makes records its edge's expiry.
        The greedy reads the deficit rows through
        :meth:`PossessionIndex.delta_rows`, and the exact searches read
        rows through :meth:`PossessionIndex.search_rows`, which builds a
        row from the index when a search reaches it and converts it to a
        list only when a search walks it.  Returns ``(load,
        over_budget)``: ``load`` is the per-box load of the repaired
        matching when the deficit was repaired to a perfect — hence
        maximum — matching, tracked through the greedy and the searches,
        and ``None`` otherwise: the round must then run the full kernel,
        seeded with this partial assignment (some request has no
        augmenting path, i.e. the round is infeasible and needs the
        kernel's Hall witness, or ``over_budget``: the repair search
        budget ran out, which the caller counts as a *repair fallback*).
        """
        num_requests = len(requests)
        n = capacities.size
        deficit = np.flatnonzero(assignment < 0)
        if not deficit.size:
            return load, False

        # Delta rows only, read on demand by a multi-pass greedy against
        # the residual capacities.  The cache blocks are clipped (greedy is
        # a heuristic filler — leftovers go to the exact search): popular-
        # stripe rows would otherwise carry thousands of cache edges.
        reader = possession.delta_rows(
            requests, current_time, deficit, _GREEDY_MAX_CACHE_EDGES
        )
        residual = capacities - load
        taken, taken_boxes, taken_expiry, left = _greedy_first_fit(reader, residual)
        assignment[deficit[taken]] = taken_boxes
        pair_expiry[deficit[taken]] = taken_expiry

        budget = self._repair_search_budget
        if budget is None:
            budget = max(256, 2 * math.isqrt(num_requests), num_requests // 64)
        load = capacities - residual
        remaining = deficit[left]
        if not remaining.size:
            return load, False
        if remaining.size > budget:
            return None, True

        # Exhaustive augmentation for the stragglers, over rows built from
        # the index as the searches reach them.  Each flipped pair records
        # its edge expiry.
        complete = repair_matching(
            num_requests,
            n,
            possession.search_rows(requests, current_time),
            capacities,
            assignment,
            load,
            pair_expiry,
            remaining.tolist(),
            search_budget=budget,
        )
        # Incomplete: some request has no augmenting path (the round is
        # infeasible and the full kernel must run for the Hall witness) or
        # the searches' displacement budget ran dry.  Not a budget event:
        # the partial matching still seeds the kernel.
        return (load if complete else None), False


def check_feasibility_hall(
    requests: RequestSet,
    possession: PossessionIndex,
    upload_slots: Sequence[int],
    current_time: int,
    max_subset_size: Optional[int] = None,
) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Direct check of Lemma 1: ``∀ X ⊆ Y, U_{B(X)} ≥ |X|/c``.

    Takes the per-box slots ``⌊u_b·c⌋`` the matcher takes, so the
    condition reads ``Σ_{b ∈ B(X)} ⌊u_b·c⌋ ≥ |X|`` in integers.
    Exhaustive over subsets of the request set (exponential); only usable
    on small instances, where it serves as an oracle for the flow-based
    matcher.  Returns ``(feasible, witness)`` where ``witness`` is a
    violating subset of request indices (or ``None``).
    """
    slots = np.asarray(upload_slots, dtype=np.int64)
    neighbourhoods: List[Set[int]] = []
    for stripe, time, box in zip(
        requests.stripe_id_array.tolist(),
        requests.request_time_array.tolist(),
        requests.box_id_array.tolist(),
    ):
        servers = possession.servers_for(stripe, time, current_time)
        servers.discard(box)
        neighbourhoods.append(servers)
    num = len(requests)
    limit = num if max_subset_size is None else min(max_subset_size, num)
    for size in range(1, limit + 1):
        for subset in combinations(range(num), size):
            neighbourhood: Set[int] = set()
            for idx in subset:
                neighbourhood |= neighbourhoods[idx]
            if int(slots[list(neighbourhood)].sum()) < size:
                return False, subset
    return True, None
