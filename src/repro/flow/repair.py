"""Incremental repair of the previous round's b-matching.

The matcher (:class:`repro.core.matching.ConnectionMatcher`) keeps the
previous round's valid pairs and repairs the deficit instead of
re-solving: :func:`_retire_pairs` drops the pairs that no longer hold
(for the repair and for the full kernel alike),
:func:`_greedy_first_fit` fills most of the deficit and
:func:`repair_matching` finishes it with exact searches.  Rows come from
the caller through reader interfaces, so possession stays out of here:
the greedy reads cursors over the deficit rows, and the searches read
the round's row source, the one the full kernel
(:func:`repro.flow.hopcroft_karp.hopcroft_karp_rows`) reads after them
when they fall short.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.flow.hopcroft_karp import _rank_among_equal, _right_matches

__all__ = ["repair_matching"]

_EMPTY_INT64 = np.empty(0, dtype=np.int64)

#: The exact searches of one repair call may discover this many lefts per
#: deficit row, and at least the floor, before the call gives up.
_DISPLACEMENT_BUDGET_PER_ROW = 16
_DISPLACEMENT_BUDGET_FLOOR = 100_000


def _retire_pairs(
    assignment: np.ndarray,
    pair_expiry: np.ndarray,
    right_capacities: np.ndarray,
    current_time: int,
) -> np.ndarray:
    """Unmatch the carried-over pairs that no longer hold; returns the load.

    ``assignment`` (``-1`` = unmatched) loses, in place, every pair whose
    edge expired before ``current_time`` (``pair_expiry``; ``-1`` for a
    pair that is not an edge), then, on each right node whose capacity
    dropped below its load (churn outages, fault brownouts and crashes,
    busy slots), every pair past its first ``right_capacities[j]`` in
    left order.  What remains is the seed of the repair and the kernel.
    Returns the per-right-node load of the pairs that remain.
    """
    assignment[pair_expiry < current_time] = -1
    active = assignment >= 0
    load = np.bincount(assignment[active], minlength=right_capacities.size)
    over = load > right_capacities
    if over.any():
        # Mask lookup instead of np.isin: assignment == -1 reads the
        # last slot of ``over``, which the active filter discards.
        affected = np.flatnonzero(active & over[assignment])
        ab = assignment[affected]
        assignment[affected[_rank_among_equal(ab) >= right_capacities[ab]]] = -1
        load = np.minimum(load, right_capacities)  # each kept exactly its cap
    return load


def _greedy_first_fit(
    reader, residual: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Multi-pass first-fit of the delta rows against ``residual`` (in place).

    Each pass offers every unresolved row's head; per box, the first
    ``residual`` rows in row order take it.  A rejected row moves on past
    any further saturated box: residual never grows within a round, so
    those edges can never be taken.  Entries naming the row's requester
    are skipped as they are read.  Returns the accepted rows with their
    boxes and edge expiries, and the sorted rows whose edges ran out.

    ``reader`` holds one cursor per delta row
    (:meth:`repro.core.possession.PossessionIndex.delta_rows` builds it)
    and is used through five calls: ``requesters``, each row's requesting
    box; ``live(rows)``, the rows whose cursor still points at an edge;
    ``heads(rows)``, the box under each of those cursors; ``step(rows)``,
    which moves the cursors one edge on and returns the live rows with
    their heads; and ``expiries(rows)``, the expiry of the edges under
    the cursors.
    """
    requesters = reader.requesters

    def advance(check: np.ndarray, head: np.ndarray, past_saturated: bool) -> None:
        while check.size:  # one read checks the requester and the residual
            skip = head == requesters[check]
            if past_saturated:
                skip |= residual[head] <= 0
            check, head = reader.step(check[skip])

    unresolved = reader.live(np.arange(requesters.size, dtype=np.int64))
    advance(unresolved, reader.heads(unresolved), False)
    accepted_rows: List[np.ndarray] = [_EMPTY_INT64]
    accepted_boxes: List[np.ndarray] = [_EMPTY_INT64]
    while True:
        unresolved = reader.live(unresolved)
        if not unresolved.size:
            break
        cand = reader.heads(unresolved)
        ok = _rank_among_equal(cand) < residual[cand]
        if ok.any():
            accepted_rows.append(unresolved[ok])
            accepted_boxes.append(cand[ok])
            # Costs one step per accepted edge; a bincount over every box
            # per pass would dwarf the pass.
            np.subtract.at(residual, cand[ok], 1)
        unresolved = unresolved[~ok]
        advance(*reader.step(unresolved), True)
    rows, boxes = np.concatenate(accepted_rows), np.concatenate(accepted_boxes)
    left = np.ones(requesters.size, dtype=bool)
    left[rows] = False
    return rows, boxes, reader.expiries(rows), np.flatnonzero(left)


class _MatchedLefts:
    """Each box's matched lefts during one :func:`repair_matching` call.

    The per-box index (:func:`_right_matches`) is built when a search
    first reads a box's list.  That read is a breadth-first expansion: a
    path flip only follows boxes already expanded.  Before it, a search
    can only succeed at its root, and a root success only appends one
    pair, so :meth:`append` records the pairs in order instead.  The
    index then lists, per box, its start-of-repair lefts in ascending
    order followed by its recorded lefts in order: exactly the lists an
    index built at entry and appended to would hold.
    """

    __slots__ = ("_num_right", "_lefts", "_rights", "_added", "_rows")

    def __init__(self, num_right: int, lefts: np.ndarray, rights: np.ndarray):
        self._num_right, self._lefts, self._rights = num_right, lefts, rights
        self._added: List[Tuple[int, int]] = []
        self._rows = None

    def append(self, j: int, u: int) -> None:
        """Match left ``u`` to box ``j``, last in ``j``'s list."""
        if self._rows is None:
            self._added.append((u, j))
        else:
            self._rows[j].append(u)

    def __getitem__(self, j: int) -> List[int]:
        if self._rows is None:
            added = np.array(self._added, dtype=np.int64).reshape(-1, 2)
            self._rows = _right_matches(
                self._num_right,
                np.concatenate((self._lefts, added[:, 0])),
                np.concatenate((self._rights, added[:, 1])),
            )
        return self._rows[j]


def _kuhn_augment_lazy(
    i0: int, rows, cap, load, has_free, match_left, right_matches,
    pair_expiry, budget: List[int], dead: Set[int],
) -> Optional[bool]:
    """One shortest-augmenting-path search over rows read on demand.

    Plays the role of :func:`_kuhn_augment` in the incremental repair,
    but there is no CSR of the round: ``rows`` is the round's row source
    (:meth:`repro.core.possession.PossessionIndex.round_rows` builds it,
    and the kernel reads it after the repair) read through three
    members: ``rows.first_fit(i, spare, room)``, left ``i``'s first box
    with a free slot (``-1`` if none); ``rows[i]``, left ``i``'s row as a
    list; and ``rows.expiry(i, j)``, the expiry of row ``i``'s first edge
    to box ``j``.  A repair so touches only the adjacency of the lefts an
    actual alternating path visits.  On success the flipped pairs'
    expiries are written into ``pair_expiry`` so the caller's retirement
    bookkeeping stays exact; a parent link keeps only its box, and only
    the flipped pairs' expiries are read.

    The search is breadth-first: each discovered left first sweeps its
    whole row for a box with spare capacity (``first_fit`` against the
    ``has_free`` mask, which the augment step keeps in sync with
    ``load``: a long row is scanned on its arrays, a short one converted
    to a list), and only the fully saturated boxes contribute displaced
    lefts to the frontier.  Under Zipf load the saturated boxes cluster,
    so a depth-first search would plunge through thousands of full boxes
    while a length-3 path (row → full box → displaced left → free box)
    sits one level away; BFS finds it after a handful of row scans.  The
    free-slot test runs at discovery, not at dequeue: the last BFS level
    is by far the widest (popular rows reach thousands of displaced
    lefts), and testing on generation means it is never walked.  A long
    row becomes a list only when its left is popped.

    ``right_matches[j]`` is box ``j``'s list of matched lefts
    (:class:`_MatchedLefts`).  ``dead`` holds the lefts whose row had no
    free box: within one repair call ``has_free`` only goes from true to
    false (a success fills one slot, a path flip moves no load), so such
    a row never gets one and is not tested again.  A discovered left
    already in ``dead`` is queued without reading its row, which is read
    only if the left is popped: most discovered lefts never are.

    ``budget[0]`` is decremented per discovered left; hitting zero
    aborts with ``None`` (caller falls back to the full kernel) so one
    pathological round cannot cost more than a cold solve.
    """
    # Per discovered left: (predecessor left, box the predecessor reaches
    # it through); ``None`` at the root.
    parent: dict = {i0: None}

    def try_free(u):
        # Sweep ``u``'s row for a box with spare capacity; on a hit,
        # augment: ``u`` takes the free slot, every predecessor takes
        # over the slot its displaced left vacates.  ``u`` is not in
        # ``dead``: a root is unmatched, and only matched lefts are
        # discovered.
        j = rows.first_fit(u, has_free, has_free)
        if j < 0:
            dead.add(u)
            return False
        right_matches.append(j, u)
        load[j] += 1
        if load[j] >= cap[j]:
            has_free[j] = False
        match_left[u] = j
        pair_expiry[u] = rows.expiry(u, j)
        cur = u
        link = parent[cur]
        while link is not None:
            p, b = link
            siblings = right_matches[b]
            siblings[siblings.index(cur)] = p
            match_left[p] = b
            pair_expiry[p] = rows.expiry(p, b)
            cur = p
            link = parent[cur]
        return True

    if try_free(i0):
        return True
    visited = set()
    frontier = deque((i0,))
    while frontier:
        u = frontier.popleft()
        for j in rows[u]:
            if j in visited:
                continue
            visited.add(j)
            for k in right_matches[j]:
                if k in parent:
                    continue
                if budget[0] <= 0:
                    return None
                budget[0] -= 1
                parent[k] = (u, j)
                if k not in dead and try_free(k):
                    return True
                frontier.append(k)
    return False


def repair_matching(
    num_left: int,
    num_right: int,
    rows,
    right_capacities: np.ndarray,
    assignment: np.ndarray,
    load: np.ndarray,
    pair_expiry: np.ndarray,
    deficit_rows: Sequence[int],
) -> bool:
    """Repair a partial matching by augmenting from a small deficit set.

    The resumable entry point of the incremental round path: ``assignment``
    (and the matching ``load``/``pair_expiry`` arrays) hold the survivors
    of the previous round after delta retirement, and ``deficit_rows`` the
    lefts still unmatched.  Each deficit row gets one exhaustive Kuhn
    search over the row source ``rows`` (read on demand; see
    :func:`_kuhn_augment_lazy`); all three arrays are mutated in place.

    Returns ``True`` when every deficit row was matched — the matching is
    then perfect, hence maximum.  Returns ``False`` (without finishing)
    when the shared displacement budget ran dry or some row has no
    augmenting path; the caller falls back to the full kernel, on the
    same row source, which also produces the Hall witness on genuinely
    infeasible rounds.
    """
    matched_i = np.flatnonzero(assignment >= 0)
    right_matches = _MatchedLefts(num_right, matched_i, assignment[matched_i])
    has_free = load < right_capacities
    # Shared across the round's searches: bounds the total displacement
    # work at roughly the cost of one cold solve, whatever the instance.
    budget = [
        max(_DISPLACEMENT_BUDGET_FLOOR, _DISPLACEMENT_BUDGET_PER_ROW * len(deficit_rows))
    ]
    dead: Set[int] = set()
    for i in deficit_rows:
        if not _kuhn_augment_lazy(
            int(i), rows, right_capacities, load, has_free, assignment,
            right_matches, pair_expiry, budget, dead,
        ):
            return False
    return True
