"""Hopcroft–Karp unit-demand b-matching on CSR adjacency.

The per-round connection matching of Section 2.2 is, in the common case,
a *unit-demand* bipartite b-matching: every stripe request (left node)
needs exactly one server, every box (right node) can serve at most
``⌊u_b·c⌋`` requests.  Both in-house kernels accept it as one CSR
(``indptr``/``indices``) adjacency, checked by one validation, and return
one result type: the Dinic max flow (:mod:`repro.flow.dinic`) is the
cold twin, and this module's capacitated Hopcroft–Karp is what every
round runs, on rows read on demand (below):

* a greedy first-fit pass matches the easy requests in ``O(E)``: the
  lefts that find room at their row's head before any head fills up
  take it in one vectorized step;
* a small deficit is cleared one free left at a time (Kuhn), a larger
  one by alternating BFS/DFS phases that augment along shortest paths
  only (``O(E·√V)`` phases bound, as for classical Hopcroft–Karp);
* a *seed* — a previous round's pairs that still hold — starts the
  matching, so only the changed part of the instance is re-solved;
* when the instance is infeasible, the final BFS frontier yields the
  generalized-Hall witness (Lemma 1): the lefts that alternating paths
  reach from the unmatched ones.

The kernel reads the instance on demand, through three members of a
*row source*: ``heads(lefts)``, each row's first entry (``-1`` for an
empty row), which the greedy pass reads in one vectorized step;
``first_fit(i, spare, room)``, left ``i``'s first right node with a free
slot, which the sequential greedy asks for with its list of free slots
``spare`` and a boolean mask ``room`` it keeps in step with that list,
so a source may scan a long row on its arrays and leave it unconverted
(the matcher's row source does); and ``rows[i]``, left ``i``'s row as a
Python list, converted on first touch and cached, which the searches
read.  A CSR's row source (:class:`_LazyRows`) converts every row it is
asked about, and a right node's list of matched lefts is converted the
same way.  An infeasible round whose Hall witness is a few dozen lefts
therefore pays Python work for the rows its searches touch, not for the
whole instance, and on the matcher's row source NumPy work too: it lays
out only the rows ``heads`` asks about and builds each other row when it
is first touched.  The matcher's row source has a second reader: in the
same round, before the kernel, the incremental repair's exact searches
(:func:`repro.flow.repair.repair_matching`) read it through
``first_fit`` and ``rows[i]``, and through ``expiry(i, j)`` for the
pairs they flip, so the kernel reuses the rows they built.
The kernel has two entry points:

* :func:`hopcroft_karp_matching` takes a CSR, checks it and solves cold
  on the CSR's rows: the differential oracle, the Dinic cross-checks and
  the kernel benchmark call it;
* :func:`hopcroft_karp_rows` takes any row source and a seed the caller
  built from that source's rows, and checks only the seed's ``O(V)``
  range and capacities: the connection matcher solves every kernel round
  there, on :meth:`repro.core.possession.PossessionIndex.round_rows`,
  which gathers no CSR.

The kernel is exact and deterministic: for a fixed instance it always
returns the same assignment (a seed may change *which* maximum matching
is returned, never its cardinality or feasibility).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.util.soa import stable_argsort

__all__ = [
    "HKMatchingResult",
    "csr_from_edges",
    "hopcroft_karp_matching",
    "hopcroft_karp_rows",
]

_INF = float("inf")


@dataclass(frozen=True)
class HKMatchingResult:
    """Result of a unit-demand b-matching computation, by either kernel.

    Attributes
    ----------
    feasible:
        Whether every left node was matched.
    assignment:
        ``assignment[i]`` is the right node matched to left node ``i`` or
        ``-1`` when ``i`` was left unmatched.
    matched:
        Number of matched left nodes (the maximum matching cardinality).
    deficient_left:
        Left nodes that remained unmatched (empty when feasible).
    unsatisfied_witness:
        When infeasible, the left nodes reachable from the unmatched ones
        through alternating paths; their joint neighbourhood violates the
        generalized Hall condition.  ``None`` when feasible.
    """

    feasible: bool
    assignment: np.ndarray
    matched: int
    deficient_left: Tuple[int, ...]
    unsatisfied_witness: Optional[Tuple[int, ...]]


def csr_from_edges(
    num_left: int, num_right: int, edges: Sequence[Tuple[int, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Build a left→right CSR adjacency (sorted rows) from an edge list.

    ``edges`` holds ``(left, right)`` pairs; anything else, other than an
    empty list, raises ``ValueError``.  Returns ``(indptr, indices)`` with
    ``indices[indptr[i]:indptr[i+1]]`` the right neighbours of left node
    ``i`` in ascending order (duplicate edges are preserved; they are
    harmless to the kernels).
    """
    arr = np.asarray(list(edges), dtype=np.int64)
    if arr.shape == (0,):
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be (left, right) pairs, got shape {arr.shape}")
    left, right = arr[:, 0], arr[:, 1]
    if left.size and (left.min() < 0 or left.max() >= num_left):
        raise ValueError("edge references a left node out of range")
    if right.size and (right.min() < 0 or right.max() >= num_right):
        raise ValueError("edge references a right node out of range")
    order = np.lexsort((right, left))
    counts = np.bincount(left, minlength=num_left)
    indptr = np.zeros(num_left + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, right[order]


def _check_csr(
    num_left: int,
    num_right: int,
    indptr: Sequence[int],
    indices: Sequence[int],
    right_capacities: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a CSR instance; return its int64 ``indptr``, ``indices``, capacities.

    Both kernels read their input through this check: a malformed CSR
    would otherwise fail far from the cause, or (a negative right id
    indexing from the end) return a wrong matching.
    """
    indptr_arr = np.asarray(indptr, dtype=np.int64)
    if indptr_arr.shape != (num_left + 1,):
        raise ValueError("indptr must have num_left + 1 entries")
    indices_arr = np.asarray(indices, dtype=np.int64)
    if indptr_arr[0] != 0:
        raise ValueError("indptr must start at 0")
    if indptr_arr[-1] != indices_arr.size:
        raise ValueError("indptr must end at len(indices)")
    if num_left and int(np.diff(indptr_arr).min()) < 0:
        raise ValueError("indptr must be non-decreasing")
    # One pass for both bounds: viewed as unsigned, a negative id exceeds
    # every valid one.
    if indices_arr.size and int(indices_arr.view(np.uint64).max()) >= num_right:
        raise ValueError("indices must be right-node ids in [0, num_right)")
    return indptr_arr, indices_arr, _check_capacities(num_right, right_capacities)


def _check_capacities(num_right: int, right_capacities: Sequence[int]) -> np.ndarray:
    """Validate the right capacities; return them as int64."""
    cap_arr = np.asarray(right_capacities, dtype=np.int64)
    if cap_arr.shape != (num_right,):
        raise ValueError("right_capacities must have one entry per right node")
    if cap_arr.size and int(cap_arr.min()) < 0:
        raise ValueError("right_capacities must be non-negative")
    return cap_arr


def _check_seed(num_left: int, num_right: int, seed: Sequence[int]) -> np.ndarray:
    """A seed as int64; ``ValueError`` on an entry outside ``[-1, num_right)``."""
    warm = np.asarray(seed, dtype=np.int64)
    if warm.shape != (num_left,):
        raise ValueError("seed must have one entry per left node")
    if num_left and (int(warm.min()) < -1 or int(warm.max()) >= num_right):
        raise ValueError("seed entries must be -1 or right-node ids in [0, num_right)")
    return warm


def _rank_among_equal(seq_b: np.ndarray) -> np.ndarray:
    """``rank[k]``: how many entries before ``k`` equal ``seq_b[k]``.

    First-fit of a sequence of right nodes in one vectorized step: entry
    ``k`` finds room at ``seq_b[k]`` exactly when its rank is below that
    node's spare capacity, provided every earlier entry found room too.
    """
    order = stable_argsort(seq_b)
    sorted_b = seq_b[order]
    new_group = np.empty(sorted_b.size, dtype=bool)
    new_group[:1] = True
    np.not_equal(sorted_b[1:], sorted_b[:-1], out=new_group[1:])
    group_start = np.flatnonzero(new_group)[np.cumsum(new_group) - 1]
    rank = np.empty(sorted_b.size, dtype=np.int64)
    rank[order] = np.arange(sorted_b.size, dtype=np.int64) - group_start
    return rank


class _LazyRows(dict):
    """The rows of a CSR as Python lists, each converted on first touch.

    ``rows[i]`` is ``values[indptr[i]:indptr[i + 1]].tolist()``, cached, so
    a search pays Python work only for the rows it actually visits.  A
    cached row is a plain dict hit; only a first touch runs Python code.
    The cached lists may be mutated in place (the per-right matched-left
    lists are).
    """

    __slots__ = ("_indptr", "_values")

    def __init__(self, indptr: np.ndarray, values: np.ndarray):
        super().__init__()
        self._indptr = indptr
        self._values = values

    def __missing__(self, i) -> List[int]:
        row = self[i] = self._values[self._indptr[i]: self._indptr[i + 1]].tolist()
        return row

    def first_fit(self, i, spare, room: np.ndarray) -> int:
        """Row ``i``'s first entry ``j`` with ``spare[j]``, ``-1`` if none.

        The row is converted on first touch and scanned as a list;
        ``room`` goes unread.
        """
        for j in self[i]:
            if spare[j]:
                return j
        return -1

    def heads(self, lefts: np.ndarray) -> np.ndarray:
        """Each row's first entry, ``-1`` for an empty row."""
        starts = self._indptr[lefts]
        nonempty = self._indptr[lefts + 1] > starts
        heads = np.full(lefts.size, -1, dtype=np.int64)
        heads[nonempty] = self._values[starts[nonempty]]
        return heads


def _right_matches(num_right: int, lefts: np.ndarray, rights: np.ndarray) -> _LazyRows:
    """Per-right matched-left lists of the pairs ``(lefts[k], rights[k])``.

    A stable sort by right node keeps, per node, the order the pairs come
    in: the kernel passes them in adoption order (warm pairs, then greedy
    first-fits), the repair in left order.
    """
    indptr = np.zeros(num_right + 1, dtype=np.int64)
    np.cumsum(np.bincount(rights, minlength=num_right), out=indptr[1:])
    return _LazyRows(indptr, lefts[stable_argsort(rights)])


def _kuhn_augment(
    i0: int, rows, spare, match_left, right_matches, visited: Set[int]
) -> bool:
    """Single-source augmentation without layering (small deficits).

    Iterative DFS over alternating paths; every full right node is
    expanded at most once, so one call costs O(V + E) in the worst case,
    but it reads only the rows it visits: ``rows[i]`` is left ``i``'s list
    of right neighbours and ``right_matches[j]`` the mutable list of lefts
    matched to ``j`` (both :class:`_LazyRows`).  A left for which it fails
    has no augmenting path — and by the standard monotonicity lemma never
    will, whatever else gets augmented.

    ``visited`` holds the full right nodes already expanded, and the call
    adds the ones it expands.  After a failed call none of them reaches a
    free slot until the next augmentation, so the caller passes the same
    set to the searches that follow one and a fresh set after a success.

    ``spare[j]`` is right node ``j``'s number of free slots; it and
    ``match_left`` are mutated element-wise, so lists and arrays both
    serve.
    """
    # Frame: [left node, its row, position in the row, child position in
    # the current right node's right_matches list (advanced while
    # backtracking)].
    stack: List[list] = [[i0, rows[i0], 0, 0]]
    while stack:
        frame = stack[-1]
        i, row, p = frame[0], frame[1], frame[2]
        end = len(row)
        descended = False
        while p < end:
            j = row[p]
            if spare[j]:
                frame[2] = p
                right_matches[j].append(i)
                spare[j] -= 1
                match_left[i] = j
                for t in range(len(stack) - 2, -1, -1):
                    fi, frow, fp, fm = stack[t]
                    jt = frow[fp]
                    right_matches[jt][fm] = fi
                    match_left[fi] = jt
                return True
            if j not in visited:
                visited.add(j)
                matched_lefts = right_matches[j]
                if matched_lefts:
                    frame[2], frame[3] = p, 0
                    i2 = matched_lefts[0]
                    stack.append([i2, rows[i2], 0, 0])
                    descended = True
                    break
            p += 1
        if descended:
            continue
        stack.pop()
        if stack:
            parent = stack[-1]
            pj = parent[1][parent[2]]
            parent[3] += 1
            matched_lefts = right_matches[pj]
            if parent[3] < len(matched_lefts):
                i2 = matched_lefts[parent[3]]
                stack.append([i2, rows[i2], 0, 0])
            else:
                parent[2] += 1
                parent[3] = 0
    return False


def hopcroft_karp_matching(
    num_left: int,
    num_right: int,
    indptr: Sequence[int],
    indices: Sequence[int],
    right_capacities: Sequence[int],
) -> HKMatchingResult:
    """Maximum unit-demand b-matching on a CSR bipartite adjacency, solved cold.

    Parameters
    ----------
    num_left, num_right:
        Sizes of the two sides.
    indptr, indices:
        CSR adjacency: left node ``i`` is adjacent to
        ``indices[indptr[i]:indptr[i+1]]``.
    right_capacities:
        Maximum number of left nodes each right node may be matched to.

    A caller that holds a seed calls :func:`hopcroft_karp_rows`.
    """
    indptr_arr, indices_arr, cap_arr = _check_csr(
        num_left, num_right, indptr, indices, right_capacities
    )
    cold = np.full(num_left, -1, dtype=np.int64)
    return _solve(num_left, num_right, _LazyRows(indptr_arr, indices_arr), cap_arr, cold)


def hopcroft_karp_rows(
    num_left: int,
    num_right: int,
    rows,
    right_capacities: Sequence[int],
    seed: Sequence[int],
) -> HKMatchingResult:
    """The kernel of :func:`hopcroft_karp_matching` on a row source, seeded.

    ``rows`` gives ``heads(lefts)``, each left's first right node (``-1``
    for an empty row), ``first_fit(i, spare, room)``, left ``i``'s first
    right node ``j`` with ``spare[j]`` free slots (``-1`` if none) for a
    list ``spare`` and its boolean mask ``room``, and ``rows[i]``, left
    ``i``'s right nodes as a list, cached by the source on first touch;
    the kernel reads the rows only through them.  ``seed`` is a partial
    assignment (``-1`` = unmatched) whose pairs the caller built from
    those rows: the kernel
    adopts every pair, and checks only, in ``O(V)``, that each entry is
    ``-1`` or a right node in range and that no right node is seeded past
    its capacity (else ``ValueError``); it does not test that a pair is
    an edge, and a pair that is not one would be returned as matched.
    An all ``-1`` seed solves as :func:`hopcroft_karp_matching` on the
    same rows as a CSR.  The connection matcher calls it on
    :meth:`repro.core.possession.PossessionIndex.round_rows`, seeded by
    the previous round's retired, and possibly repaired, pairs.
    """
    cap_arr = _check_capacities(num_right, right_capacities)
    return _solve(
        num_left, num_right, rows, cap_arr, _check_seed(num_left, num_right, seed)
    )


def _solve(
    num_left: int,
    num_right: int,
    rows,
    cap_arr: np.ndarray,
    warm: np.ndarray,
) -> HKMatchingResult:
    """The kernel body: adopt the seed, greedy pass, then augment.

    ``warm`` is a checked seed (``-1`` = unmatched; all ``-1`` for a cold
    solve); ``rows`` is read only through ``heads``, ``first_fit`` and
    item access.
    """
    # The adopted pairs, in the order that fixes each right node's list of
    # matched lefts: seed pairs (ascending left per right node) first, then
    # greedy first-fits.
    match_arr = warm.copy()
    warm_i = np.flatnonzero(warm >= 0)
    warm_b = warm[warm_i]
    load_arr = np.bincount(warm_b, minlength=num_right).astype(np.int64)
    if (load_arr > cap_arr).any():
        raise ValueError("seed matches a right node past its capacity")

    # Greedy pass: first-fit for everything still unmatched, in left
    # order.  Until some left finds its row's head full, first-fit gives
    # every left its head, so that prefix is adopted in one vectorized
    # step.  From that left on the pass is inherently sequential: a left
    # whose head still has room takes it, any other takes its row's first
    # box with room.
    unmatched = np.flatnonzero(match_arr < 0)
    if not unmatched.size:
        return HKMatchingResult(
            feasible=True,
            assignment=match_arr,
            matched=num_left,
            deficient_left=(),
            unsatisfied_witness=None,
        )
    heads = rows.heads(unmatched)
    nonempty = heads >= 0
    lefts = unmatched[nonempty]
    heads = heads[nonempty]
    fits = _rank_among_equal(heads) < (cap_arr - load_arr)[heads]
    stop = fits.size if fits.all() else int(fits.argmin())
    load_arr += np.bincount(heads[:stop], minlength=num_right)
    # Each right node's free slots: the sequential greedy and the searches
    # test and take them one at a time.
    spare_arr = cap_arr - load_arr
    spare = spare_arr.tolist()
    if stop < heads.size:
        # The left at ``stop`` finds its head full, so the row source is
        # asked for first fits: it reads ``spare`` on a row it scans as a
        # list, and ``room``, the free slots as a mask, on a row it scans
        # on its arrays.  Writes through a memoryview keep the mask in
        # step for less than NumPy's own.
        room = spare_arr > 0
        room_view = room.data
        first_fit = rows.first_fit
        choices = heads[stop:].tolist()
        for k, j in enumerate(choices):
            if not spare[j]:
                j = choices[k] = first_fit(int(lefts[stop + k]), spare, room)
                if j < 0:
                    continue
            spare[j] -= 1
            if not spare[j]:
                room_view[j] = False
        heads[stop:] = choices
    taken = heads >= 0
    greedy_i, greedy_b = lefts[taken], heads[taken]
    match_arr[greedy_i] = greedy_b

    free = np.flatnonzero(match_arr < 0)
    matched = num_left - free.size
    if not free.size:
        return HKMatchingResult(
            feasible=True,
            assignment=match_arr,
            matched=matched,
            deficient_left=(),
            unsatisfied_witness=None,
        )

    # Deficit remains: augment from the free lefts.  The searches read
    # rows on demand: a left's row, and a right node's list of matched
    # lefts, become Python lists only when a search first visits them.
    right_matches = _right_matches(
        num_right,
        np.concatenate((warm_i, greedy_i)),
        np.concatenate((warm_b, greedy_b)),
    )

    # Small deficits — the typical warm-started round — augment one source
    # at a time with Kuhn, which touches only a small neighbourhood.  An
    # augmenting path never unmatches a left, so the lefts free before the
    # loop are exactly those found free when it reaches them.
    if free.size <= max(8, math.isqrt(num_left)):
        dead: Set[int] = set()
        for i in free.tolist():
            if _kuhn_augment(i, rows, spare, match_arr, right_matches, dead):
                matched += 1
                dead = set()
        if matched == num_left:
            return HKMatchingResult(
                feasible=True,
                assignment=match_arr,
                matched=matched,
                deficient_left=(),
                unsatisfied_witness=None,
            )
        free = free[match_arr[free] < 0]

    dist: List[float] = [_INF] * num_left
    # The lefts the latest BFS layered; after a failed BFS, the witness.
    reached: List[int] = []

    def bfs(free_lefts: List[int]) -> float:
        """Layer the lefts by alternating-path distance from the free ones."""
        for i in reached:
            dist[i] = _INF
        reached[:] = free_lefts
        for i in free_lefts:
            dist[i] = 0
        queue = deque(free_lefts)
        seen_right = [False] * num_right
        dist_nil = _INF
        while queue:
            i = queue.popleft()
            di = dist[i]
            if di >= dist_nil:
                continue
            dn = di + 1
            for j in rows[i]:
                if spare[j]:
                    if dn < dist_nil:
                        dist_nil = dn
                elif not seen_right[j]:
                    # Expand each full right node once: BFS order guarantees
                    # the first visit assigns the minimal layer.
                    seen_right[j] = True
                    for i2 in right_matches[j]:
                        if dist[i2] == _INF:
                            dist[i2] = dn
                            queue.append(i2)
                            reached.append(i2)
        return dist_nil

    def augment(i0: int, dist_nil: float) -> bool:
        """Iterative layered DFS from free left ``i0``; applies one augmentation."""
        # Frame: [left node, its row, position in the row, position in
        # right_matches].  Every frame starts at its row's head: a left
        # whose search dead-ends leaves the layering, so is never resumed.
        stack: List[list] = [[i0, rows[i0], 0, 0]]
        while stack:
            frame = stack[-1]
            i, row, p, m = frame
            end = len(row)
            descended = False
            while p < end:
                j = row[p]
                layer = dist[i] + 1
                if spare[j] and layer == dist_nil:
                    # Free capacity at the frontier layer: augment the path.
                    frame[2] = p
                    right_matches[j].append(i)
                    spare[j] -= 1
                    match_arr[i] = j
                    for t in range(len(stack) - 2, -1, -1):
                        fi, frow, fp, fm = stack[t]
                        jt = frow[fp]
                        # Replace the deeper left (rematched above) in place:
                        # the right node's load is unchanged.
                        right_matches[jt][fm] = fi
                        match_arr[fi] = jt
                    return True
                matched_lefts = right_matches[j]
                while m < len(matched_lefts):
                    i2 = matched_lefts[m]
                    if dist[i2] == layer:
                        frame[2], frame[3] = p, m
                        stack.append([i2, rows[i2], 0, 0])
                        descended = True
                        break
                    m += 1
                if descended:
                    break
                p += 1
                m = 0
            if descended:
                continue
            # Dead end: prune this left for the rest of the phase.
            dist[i] = _INF
            stack.pop()
            if stack:
                stack[-1][3] += 1
        return False

    while True:
        free_lefts = free.tolist()
        dist_nil = bfs(free_lefts)
        if dist_nil == _INF:
            break
        for i in free_lefts:
            if augment(i, dist_nil):
                matched += 1
        if matched == num_left:
            break
        free = free[match_arr[free] < 0]

    deficient = tuple(np.flatnonzero(match_arr < 0).tolist())
    witness: Optional[Tuple[int, ...]] = None
    if deficient:
        # The loop only leaves a deficit after a failed BFS: the lefts it
        # reached from the unmatched ones form the Hall-violating subset,
        # exactly as the min-cut extraction of the flow formulation.
        witness = tuple(sorted(reached))
    return HKMatchingResult(
        feasible=not deficient,
        assignment=match_arr,
        matched=matched,
        deficient_left=deficient,
        unsatisfied_witness=witness,
    )
