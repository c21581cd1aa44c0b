"""Property tests for the struct-of-arrays engine core.

The vectorized hot path (PR 4) replaced per-object Python state — request
records, swarm member lists, per-stripe cache ring buffers — with NumPy
struct-of-arrays buffers.  The tests below pin its behaviour to simple
object-state reference models over randomized small instances:

* :class:`ActiveRequestPool` against a list-of-records model (activation
  order, expiry, first-service rounds, warm-start column);
* :class:`SwarmRegistry` against the historical scan-based model (sizes
  from the round just written through ``duration + 1`` rounds ahead,
  per video and as one array, the growth-violation count), fed one entry
  at a time and one ``enter_batch`` per round;
* the batched adjacency gather against the per-request row
  (:meth:`PossessionIndex.row_with_expiry`) and the set query;
* the Hopcroft–Karp warm-start fast path against cold solves and the
  max-flow oracle;
* snapshot → restore → step equality on the array buffers themselves.
"""

from __future__ import annotations

import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.possession as possession_module
from repro.core.allocation import random_permutation_allocation
from repro.core.parameters import homogeneous_population
from repro.core.possession import NEVER_EXPIRES, PossessionIndex
from repro.core.requests import RequestSet
from repro.core.video import Catalog
from repro.flow.dinic import dinic_matching
from repro.flow.hopcroft_karp import csr_from_edges, hopcroft_karp_matching
from repro.flow.repair import _greedy_first_fit
from repro.sim.scheduler import ActiveRequestPool
from repro.sim.swarm import SwarmRegistry
from seeded_kernel import csr_rows, solve_seeded


# --------------------------------------------------------------------- #
# ActiveRequestPool vs. object-state reference model
# --------------------------------------------------------------------- #
def _activate(pool, stripes, time, boxes, demands):
    """Activate one round's block of requests."""
    pool.extend_from_arrays(
        np.array(list(stripes), dtype=np.int64),
        time,
        np.array(list(boxes), dtype=np.int64),
        np.array(list(demands), dtype=np.int64),
    )


class _ReferencePool:
    """The historical list-of-records pool semantics, reimplemented."""

    def __init__(self, duration: int):
        self.duration = duration
        self.rows = []  # dicts: stripe, rtime, box, first, demand, assigned
        self.expired_unserved = 0

    def add(self, stripe, rtime, box, demand):
        self.rows.append(
            {"stripe": stripe, "rtime": rtime, "box": box,
             "first": None, "demand": demand, "assigned": -1}
        )

    def apply_matching(self, assignment, time):
        for row, box in zip(self.rows, assignment):
            row["assigned"] = int(box)
            if box >= 0 and row["first"] is None:
                row["first"] = time

    def expire(self, current_time):
        keep = []
        for row in self.rows:
            anchor = row["first"] if row["first"] is not None else row["rtime"]
            if current_time - anchor >= self.duration:
                if row["first"] is None:
                    self.expired_unserved += 1
            else:
                keep.append(row)
        self.rows = keep


pool_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, 12),   # stripe
            st.integers(0, 30),   # box
            st.integers(0, 4),    # demand index
        ),
        st.tuples(st.just("match"), st.integers(0, 100)),  # match-fraction seed
        st.tuples(st.just("tick"), st.integers(1, 3)),
    ),
    min_size=1,
    max_size=60,
)


class TestPoolEquivalence:
    @given(ops=pool_ops, duration=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_pool_matches_reference_model(self, ops, duration):
        pool = ActiveRequestPool(duration)
        model = _ReferencePool(duration)
        time = 0
        for op in ops:
            if op[0] == "add":
                _, stripe, box, demand = op
                _activate(pool, [stripe], time, [box], [demand])
                model.add(stripe, time, box, demand)
            elif op[0] == "match":
                _, seed = op
                rng = np.random.default_rng(seed)
                n = len(pool)
                assignment = rng.integers(-1, 5, size=n)
                pool.apply_matching(assignment, time)
                model.apply_matching(assignment, time)
            else:
                time += op[1]
                pool.drop_expired_keeping(time)
                model.expire(time)
            self._assert_equal(pool, model)

    def _assert_equal(self, pool: ActiveRequestPool, model: _ReferencePool):
        assert len(pool) == len(model.rows)
        assert pool.expired_unserved == model.expired_unserved
        assert pool.stripe_ids.tolist() == [r["stripe"] for r in model.rows]
        assert pool.request_times.tolist() == [r["rtime"] for r in model.rows]
        assert pool.box_ids.tolist() == [r["box"] for r in model.rows]
        assert pool.assigned_boxes.tolist() == [r["assigned"] for r in model.rows]
        firsts = [-1 if r["first"] is None else r["first"] for r in model.rows]
        assert pool.first_matched.tolist() == firsts
        assert pool.demand_indices.tolist() == [r["demand"] for r in model.rows]

    def test_request_set_snapshot_survives_pool_mutation(self):
        pool = ActiveRequestPool(duration=4)
        _activate(pool, [7], 0, [1], [-1])
        snapshot = pool.request_set()
        pool.drop_expired_keeping(10)
        assert len(pool) == 0
        assert snapshot.stripe_id_array.tolist() == [7]
        assert snapshot.request_time_array.tolist() == [0]
        assert snapshot.box_id_array.tolist() == [1]


# --------------------------------------------------------------------- #
# SwarmRegistry vs. scan-based reference model
# --------------------------------------------------------------------- #
class _ReferenceSwarms:
    """The historical list-scan registry semantics, reimplemented."""

    def __init__(self, mu, duration):
        self.mu, self.duration = mu, duration
        self.entries = {}  # video -> [entry round]
        self.violations = []

    def size(self, video, time):
        entries = self.entries.get(video, [])
        return sum(1 for e in entries if e <= time < e + self.duration)

    def enter(self, video, time):
        previous = self.size(video, time - 1) if time > 0 else 0
        self.entries.setdefault(video, []).append(time)
        new_size = self.size(video, time)
        allowed = math.ceil(max(previous, 1) * self.mu)
        if new_size > allowed:
            self.violations.append((video, time, previous, new_size, allowed))


def _assert_sizes_ahead(registry, model, time, duration):
    """Every video's size from round ``time`` through ``duration + 1`` rounds ahead.

    Asked one video at a time and as one array, which is cut short of
    the entered videos (2) or runs past them (6).
    """
    for t in range(time, time + duration + 2):
        for video in range(4):
            assert registry.size(video, t) == model.size(video, t), (video, t)
        for m in (2, 6):
            expected = [model.size(video, t) for video in range(m)]
            assert registry.sizes(m, t).tolist() == expected, (m, t)


swarm_entries = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 20)),
    min_size=1,
    max_size=50,
)


#: One ``enter_batch`` per round: each round comes 1–3 rounds after the
#: previous one (the first at round 0–2) with up to 8 videos entered in
#: arrival order.
swarm_rounds = st.lists(
    st.tuples(st.integers(1, 3), st.lists(st.integers(0, 3), max_size=8)),
    min_size=1,
    max_size=10,
)


class TestSwarmEquivalence:
    @given(entries=swarm_entries, duration=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_registry_matches_reference_model(self, entries, duration):
        # Swarm entries are written in round order, as the engine does.
        entries = sorted(entries, key=lambda entry: entry[1])
        registry = SwarmRegistry(mu=1.5, duration=duration)
        model = _ReferenceSwarms(mu=1.5, duration=duration)
        for video, time in entries:
            registry.enter(video, time)
            model.enter(video, time)
            _assert_sizes_ahead(registry, model, time, duration)
        assert registry.violation_count == len(model.violations)

    @given(rounds=swarm_rounds, duration=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_enter_batch_matches_reference_model(self, rounds, duration):
        """The engine's writer — one ``enter_batch`` per round — against
        the model fed one entry at a time in arrival order."""
        registry = SwarmRegistry(mu=1.5, duration=duration)
        model = _ReferenceSwarms(mu=1.5, duration=duration)
        time = -1
        for gap, videos in rounds:
            time += gap
            registry.enter_batch(np.array(videos, dtype=np.int64), time)
            for video in videos:
                model.enter(video, time)
            _assert_sizes_ahead(registry, model, time, duration)
        assert registry.violation_count == len(model.violations)


# --------------------------------------------------------------------- #
# Batched adjacency vs. the per-request row and the set query
# --------------------------------------------------------------------- #
@st.composite
def possession_instances(draw):
    num_videos = draw(st.integers(2, 5))
    catalog = Catalog(num_videos=num_videos, num_stripes=3, duration=6)
    population = homogeneous_population(draw(st.integers(8, 20)), u=2.0, d=3.0)
    allocation = random_permutation_allocation(
        catalog, population, replicas_per_stripe=2,
        random_state=draw(st.integers(0, 10_000)),
    )
    downloads = draw(
        st.lists(
            st.tuples(
                st.integers(0, catalog.total_stripes - 1),
                st.integers(0, population.n - 1),
                st.integers(0, 9),
            ),
            max_size=40,
        )
    )
    relays = draw(
        st.lists(
            st.tuples(
                st.integers(0, catalog.total_stripes - 1),
                st.integers(0, population.n - 1),
            ),
            max_size=5,
        )
    )
    requests = draw(
        st.lists(
            st.tuples(
                st.integers(0, catalog.total_stripes - 1),
                st.integers(0, 10),
                st.integers(0, population.n - 1),
            ),
            min_size=1,
            max_size=25,
        )
    )
    current_time = draw(st.integers(0, 12))
    evict_at = draw(st.none() | st.integers(0, 12))
    return allocation, downloads, relays, requests, current_time, evict_at


def _array_set(requests):
    return RequestSet(
        np.array([s for s, _, _ in requests], dtype=np.int64),
        np.array([t for _, t, _ in requests], dtype=np.int64),
        np.array([b for _, _, b in requests], dtype=np.int64),
    )


def read_delta_rows(reader):
    """Every row of a fresh delta-row reader as ``(box, expiry)`` pairs."""
    rows = [[] for _ in range(reader.requesters.size)]
    live = reader.live(np.arange(reader.requesters.size))
    heads = reader.heads(live)
    while live.size:
        pairs = zip(heads.tolist(), reader.expiries(live).tolist())
        for r, pair in zip(live.tolist(), pairs):
            rows[r].append(pair)
        live, heads = reader.step(live)
    return rows


def clipped_row(possession, request, current_time, k):
    """A request's row with the requester kept and the newest ``k`` cache edges."""
    stripe, time, _ = request
    # Box -1, which no row holds, keeps the requester in the row.
    boxes, expiries = possession.row_with_expiry(stripe, -1, time, current_time)
    edges = list(zip(boxes.tolist(), expiries.tolist()))
    # Row order is static, cache, relay; only cache edges expire.
    num_static = possession.static_servers(stripe).size
    cache = [e for e in edges[num_static:] if e[1] != NEVER_EXPIRES]
    relay = edges[num_static + len(cache):]
    return edges[:num_static] + cache[len(cache) - min(k, len(cache)):] + relay


def first_fit_reference(rows, requesters, residual):
    """Per-pass first-fit over explicit ``(box, expiry)`` rows, one row at a time.

    Each pass offers every unresolved row's head in row order and takes it
    while the box has residual; a rejected row then moves past its head
    and past every further box left without residual.  ``residual`` is a
    list, decremented in place.  Returns ``{row: (box, expiry)}`` and the
    rows left over.
    """
    rows = [[e for e in row if e[0] != req] for row, req in zip(rows, requesters)]
    ptr = [0] * len(rows)
    assigned = {}
    unresolved = list(range(len(rows)))
    while unresolved:
        rejected = []
        for r in unresolved:
            if ptr[r] == len(rows[r]):
                continue
            box, expiry = rows[r][ptr[r]]
            if residual[box] > 0:
                residual[box] -= 1
                assigned[r] = (box, expiry)
            else:
                rejected.append(r)
        for r in rejected:
            ptr[r] += 1
            while ptr[r] < len(rows[r]) and residual[rows[r][ptr[r]][0]] <= 0:
                ptr[r] += 1
        unresolved = rejected
    return assigned, [r for r in range(len(rows)) if r not in assigned]


def run_greedy(reader, residual):
    """The repair greedy's accepted ``{row: (box, expiry)}`` and leftovers."""
    taken, boxes, expiries, left = _greedy_first_fit(reader, residual)
    assigned = dict(zip(taken.tolist(), zip(boxes.tolist(), expiries.tolist())))
    return assigned, left.tolist()


def check_round_rows(possession, requests, current_time, lefts, order, shift):
    """Check ``round_rows`` against ``adjacency_for`` at switch point ``shift``.

    With ``_LAYOUT_SHIFT`` patched to ``shift``, the source builds its
    first ``len(requests) >> shift`` rows alone and lays out the round at
    the next miss.  Reading the rows in ``order``, every row equals the
    CSR's row whether built alone or cut from the layout, and so does
    every cached row read again after the switch.  ``heads(lefts)``
    equals each row's first entry before and after, and lays out only
    ``lefts`` until the round is laid out, or the round when asked about
    more rows than the source still builds alone; the round is laid out
    at most once, by ``heads`` or at the first miss past the budget.
    """
    num = len(requests)
    indptr, indices = possession.adjacency_for(requests, current_time)
    csr_rows = [indices[indptr[i]:indptr[i + 1]].tolist() for i in range(num)]
    expected_heads = [csr_rows[i][0] if csr_rows[i] else -1 for i in lefts]
    budget = num >> shift
    laid_out = []
    row_blocks = PossessionIndex._row_blocks

    def counted_blocks(index, stripes, *args):
        laid_out.append(stripes.size)
        return row_blocks(index, stripes, *args)

    with mock.patch.object(possession_module, "_LAYOUT_SHIFT", shift), \
            mock.patch.object(PossessionIndex, "_row_blocks", counted_blocks):
        rows = possession.round_rows(requests, current_time)
        assert laid_out == []
        assert rows.heads(lefts).tolist() == expected_heads
        whole = lefts.size > budget
        assert laid_out == [num if whole else lefts.size]
        laid_out.clear()
        for k, i in enumerate(order):
            assert rows[i] == csr_rows[i], (shift, k, i)
            assert laid_out == ([num] if k >= budget and not whole else []), (shift, k)
        for i in order:
            assert rows[i] == csr_rows[i], (shift, i)
        switched = whole or budget < len(order)
        assert laid_out == ([] if whole or not switched else [num])
        laid_out.clear()
        assert rows.heads(lefts).tolist() == expected_heads
        if switched:
            assert laid_out == []
        else:
            # The source still builds ``budget - len(order)`` rows alone.
            whole = lefts.size > budget - len(order)
            assert laid_out == [num if whole else lefts.size]


def first_with_room(row, spare):
    """The first entry ``j`` of a row (a list) with ``spare[j]``, ``-1`` if none."""
    return next((j for j in row if spare[j]), -1)


def check_first_fit(possession, requests, current_time, spare, order, convert, shift, scan_max):
    """Check ``round_rows``' ``first_fit`` against the CSR's rows.

    With ``_LAYOUT_SHIFT`` patched to ``shift`` and ``_LIST_SCAN_MAX`` to
    ``scan_max``, ``first_fit(i, spare, spare > 0)`` in ``order`` is the
    first entry of row ``i`` of ``adjacency_for`` with a free slot.  A row longer than
    ``scan_max`` is scanned on its arrays: it is not converted, and the
    round is not laid out for it.  Any other is converted as a miss is,
    and equals the CSR's row.  ``first_fit`` gives the same boxes again
    after the rows in ``convert`` are read (built alone or cut from the
    layout) and after ``heads`` asked about every row, whether or not
    that laid the round out.
    """
    num = len(requests)
    indptr, indices = possession.adjacency_for(requests, current_time)
    rows_csr = [indices[indptr[i]:indptr[i + 1]].tolist() for i in range(num)]
    room = np.array(spare) > 0
    expected = [first_with_room(row, spare) for row in rows_csr]
    short = {i for i in order if len(rows_csr_kept(possession, requests, current_time, i)) <= scan_max}
    budget = num >> shift
    laid_out = []
    row_blocks = PossessionIndex._row_blocks

    def counted_blocks(index, stripes, *args):
        laid_out.append(stripes.size)
        return row_blocks(index, stripes, *args)

    with mock.patch.object(possession_module, "_LAYOUT_SHIFT", shift), \
            mock.patch.object(possession_module, "_LIST_SCAN_MAX", scan_max), \
            mock.patch.object(PossessionIndex, "_row_blocks", counted_blocks):
        rows = possession.round_rows(requests, current_time)
        for i in order:
            assert rows.first_fit(i, spare, room) == expected[i], (shift, i)
        assert set(rows) == short
        assert all(rows[i] == rows_csr[i] for i in short)
        assert laid_out == ([num] if len(short) > budget else [])
        for i in convert:
            assert rows[i] == rows_csr[i], (shift, i)
        for i in order:
            assert rows.first_fit(i, spare, room) == expected[i], (shift, i)
        # Lays out the round, or, with budget to spare, every row's blocks.
        rows.heads(np.arange(num))
        for i in order:
            assert rows.first_fit(i, spare, room) == expected[i], (shift, i)
        assert set(rows) == short | set(convert)


def rows_csr_kept(possession, requests, current_time, i):
    """Row ``i`` with the requester kept, as a list (its length decides the scan)."""
    boxes, _ = possession.row_with_expiry(
        int(requests.stripe_id_array[i]), -1, int(requests.request_time_array[i]),
        current_time,
    )
    return boxes.tolist()


class TestAdjacencyEquivalence:
    def _build(self, allocation, downloads, relays, evict_at):
        possession = PossessionIndex(allocation, cache_window=6)
        # The download log is written in round order, as the engine does.
        for stripe, box, time in sorted(downloads, key=lambda d: d[2]):
            possession.record_download(stripe, box, time)
        for stripe, box in relays:
            possession.record_relay_cache(stripe, box)
        if evict_at is not None:
            possession.evict_before(evict_at)
        return possession

    @given(instance=possession_instances())
    @settings(max_examples=80, deadline=None)
    def test_batched_adjacency_equals_per_request_path(self, instance):
        allocation, downloads, relays, requests, current_time, evict_at = instance
        batched = self._build(allocation, downloads, relays, evict_at)

        indptr, indices = batched.adjacency_for(_array_set(requests), current_time)

        # The set query agrees on the neighbourhood *sets*.
        for i, (stripe, time, box) in enumerate(requests):
            row = set(indices[indptr[i]: indptr[i + 1]].tolist())
            expected = batched.servers_for(stripe, time, current_time)
            expected.discard(box)
            assert row == expected

    @given(instance=possession_instances(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_delta_rows_equal_row_with_expiry(self, instance, data):
        """Each row is its request's own row: same edges, same order, same
        expiries — in the round's CSR, and read through the repair's
        reader over a subset of rows with the cache block unclipped."""
        allocation, downloads, relays, requests, current_time, evict_at = instance
        possession = self._build(allocation, downloads, relays, evict_at)
        indptr, indices, expiry = possession.adjacency_delta_for(
            _array_set(requests), current_time
        )
        assert indptr.size == len(requests) + 1
        # The kernel's gather is the same CSR without the expiry column.
        plain_indptr, plain_indices = possession.adjacency_for(
            _array_set(requests), current_time
        )
        assert np.array_equal(plain_indptr, indptr)
        assert np.array_equal(plain_indices, indices)
        for i, (stripe, time, box) in enumerate(requests):
            boxes, expiries = possession.row_with_expiry(
                stripe, box, time, current_time
            )
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            assert indices[lo:hi].tolist() == boxes.tolist(), i
            assert expiry[lo:hi].tolist() == expiries.tolist(), i
        rows = data.draw(st.lists(st.integers(0, len(requests) - 1), max_size=30))
        reader = possession.delta_rows(
            _array_set(requests), current_time, rows, max_cache_edges=len(downloads)
        )
        for r, row in zip(rows, read_delta_rows(reader)):
            stripe, time, box = requests[r]
            boxes, expiries = possession.row_with_expiry(
                stripe, box, time, current_time
            )
            expected = list(zip(boxes.tolist(), expiries.tolist()))
            assert [e for e in row if e[0] != box] == expected, (r, rows)

    @given(instance=possession_instances(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_kernel_rows_equal_the_round_csr(self, instance, data):
        """The round's row source reads the round's CSR on demand.

        Some downloads repeat in later rounds, so a box may sit twice in a
        cache window, and most requesters are drawn from their own row, so
        they sit in its static, cache or relay block and may leave it
        empty.  Every row, touched in any order, is row ``i`` of
        ``adjacency_for``, and ``heads`` is each row's first entry, ``-1``
        for an empty one, before and after the rows are touched.  The
        rounds hold at most 25 rows, so the built switch point lays each
        out at its first read: each example also runs with the switch
        patched to build every row alone and to lay out partway through.
        """
        allocation, downloads, relays, requests, current_time, evict_at = instance
        if downloads:
            repeats = data.draw(
                st.lists(
                    st.tuples(st.integers(0, len(downloads) - 1), st.integers(1, 3)),
                    max_size=8,
                )
            )
            downloads = downloads + [
                (downloads[k][0], downloads[k][1], downloads[k][2] + later)
                for k, later in repeats
            ]
        possession = self._build(allocation, downloads, relays, evict_at)
        drawn = []
        for stripe, time, box in requests:
            # Box -1 excludes nothing: the row keeps the requester.
            row, _ = possession.row_with_expiry(stripe, -1, time, current_time)
            if row.size and data.draw(st.integers(0, 3)):
                box = data.draw(st.sampled_from(row.tolist()))
            drawn.append((stripe, time, box))
        num = len(drawn)
        lefts = np.array(
            data.draw(st.lists(st.integers(0, num - 1), max_size=30)), dtype=np.int64
        )
        order = data.draw(st.permutations(range(num)))
        inside = data.draw(st.integers(1, max(num.bit_length() - 1, 1)))
        for shift in (0, inside, num.bit_length(), possession_module._LAYOUT_SHIFT):
            check_round_rows(
                possession, _array_set(drawn), current_time, lefts, order, shift
            )

    def test_kernel_rows_build_relayed_rows_alone_and_laid_out(self):
        """Relays and a relaying requester, in both regimes of the row source."""
        catalog = Catalog(num_videos=3, num_stripes=3, duration=6)
        allocation = random_permutation_allocation(
            catalog, homogeneous_population(12, u=2.0, d=3.0),
            replicas_per_stripe=2, random_state=3,
        )
        downloads = [(0, 5, 1), (0, 9, 2), (4, 5, 2), (4, 2, 3), (2, 11, 4)]
        relays = [(0, 3), (0, 7), (4, 3), (2, 11), (8, 6)]
        possession = self._build(allocation, downloads, relays, None)
        # Requesters 3, 7 and 11 relay the stripe they request.
        requests = _array_set(
            [(0, 4, 3), (0, 4, 7), (4, 5, 1), (2, 5, 11), (8, 3, 6), (1, 4, 2),
             (0, 3, 9), (4, 5, 3)]
        )
        lefts = np.array([1, 3, 4, 6], dtype=np.int64)
        order = [3, 0, 7, 4, 1, 6, 2, 5]
        # Free slots on every box but the holders of stripes 0 and 4: first
        # fits fall in the cache and relay blocks, or nowhere.
        spare = [2] * 12
        for stripe in (0, 4):
            for holder in possession.static_servers(stripe).tolist():
                spare[holder] = 0
        for shift in (0, 1, 2, 4):
            check_round_rows(possession, requests, 5, lefts, order, shift)
            for scan_max in (-1, 3, possession_module._LIST_SCAN_MAX):
                check_first_fit(
                    possession, requests, 5, spare, order, [4, 0, 7], shift, scan_max
                )

    def _rich_instance(self, instance, data):
        """An instance whose rows hold every kind of entry, and its request set.

        Some downloads repeat in later rounds (a box twice in a window),
        some static holders also cache their stripe, and most requesters
        are drawn from their own row (static, cache or relay entries of
        the requester); relays and empty windows come with the instance.
        """
        allocation, downloads, relays, requests, current_time, evict_at = instance
        static = PossessionIndex(allocation, cache_window=6)
        extra = []
        for stripe, _, _ in requests:
            if data.draw(st.integers(0, 2)) == 0:
                holder = data.draw(st.sampled_from(static.static_servers(stripe).tolist()))
                extra.append((stripe, holder, data.draw(st.integers(0, 9))))
        if downloads:
            repeats = data.draw(
                st.lists(
                    st.tuples(st.integers(0, len(downloads) - 1), st.integers(1, 3)),
                    max_size=8,
                )
            )
            extra += [
                (downloads[k][0], downloads[k][1], downloads[k][2] + later)
                for k, later in repeats
            ]
        possession = self._build(allocation, downloads + extra, relays, evict_at)
        drawn = []
        for stripe, time, box in requests:
            # Box -1 excludes nothing: the row keeps the requester.
            row, _ = possession.row_with_expiry(stripe, -1, time, current_time)
            if row.size and data.draw(st.integers(0, 3)):
                box = data.draw(st.sampled_from(row.tolist()))
            drawn.append((stripe, time, box))
        return possession, drawn, current_time

    @given(instance=possession_instances(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_rows_expiry_is_the_first_edge_expiry(self, instance, data):
        """``expiry(i, j)`` is the expiry of row ``i``'s first edge to box ``j``.

        For every row of the round's row source, read in any order, with
        its list read first or not, and every box ``j`` in it,
        ``expiry(i, j)`` equals ``row_with_expiry``'s expiry at ``j``'s
        first position in request ``i``'s row, and the list is that row.
        A box may sit in a row twice: a static holder that also caches
        the stripe, a box that caches it twice in the window or caches
        and relays it.
        """
        possession, drawn, current_time = self._rich_instance(instance, data)
        rows = possession.round_rows(_array_set(drawn), current_time)
        for i in data.draw(st.permutations(range(len(drawn)))):
            stripe, time, box = drawn[i]
            boxes, expiries = possession.row_with_expiry(stripe, box, time, current_time)
            boxes = boxes.tolist()
            if data.draw(st.booleans()):
                assert rows[i] == boxes, i
            first = {}
            for j, expiry in zip(boxes, expiries.tolist()):
                first.setdefault(j, expiry)
            assert {j: rows.expiry(i, j) for j in first} == first, i
            assert rows[i] == boxes, i

    @given(instance=possession_instances(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_first_fit_is_the_first_entry_with_room(self, instance, data):
        """``first_fit(i, spare, room)`` is the first box of row ``i`` with a free slot.

        On the round's row source in every regime: rows built alone
        (every row, with the switch patched to build them all alone),
        laid out (the switch patched so the first read lays out the
        round), switching partway, and with rows already converted, each
        with every row scanned on its arrays, every row converted, and
        the built length limit; and on a CSR's row source, with rows
        already converted or not.
        """
        possession, drawn, current_time = self._rich_instance(instance, data)
        num_boxes = possession.allocation.num_boxes
        spare = data.draw(
            st.lists(st.integers(0, 2), min_size=num_boxes, max_size=num_boxes)
        )
        num = len(drawn)
        order = data.draw(st.permutations(range(num)))
        convert = data.draw(st.lists(st.integers(0, num - 1), max_size=num, unique=True))
        inside = data.draw(st.integers(1, max(num.bit_length() - 1, 1)))
        requests = _array_set(drawn)
        limit = data.draw(st.integers(0, 6))
        for shift in (0, inside, num.bit_length(), possession_module._LAYOUT_SHIFT):
            for scan_max in (-1, limit, possession_module._LIST_SCAN_MAX):
                check_first_fit(
                    possession, requests, current_time, spare, order, convert, shift,
                    scan_max,
                )
        indptr, indices = possession.adjacency_for(requests, current_time)
        lazy = csr_rows(indptr, indices)
        for i in convert:
            lazy[i]
        room = np.array(spare) > 0
        for i in order:
            row = indices[indptr[i]:indptr[i + 1]].tolist()
            assert lazy.first_fit(i, spare, room) == first_with_room(row, spare), i

    @given(instance=possession_instances(), k=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_max_cache_edges_keeps_the_newest_cache_edges(self, instance, k):
        """A reader row keeps every static and relay edge, the newest ``k``
        cache edges of its window and the requester, whom the greedy skips."""
        allocation, downloads, relays, requests, current_time, evict_at = instance
        possession = self._build(allocation, downloads, relays, evict_at)
        reader = possession.delta_rows(
            _array_set(requests), current_time, np.arange(len(requests)), k
        )
        for i, row in enumerate(read_delta_rows(reader)):
            assert row == clipped_row(possession, requests[i], current_time, k), i

    @given(instance=possession_instances(), data=st.data(), k=st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_greedy_matches_the_first_fit_reference(self, instance, data, k):
        """The on-demand greedy gives the reference's assignment, pair
        expiries, leftovers and residual capacities."""
        allocation, downloads, relays, requests, current_time, evict_at = instance
        possession = self._build(allocation, downloads, relays, evict_at)
        rows = data.draw(st.lists(st.integers(0, len(requests) - 1), max_size=30))
        residual = data.draw(
            st.lists(
                st.integers(0, 2),
                min_size=allocation.num_boxes,
                max_size=allocation.num_boxes,
            )
        )
        reader = possession.delta_rows(_array_set(requests), current_time, rows, k)
        got_residual = np.array(residual, dtype=np.int64)
        got = run_greedy(reader, got_residual)
        expected = first_fit_reference(
            [clipped_row(possession, requests[r], current_time, k) for r in rows],
            [requests[r][2] for r in rows],
            residual,
        )
        assert got == expected
        assert got_residual.tolist() == residual

    @given(instance=possession_instances())
    @settings(max_examples=40, deadline=None)
    def test_single_stripe_queries_match_window_semantics(self, instance):
        allocation, downloads, relays, _, current_time, evict_at = instance
        possession = self._build(allocation, downloads, relays, evict_at)
        horizon = current_time - possession.cache_window
        live = [
            (s, b, t) for s, b, t in downloads
            if evict_at is None or t >= evict_at - possession.cache_window
        ]
        for stripe in range(allocation.num_stripes):
            for request_time in range(0, 12):
                got = sorted(
                    possession._cache_slice(
                        stripe, request_time, current_time
                    )[0].tolist()
                )
                expected = sorted(
                    b for s, b, t in live
                    if s == stripe and horizon <= t < request_time
                )
                assert got == expected, (stripe, request_time)


def one_holder_index(window):
    """Two videos × two stripes on 6 boxes, one static holder per stripe."""
    catalog = Catalog(num_videos=2, num_stripes=2, duration=window)
    population = homogeneous_population(6, u=2.0, d=2.0)
    allocation = random_permutation_allocation(
        catalog, population, replicas_per_stripe=1, random_state=0
    )
    return PossessionIndex(allocation, cache_window=window)


class TestRepairGreedySkipsTheRequester:
    """A delta row counts the requester's own entries; the greedy skips them."""

    WINDOW = 6

    def _index(self):
        return one_holder_index(self.WINDOW)

    def _others(self, index, stripe):
        holder = int(index.static_servers(stripe)[0])
        return holder, [b for b in range(6) if b != holder]

    def test_requester_holding_the_stripe_statically_is_skipped(self):
        index = self._index()
        holder, (a, c, *_) = self._others(index, 0)
        index.record_downloads([0], [a], 1)
        index.record_downloads([0], [c], 2)
        requests = RequestSet([0], [3], [holder])
        reader = index.delta_rows(requests, 3, [0], max_cache_edges=4)
        assert read_delta_rows(reader)[0][0] == (holder, NEVER_EXPIRES)
        reader = index.delta_rows(requests, 3, [0], max_cache_edges=4)
        assert run_greedy(reader, np.ones(6, dtype=np.int64)) == (
            {0: (a, 1 + self.WINDOW)}, []
        )

    def test_requester_in_its_own_cache_window_is_skipped(self):
        index = self._index()
        holder, (b, c, *_) = self._others(index, 0)
        index.record_downloads([0], [b], 1)
        index.record_downloads([0], [c], 2)
        residual = np.ones(6, dtype=np.int64)
        residual[holder] = 0
        requests = RequestSet([0], [3], [b])
        reader = index.delta_rows(requests, 3, [0], max_cache_edges=4)
        assert [box for box, _ in read_delta_rows(reader)[0]] == [holder, b, c]
        reader = index.delta_rows(requests, 3, [0], max_cache_edges=4)
        assert run_greedy(reader, residual) == ({0: (c, 2 + self.WINDOW)}, [])

    def test_row_whose_only_edge_is_the_requester_is_left_over(self):
        index = self._index()
        holder, _ = self._others(index, 1)
        other_holder, (a, *_) = self._others(index, 0)
        requests = RequestSet([1, 0], [0, 0], [holder, a])
        reader = index.delta_rows(requests, 0, [0, 1], max_cache_edges=4)
        assert run_greedy(reader, np.ones(6, dtype=np.int64)) == (
            {1: (other_holder, NEVER_EXPIRES)}, [0]
        )


class TestBatchedRowsDropTheRequester:
    """The round's CSR and the round's row source, which the exact
    searches and the kernel read, drop the requester from every block of
    its row."""

    def test_requester_entries_leave_no_trace_in_any_block(self):
        """Rows 0 and 2 hold only the requester's own entries (static and
        cache; static and relay); row 1's requester is its stripe's static
        holder, has a cache entry and relays it, beside one other cache
        entry and one other relay."""
        window = 6
        index = one_holder_index(window)
        holder = [int(index.static_servers(s)[0]) for s in range(3)]
        a, c = [b for b in range(6) if b != holder[0]][:2]
        index.record_downloads([0, 0, 1], [holder[0], a, holder[1]], 1)
        for stripe, box in ((0, holder[0]), (0, c), (2, holder[2])):
            index.record_relay_cache(stripe, box)
        requests = RequestSet([1, 0, 2], [3, 3, 3], [holder[1], holder[0], holder[2]])
        indptr, indices, expiry = index.adjacency_delta_for(requests, 3)
        assert indptr.tolist() == [0, 0, 2, 2]
        assert indices.tolist() == [a, c]
        assert expiry.tolist() == [1 + window, NEVER_EXPIRES]
        for i in range(3):
            boxes, expiries = index.row_with_expiry(
                requests.stripe_id_array[i], requests.box_id_array[i], 3, 3
            )
            row = slice(indptr[i], indptr[i + 1])
            assert indices[row].tolist() == boxes.tolist(), i
            assert expiry[row].tolist() == expiries.tolist(), i
        assert [x.tolist() for x in index.adjacency_for(requests, 3)] == [
            indptr.tolist(), indices.tolist()
        ]
        rows = index.round_rows(requests, 3)
        assert rows.heads(np.arange(3)).tolist() == [-1, a, -1]
        spare = [1] * 6
        room = np.ones(6, dtype=bool)
        assert [rows.first_fit(i, spare, room) for i in range(3)] == [-1, a, -1]
        spare[a], room[a] = 0, False
        assert [rows.first_fit(i, spare, room) for i in range(3)] == [-1, c, -1]
        assert [rows[i] for i in range(3)] == [[], [a, c], []]
        assert [rows.expiry(1, j) for j in (a, c)] == [1 + window, NEVER_EXPIRES]


TOP_ROUND = 2**31 - 1


@st.composite
def log_histories(draw):
    """Round-ordered download blocks, evictions, queries and pickle round
    trips on one index.

    Several blocks and queries may share a round.  Rounds start anywhere
    up to the largest the sort key holds and stay there once they reach
    it; stripe ids span the whole catalog.  An eviction may lag the
    current round by up to two rounds.
    """
    catalog = Catalog(num_videos=draw(st.integers(1, 3)), num_stripes=2, duration=6)
    population = homogeneous_population(8, u=2.0, d=3.0)
    allocation = random_permutation_allocation(
        catalog, population, replicas_per_stripe=2,
        random_state=draw(st.integers(0, 10_000)),
    )
    window = draw(st.integers(1, 4))
    stripe = st.integers(0, catalog.total_stripes - 1)
    box = st.integers(0, population.n - 1)
    round_ = draw(
        st.integers(0, 12) | st.integers(TOP_ROUND - 12, TOP_ROUND) | st.integers(0, TOP_ROUND)
    )
    ops = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["next round", "write", "evict", "pickle", "query"]))
        if kind == "next round":
            round_ = min(round_ + draw(st.integers(1, 2)), TOP_ROUND)
        elif kind == "write":
            ops.append((kind, round_, draw(st.lists(st.tuples(stripe, box), max_size=6))))
        elif kind == "evict":
            ops.append((kind, draw(st.integers(max(round_ - 2, 0), round_)), None))
        elif kind == "pickle":
            ops.append((kind, round_, None))
        else:
            # Entries of the current round show only to requests issued after it.
            latest = min(round_ + 1, TOP_ROUND)
            issued = st.integers(max(round_ - window - 2, 0), latest) | st.just(latest)
            requests = st.lists(st.tuples(stripe, issued, box), min_size=1, max_size=8)
            ops.append((kind, round_, draw(requests)))
    return allocation, window, ops


class TestPatchedSortedView:
    """The download log's sorted columns, with writes and evictions folded
    in between queries and across pickle round trips, give the windows
    and rows a fresh sort of the live entries gives."""

    @given(history=log_histories())
    @settings(max_examples=150, deadline=None)
    def test_windows_and_rows_after_writes_and_evictions(self, history):
        allocation, window, ops = history
        possession = PossessionIndex(allocation, cache_window=window)
        live = []  # (stripe, box, round) in arrival order
        for kind, round_, arg in ops:
            if kind == "write":
                possession.record_downloads(
                    np.array([s for s, _ in arg], dtype=np.int64),
                    np.array([b for _, b in arg], dtype=np.int64),
                    round_,
                )
                live += [(s, b, round_) for s, b in arg]
            elif kind == "evict":
                possession.evict_before(round_)
                live = [e for e in live if e[2] >= round_ - window]
            elif kind == "pickle":
                possession = pickle.loads(pickle.dumps(possession))
            else:
                keys, boxes = possession._log.sorted_view()
                # The live entries, ordered by (stripe, round, arrival).
                assert list(zip(
                    (keys >> 31).tolist(), boxes.tolist(), (keys & TOP_ROUND).tolist()
                )) == sorted(live, key=lambda e: (e[0], e[2])), ops
                requests = _array_set(arg)
                _, boxes, win_lo, win_hi = possession._cache_windows(
                    requests.stripe_id_array, requests.request_time_array, round_
                )
                indptr, indices, expiry = possession.adjacency_delta_for(requests, round_)
                for i, (stripe, issued, box) in enumerate(arg):
                    expected = [
                        b for s, b, t in live
                        if s == stripe and round_ - window <= t < issued
                    ]
                    assert boxes[win_lo[i]: win_hi[i]].tolist() == expected, (i, ops)
                    row_boxes, row_expiry = possession.row_with_expiry(
                        stripe, box, issued, round_
                    )
                    row = slice(indptr[i], indptr[i + 1])
                    assert indices[row].tolist() == row_boxes.tolist(), (i, ops)
                    assert expiry[row].tolist() == row_expiry.tolist(), (i, ops)

    def test_a_restored_log_sorts_only_the_entries_written_since(self, monkeypatch):
        """The pickled log is its two sorted int64 columns, so a restore
        sorts nothing: the first query after it sorts only the new block."""
        import repro.core.possession as possession_module

        catalog = Catalog(num_videos=3, num_stripes=2, duration=6)
        allocation = random_permutation_allocation(
            catalog, homogeneous_population(8, u=2.0, d=3.0),
            replicas_per_stripe=2, random_state=3,
        )
        index = PossessionIndex(allocation, cache_window=2)
        rng = np.random.default_rng(0)
        for round_ in range(5):
            index.evict_before(round_)
            index.record_downloads(rng.integers(0, 6, 10), rng.integers(0, 8, 10), round_)
        requests = RequestSet(list(range(6)), [5] * 6, [0] * 6)
        index.adjacency_for(requests, 5)
        state = index._log.__getstate__()
        assert [column.dtype for column in state] == [np.int64, np.int64]

        payload = pickle.dumps(index)
        sorted_sizes = []
        stable_argsort = possession_module.stable_argsort
        monkeypatch.setattr(
            possession_module, "stable_argsort",
            lambda ids: sorted_sizes.append(ids.size) or stable_argsort(ids),
        )
        restored = pickle.loads(payload)
        for possession in (restored, index):
            possession.evict_before(5)
            possession.record_downloads([0, 5, 0], [1, 2, 3], 5)
        requests = RequestSet(list(range(6)), [6] * 6, [4] * 6)
        got = restored.adjacency_delta_for(requests, 6)
        assert sorted_sizes == [3]
        expected = index.adjacency_delta_for(requests, 6)
        assert [x.tolist() for x in got] == [x.tolist() for x in expected]


# --------------------------------------------------------------------- #
# Kernel: warm-start fast path vs. cold solves and the max-flow oracle
# --------------------------------------------------------------------- #
@st.composite
def matching_instances(draw):
    num_left = draw(st.integers(1, 18))
    num_right = draw(st.integers(1, 10))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, num_left - 1), st.integers(0, num_right - 1)),
            max_size=60,
        )
    )
    caps = draw(
        st.lists(st.integers(0, 3), min_size=num_right, max_size=num_right)
    )
    warm = draw(
        st.none()
        | st.lists(
            st.integers(-1, num_right - 1), min_size=num_left, max_size=num_left
        )
    )
    return num_left, num_right, edges, caps, warm


class TestKernelWarmStart:
    @given(instance=matching_instances())
    @settings(max_examples=120, deadline=None)
    def test_warm_start_preserves_cardinality_and_validity(self, instance):
        num_left, num_right, edges, caps, warm = instance
        indptr, indices = csr_from_edges(num_left, num_right, edges)
        cold = hopcroft_karp_matching(num_left, num_right, indptr, indices, caps)
        warm_result = solve_seeded(num_left, num_right, indptr, indices, caps, warm)
        assert warm_result.matched == cold.matched
        assert warm_result.feasible == cold.feasible

        oracle = dinic_matching(num_left, num_right, indptr, indices, caps)
        assert cold.matched == oracle.matched

        rows = [
            set(indices[indptr[i]: indptr[i + 1]].tolist())
            for i in range(num_left)
        ]
        for result in (cold, warm_result):
            load = [0] * num_right
            for i, box in enumerate(result.assignment.tolist()):
                if box >= 0:
                    assert box in rows[i]
                    load[box] += 1
            assert all(load[j] <= caps[j] for j in range(num_right))

    def test_numpy_and_list_inputs_agree(self):
        indptr = [0, 2, 4]
        indices = [0, 1, 0, 1]
        caps = [1, 1]
        from_lists = hopcroft_karp_matching(2, 2, indptr, indices, caps)
        from_arrays = hopcroft_karp_matching(
            2, 2,
            np.asarray(indptr, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(caps, dtype=np.int64),
        )
        assert from_lists.assignment.tolist() == from_arrays.assignment.tolist()


# --------------------------------------------------------------------- #
# Snapshot -> restore -> step equality on the array buffers
# --------------------------------------------------------------------- #
class TestArrayStateSnapshot:
    def _session(self, horizon=12):
        from repro.scenarios.build import build_scenario
        from repro.scenarios.registry import get_scenario

        compiled = build_scenario(get_scenario("steady_state"), seed=21)
        return compiled.session(horizon=horizon)

    @pytest.mark.parametrize("split", [1, 4, 7])
    def test_restored_array_buffers_are_identical(self, split):
        session = self._session()
        session.step_until(rounds=split)
        snapshot = session.snapshot()

        from repro.api.session import VodSession

        restored = VodSession.restore(snapshot)
        pool_a = session.engine._pool
        pool_b = restored.engine._pool
        for field in ("stripe_ids", "request_times", "box_ids", "first_matched",
                      "demand_indices", "assigned_boxes"):
            assert getattr(pool_a, field).tolist() == getattr(pool_b, field).tolist()

        # Stepping both produces bit-identical rounds and buffers.
        for _ in range(3):
            left = session.step()
            right = restored.step()
            assert left.to_dict() == right.to_dict()
        assert session.engine._pool.assigned_boxes.tolist() == (
            restored.engine._pool.assigned_boxes.tolist()
        )

    def test_pool_pickle_roundtrip_preserves_live_segment_only(self):
        pool = ActiveRequestPool(duration=3)
        _activate(pool, range(10), 0, range(10), [-1] * 10)
        pool.apply_matching(np.arange(10, dtype=np.int64), 0)
        pool.drop_expired_keeping(3)
        clone = pickle.loads(pickle.dumps(pool))
        assert len(clone) == len(pool)
        assert clone.stripe_ids.tolist() == pool.stripe_ids.tolist()
        assert clone.expired_unserved == pool.expired_unserved
