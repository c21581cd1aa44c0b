"""A/B parity tests for the incremental dynamic-matching layer.

The engine's incremental path repairs each round's delta (expirations,
arrivals, churn/fault capacity changes) instead of re-solving the whole
instance; it must be *observationally identical* to the full per-round
solve.  Comparing a run against the full-solve twin of the same
``(spec, seed)`` — the same build with the pool's pair expiries dropped
after every round, so every round runs the full kernel — pins the
per-round records (matched/unmatched counts, feasibility, upload usage)
bit for bit — across every registered scenario, including the
``chaos_*`` fault injections.

One caveat keeps the full-run digest comparison conditional: in a round
that leaves requests unmatched, two equally-maximum matchings may strand
*different* requests, which shifts individual start-up delays and hence
the summary's ``mean_startup_delay`` even though every per-round record
is identical (maximum matchings are not unique; the paper's claims are
cardinality-level).  When every round matches all of its requests the
serving schedule is forced, so there the full digest must agree too.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.matching as matching
import repro.core.possession as possession_module
from repro.api.session import VodSession
from repro.core.possession import PossessionIndex
from repro.scenarios.build import build_full_solve_twin, build_scenario
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.replay import digest_result
from repro.scenarios.scale import soak_spec
from seeded_kernel import solve_seeded

#: Round caps for the heavyweight scale tiers — their full-solve
#: baselines run at seconds per round from cold; two rounds are enough
#: to cross the warm-start + repair path at that size.  Everything else
#: runs its registered horizon capped at 20 rounds.
_ROUND_CAPS = {"scale_tier_10k": 8, "scale_tier_100k": 2, "scale_tier_500k": 2}

#: Tiers whose build alone (allocation draw over millions of boxes) is too
#: heavy for this sweep; CI's budgeted scale-smoke run covers them.
_SWEEP_EXCLUDED = {"scale_tier_2m"}


def _sweep_names():
    return [name for name in scenario_names() if name not in _SWEEP_EXCLUDED]


def _rounds_for(name: str) -> int:
    spec = get_scenario(name)
    return min(spec.horizon, _ROUND_CAPS.get(name, 20))


def _run_scenario(name: str, seed: int, rounds: int, incremental: bool):
    """Run ``(name, seed)`` for ``rounds`` and digest it.

    ``incremental=False`` runs the full-solve twin.
    """
    spec = get_scenario(name)
    build = build_scenario if incremental else build_full_solve_twin
    compiled = build(spec, seed=seed, min_horizon=rounds)
    result = compiled.run(rounds)
    return digest_result(spec, compiled.seed, rounds, result)


def _assert_parity(run_inc, run_full) -> None:
    """Assert incremental ≡ full-solve at the claim level.

    Per-round records must always match.  The full digest additionally
    hashes the start-up-delay summary, which is only forced when every
    round matched all of its requests (see module docstring).
    """
    assert run_inc.round_records == run_full.round_records
    if all(rec["unmatched"] == 0 for rec in run_full.round_records):
        assert run_inc.digest == run_full.digest


@pytest.mark.parametrize("name", _sweep_names())
def test_incremental_equals_full_solve(name):
    """Incremental repair reproduces the full solve on every scenario."""
    rounds = _rounds_for(name)
    run_inc = _run_scenario(name, 1234, rounds, incremental=True)
    run_full = _run_scenario(name, 1234, rounds, incremental=False)
    _assert_parity(run_inc, run_full)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**16), rounds=st.integers(4, 18))
def test_repair_equals_cold_solve_randomized(seed, rounds):
    """Random seeds/horizons on the churn-heavy scenario stay bit-equal.

    ``churn_storm`` retires matched pairs via outages every round, so the
    repair path (stale retirement, over-capacity drops, greedy + exact
    augmentation) is exercised far from the steady state.
    """
    run_inc = _run_scenario("churn_storm", seed, rounds, incremental=True)
    run_full = _run_scenario("churn_storm", seed, rounds, incremental=False)
    _assert_parity(run_inc, run_full)


def test_snapshot_restore_mid_repair_parity():
    """A snapshot taken mid-run (repair state live) restores bit-identically."""
    name, seed = "churn_storm", 77
    spec = get_scenario(name)
    rounds = min(spec.horizon, 16)
    session = build_scenario(spec, seed=seed, min_horizon=rounds).session(
        horizon=rounds
    )
    session.step_until(round=rounds // 2)
    restored = VodSession.restore(session.snapshot())
    tail_a = session.step_until(round=rounds)
    tail_b = restored.step_until(round=rounds)
    assert [r.to_dict() for r in tail_a] == [r.to_dict() for r in tail_b]
    digest_a = digest_result(spec, seed, rounds, session.result()).digest
    digest_b = digest_result(spec, seed, rounds, restored.result()).digest
    assert digest_a == digest_b


def test_zero_search_budget_forces_fallback_and_stays_equal():
    """With no search budget the repair gives up — and the fallback is exact.

    ``set_repair_search_budget(0)`` makes any round whose greedy leaves a
    deficit fall back to the full kernel; those rounds must be counted in
    the engine's ``repair_fallback_rounds`` and the run must still match
    the full-solve twin record for record.  ``near_threshold_load``
    runs at the edge of Lemma 1 feasibility, so its greedy reliably
    strands requests whose cached candidate boxes saturate.
    """
    name, seed = "near_threshold_load", 9
    spec = get_scenario(name)
    rounds = min(spec.horizon, 16)
    forced = build_scenario(spec, seed=seed, min_horizon=rounds)
    forced.simulator.matcher.set_repair_search_budget(0)
    result_forced = forced.run(rounds)
    assert forced.simulator.repair_fallback_rounds > 0
    baseline = build_full_solve_twin(spec, seed=seed, min_horizon=rounds)
    result_base = baseline.run(rounds)
    run_forced = digest_result(spec, seed, rounds, result_forced)
    run_base = digest_result(spec, seed, rounds, result_base)
    _assert_parity(run_forced, run_base)


def test_disable_toggle_resets_incremental_state():
    """Dropping the repair bookkeeping mid-session changes no report.

    ``reset_incremental_state()`` leaves the next round nothing to repair,
    so it runs the full kernel; its reports, and every later one, must
    equal those of an untouched session.
    """
    spec = get_scenario("steady_state")
    rounds = min(spec.horizon, 12)
    untouched = build_scenario(spec, seed=3, min_horizon=rounds).session(
        horizon=rounds
    )
    session = build_scenario(spec, seed=3, min_horizon=rounds).session(
        horizon=rounds
    )
    session.step_until(round=rounds // 2)
    session.engine.reset_incremental_state()
    repairs_before = session.engine.matcher.repair_rounds
    session.step()
    assert session.engine.matcher.repair_rounds == repairs_before
    session.step_until(round=rounds)
    untouched.step_until(round=rounds)
    assert [r.to_dict() for r in session.reports] == [
        r.to_dict() for r in untouched.reports
    ]
    assert session.digest() == untouched.digest()


#: What a :class:`ConnectionMatcher` holds: its configuration and its
#: repair counter, and no round state.
_MATCHER_ATTRIBUTES = {
    "_slots",
    "_solver",
    "_repair_search_budget",
    "_repair_rounds",
}


def test_the_matcher_keeps_no_round_state():
    """A round's matching is a function of the call's arguments.

    Every ``match`` call of a ``churn_storm`` session is replayed on a
    fresh matcher with the same requests, busy slots, warm start and pair
    expiries: it returns the same assignment and pair expiries, and
    afterwards holds nothing but its configuration and repair counter.
    """
    spec = get_scenario("churn_storm")
    session = build_scenario(spec, seed=2).session()
    matcher = session.engine.matcher
    match = matcher.match
    repaired = []

    def replayed_match(requests, possession, current_time, **kwargs):
        result = match(requests, possession, current_time, **kwargs)
        fresh = matching.ConnectionMatcher(matcher.upload_slots)
        again = fresh.match(requests, possession, current_time, **kwargs)
        assert set(vars(fresh)) == _MATCHER_ATTRIBUTES
        assert np.array_equal(again.assignment, result.assignment)
        assert np.array_equal(again.pair_expiry, result.pair_expiry)
        assert again.obstruction_witness == result.obstruction_witness
        repaired.append(fresh.repair_rounds)
        return result

    matcher.match = replayed_match
    session.step_until(round=spec.horizon)
    assert len(repaired) == spec.horizon and 0 < sum(repaired) < spec.horizon


def test_matcher_calls_the_kernel_and_the_repair_as_module_globals(monkeypatch):
    """The matcher reaches both solvers through ``repro.core.matching``.

    The end-to-end benchmark's tracer patches ``hopcroft_karp_matching``
    and ``repair_matching`` on that module, so a call routed through
    another module would silently drop out of traced runs; the row entry
    ``hopcroft_karp_rows`` is a global there too, for a tracer to patch.
    ``near_threshold_load`` at seed 0 runs the full kernel on the round's
    rows (in round 0 and in its fallbacks) and the exact repair, within
    20 rounds.  The CSR entry ``hopcroft_karp_matching`` stays a global
    of the module, for the tracer, and is never called.
    """
    counts = {"hopcroft_karp_matching": 0, "hopcroft_karp_rows": 0, "repair_matching": 0}

    def counting(name):
        solve = getattr(matching, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return solve(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(matching, name, counting(name))
    _run_scenario("near_threshold_load", 0, 20, incremental=True)
    assert counts["hopcroft_karp_rows"] and counts["repair_matching"], counts
    assert counts["hopcroft_karp_matching"] == 0


def test_trusted_fallback_equals_the_validating_kernel(monkeypatch):
    """A kernel call on the round's rows solves as the seeding reference.

    A churn storm at 5% outages a round makes nearly every round
    infeasible, so the full kernel runs on the round's rows, seeded with
    the retired and repaired pairs, which it trusts.  Each call is re-run
    on ``adjacency_for``'s CSR from the same seed through the test-side
    reference (``solve_seeded``), which retires every seed pair that is
    not an edge first, and must return the same result.  After every
    round each pair the kernel made carries the latest expiry of its
    box's edges in the request's row.  A pair the repair made keeps the
    expiry it recorded, which is one of those edges' and never later than
    the latest: at this seed one box caches a stripe twice in a request's
    window, and the repair's pair keeps the earlier entry's expiry through
    the round's fallback.
    """
    # Per kernel call, its seed.
    kernel_seeds = []
    solve_rows = matching.hopcroft_karp_rows
    # The arguments of the match call in progress.
    instance = []

    def checked_solve_rows(num_left, num_right, rows, capacities, seed):
        result = solve_rows(num_left, num_right, rows, capacities, seed)
        requests, possession, current_time = instance[-1]
        indptr, indices = possession.adjacency_for(requests, current_time)
        validated = solve_seeded(num_left, num_right, indptr, indices, capacities, seed)
        assert np.array_equal(result.assignment, validated.assignment)
        assert result.matched == validated.matched
        assert result.deficient_left == validated.deficient_left
        assert result.unsatisfied_witness == validated.unsatisfied_witness
        kernel_seeds.append(seed)
        return result

    monkeypatch.setattr(matching, "hopcroft_karp_rows", checked_solve_rows)
    compiled = build_scenario(_churn_storm_soak_spec(30), seed=1)
    matcher = compiled.simulator.matcher
    match = matcher.match
    kernel_pairs = early_pairs = 0

    def checked_match(requests, possession, current_time, **kwargs):
        nonlocal kernel_pairs, early_pairs
        calls = len(kernel_seeds)
        instance.append((requests, possession, current_time))
        result = match(requests, possession, current_time, **kwargs)
        made_by_kernel = result.assignment >= 0
        if len(kernel_seeds) == calls:
            made_by_kernel[:] = False  # a repaired round
        else:
            made_by_kernel &= result.assignment != kernel_seeds[-1]
        pair_expiry = result.pair_expiry
        for i in np.flatnonzero(result.assignment >= 0).tolist():
            boxes, expiry = possession.row_with_expiry(
                int(requests.stripe_id_array[i]),
                int(requests.box_id_array[i]),
                int(requests.request_time_array[i]),
                current_time,
            )
            edges = expiry[boxes == result.assignment[i]]
            if made_by_kernel[i]:
                assert pair_expiry[i] == edges.max()
                kernel_pairs += 1
            else:
                assert pair_expiry[i] in edges.tolist()
                assert pair_expiry[i] <= edges.max()
                early_pairs += int(pair_expiry[i] < edges.max())
        return result

    matcher.match = checked_match
    compiled.run(30)
    assert len(kernel_seeds) >= 21
    assert (kernel_seeds[0] == -1).all()  # round 0 has nothing to carry
    assert kernel_pairs > 0 and early_pairs > 0


def test_sparse_kernel_rounds_lay_out_only_their_heads(monkeypatch):
    """A kernel round that touches few rows never lays out the round.

    The 2k-box churn storm at 5% outages falls back to the full kernel
    nearly every round, from a seed that leaves a few of its up to 2,078
    requests unmatched.  In every call whose seed leaves unmatched, and
    whose searches touch, no more rows than the row source builds one at
    a time, the rows passed to ``_row_blocks`` during the call are
    exactly the seed's unmatched lefts, which ``heads`` lays out once:
    never the whole round.
    """
    laid_out = []
    row_blocks = PossessionIndex._row_blocks
    solve_rows = matching.hopcroft_karp_rows
    sparse_rounds, unmatched_rows, round_rows = 0, 0, 0

    def counted_blocks(index, stripes, *args):
        laid_out.append(stripes.size)
        return row_blocks(index, stripes, *args)

    def counted_solve_rows(num_left, num_right, rows, capacities, seed):
        nonlocal sparse_rounds, unmatched_rows, round_rows
        laid_out.clear()
        result = solve_rows(num_left, num_right, rows, capacities, seed)
        unmatched = int((seed < 0).sum())
        budget = num_left >> possession_module._LAYOUT_SHIFT
        if len(rows) <= budget and unmatched <= budget:
            assert laid_out == [unmatched]
            sparse_rounds += 1
            unmatched_rows += unmatched
            round_rows += num_left
        return result

    monkeypatch.setattr(PossessionIndex, "_row_blocks", counted_blocks)
    monkeypatch.setattr(matching, "hopcroft_karp_rows", counted_solve_rows)
    session = build_scenario(_churn_storm_soak_spec(30), seed=1).session()
    session.step_until(round=30)
    # 22 of the 23 kernel calls (all but round 0's cold solve) lay out
    # 102 of their 36,790 rows.
    assert (sparse_rounds, unmatched_rows, round_rows) == (22, 102, 36_790)


def _churn_storm_soak_spec(horizon: int):
    """The 2k-box churn-storm soak at 5% outages a round."""
    spec = soak_spec(2_000, "churn_storm", horizon=horizon)
    return replace(spec, churn=replace(spec.churn, failure_probability=0.05))


def _matcher_output_digest(spec, seed: int, rounds: int, build, search_budget=None):
    """SHA-256 over every ``match`` call of a run, in call order.

    Each call contributes its assignment, matched count, feasibility, Hall
    witness, repair-fallback flag and pair expiries.
    """
    compiled = build(spec, seed=seed, min_horizon=rounds)
    matcher = compiled.simulator.matcher
    if search_budget is not None:
        matcher.set_repair_search_budget(search_budget)
    match = matcher.match
    digest = hashlib.sha256()

    def hashed_match(*args, **kwargs):
        result = match(*args, **kwargs)
        digest.update(np.asarray(result.assignment, dtype=np.int64).tobytes())
        digest.update(
            repr(
                (
                    result.matched,
                    result.feasible,
                    result.obstruction_witness,
                    result.repair_fallback,
                )
            ).encode()
        )
        expiry = result.pair_expiry
        digest.update(
            b"none" if expiry is None else np.asarray(expiry, dtype=np.int64).tobytes()
        )
        return result

    matcher.match = hashed_match
    compiled.run(rounds)
    return digest.hexdigest()


#: Which maximum matching the matcher returns, call by call, as built and
#: as the full-solve twin; the golden traces hash only per-round counts.
PINNED_MATCHER_OUTPUT = {
    "churn_storm": (
        "fd1a6bf75ea0bc3a4afa071169901efd"
        "8ea48dc80cacdaee84ad7be1fbdd949e"
    ),
    "churn_storm/twin": (
        "fd1a6bf75ea0bc3a4afa071169901efd"
        "8ea48dc80cacdaee84ad7be1fbdd949e"
    ),
    "near_threshold_load": (
        "99d0bf5fb0e702c3ee5ba23b5bfcc889"
        "885156f9c1dfaf2fe163eea191092c15"
    ),
    "near_threshold_load/twin": (
        "2040063997468af6c38a609ef74d5577"
        "8b28ab6b9ed63c1499fdb4f7022730ec"
    ),
    "near_threshold_load/budget_0": (
        "ca60a20008922c3ff6e8659009692482"
        "ce93ba58d973086e6bbfa458fd96979c"
    ),
    "churn_storm_soak_2k": (
        "41213ab353d025e94089142d187db671"
        "6e5cb72eec80dc1ab17a228f5cc2f373"
    ),
    "churn_storm_soak_2k/twin": (
        "e4e78b1d01477fcd5953f3dad4881da4"
        "587cc08ba8c7fcac57927a20b8974b9d"
    ),
}


def test_matcher_output_is_pinned():
    """Every ``match`` call's output is pinned, on both routes.

    ``churn_storm`` (seed 1, 24 rounds), ``near_threshold_load`` (seed 0,
    20 rounds) and the 2k-box churn-storm soak at 5% outages (seed 1,
    30 rounds) run as built and as the full-solve twin;
    ``near_threshold_load`` also runs with a repair search budget of 0,
    so its over-budget fallbacks are pinned too.
    """
    runs = {
        "churn_storm": (get_scenario("churn_storm"), 1, 24),
        "near_threshold_load": (get_scenario("near_threshold_load"), 0, 20),
        "churn_storm_soak_2k": (_churn_storm_soak_spec(30), 1, 30),
    }
    digests = {}
    for name, (spec, seed, rounds) in runs.items():
        digests[name] = _matcher_output_digest(spec, seed, rounds, build_scenario)
        digests[f"{name}/twin"] = _matcher_output_digest(
            spec, seed, rounds, build_full_solve_twin
        )
    spec, seed, rounds = runs["near_threshold_load"]
    digests["near_threshold_load/budget_0"] = _matcher_output_digest(
        spec, seed, rounds, build_scenario, search_budget=0
    )
    assert digests == PINNED_MATCHER_OUTPUT


def test_a_churn_storm_session_gathers_no_round_csr(monkeypatch):
    """A churn storm's kernel calls read the round's rows, not its CSR.

    At 5% outages a round nearly every round falls back to the full
    kernel.  Every kernel call, round 0's included, solves on
    ``kernel_rows``; ``adjacency_for`` is never gathered.
    """
    gathered, row_calls = [], []
    gather = PossessionIndex.adjacency_for
    solve_rows = matching.hopcroft_karp_rows

    def counted_gather(self, requests, current_time):
        gathered.append(current_time)
        return gather(self, requests, current_time)

    def counted_solve_rows(*args):
        row_calls.append(args[0])
        return solve_rows(*args)

    monkeypatch.setattr(PossessionIndex, "adjacency_for", counted_gather)
    monkeypatch.setattr(matching, "hopcroft_karp_rows", counted_solve_rows)
    session = build_scenario(_churn_storm_soak_spec(12), seed=1).session()
    session.step_until(round=12)
    assert gathered == []
    assert len(row_calls) >= 9
