"""A/B parity tests for the incremental dynamic-matching layer.

The engine's incremental path repairs each round's delta (expirations,
arrivals, churn/fault capacity changes) instead of re-solving the whole
instance; it must be *observationally identical* to the full per-round
solve.  Comparing a run against the full-solve twin of the same
``(spec, seed)`` — the same build with the matcher's repair state dropped
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

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.matching as matching
from repro.api.session import VodSession
from repro.scenarios.build import build_full_solve_twin, build_scenario
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.replay import digest_result

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
    session.engine.matcher.reset_incremental_state()
    repairs_before = session.engine.matcher.repair_rounds
    session.step()
    assert session.engine.matcher.repair_rounds == repairs_before
    session.step_until(round=rounds)
    untouched.step_until(round=rounds)
    assert [r.to_dict() for r in session.reports] == [
        r.to_dict() for r in untouched.reports
    ]
    assert session.digest() == untouched.digest()


def test_matcher_calls_the_kernel_and_the_repair_as_module_globals(monkeypatch):
    """The matcher reaches both solvers through ``repro.core.matching``.

    The end-to-end benchmark's tracer patches ``hopcroft_karp_matching``
    and ``repair_matching`` on that module, so a call routed through
    another module would silently drop out of traced runs.
    ``near_threshold_load`` at seed 0 runs the full kernel and the exact
    repair within 20 rounds.
    """
    counts = {"hopcroft_karp_matching": 0, "repair_matching": 0}

    def counting(name):
        solve = getattr(matching, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return solve(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(matching, name, counting(name))
    _run_scenario("near_threshold_load", 0, 20, incremental=True)
    assert all(counts.values()), counts
