"""Scale-tier and stress/soak tests for the vectorized engine core.

This is the scale-tier counterpart of the toy-size golden suite: the
registered ``scale_tier_*`` scenarios must build and replay
deterministically at 10k-500k boxes, and the long-horizon soak harness
(:func:`repro.scenarios.run_soak`) must hold three properties at 10k
boxes under stress profiles:

* bounded memory — post-warmup tracemalloc growth stays under a
  per-round budget (catching per-request object or trace leaks);
* digest stability — repeating the run reproduces the metric digest bit
  for bit;
* solver-oracle agreement — sampled live rounds re-solved whole with
  the cold oracle (cardinality and feasibility against SciPy's max flow,
  assignment validity, exact Hall witnesses).

The long runs here are sized for CI (a few hundred rounds); the CLI
``python -m repro.scenarios soak`` runs the full 500+-round versions.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios.build import build_scenario
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.replay import run_scenario
from repro.scenarios.scale import (
    SCALE_TIERS,
    run_soak,
    scale_tier_spec,
    soak_spec,
)


class TestScaleTierRegistry:
    def test_all_tiers_registered(self):
        for tier in SCALE_TIERS:
            assert f"scale_tier_{tier}" in scenario_names()

    def test_tier_specs_are_proportional_and_lean(self):
        for tier, (boxes, videos, rate, replicas) in SCALE_TIERS.items():
            spec = get_scenario(f"scale_tier_{tier}")
            assert spec.population.params["n"] == boxes
            assert spec.catalog.num_videos == videos
            assert spec.catalog.num_videos == boxes // 8
            assert spec.workload[0].params["arrival_rate"] == rate
            assert spec.allocation.replicas_per_stripe == replicas
            assert spec.trace_level == "lean"
            # Catalog stays under the d*n/k storage cap.
            storage_slots = boxes * int(3.0 * spec.catalog.num_stripes)
            needed = videos * spec.catalog.num_stripes * replicas
            assert needed <= storage_slots

    def test_unknown_tier_raises(self):
        with pytest.raises(KeyError, match="unknown scale tier"):
            scale_tier_spec("1M")

    def test_lean_trace_level_round_trips_through_spec_dict(self):
        spec = get_scenario("scale_tier_10k")
        payload = spec.to_dict()
        assert payload["trace_level"] == "lean"
        from repro.scenarios.spec import ScenarioSpec

        assert ScenarioSpec.from_dict(payload).trace_level == "lean"
        # Default-level specs omit the key, keeping old goldens comparable.
        assert "trace_level" not in get_scenario("steady_state").to_dict()


class TestScaleTierReplay:
    def test_10k_truncated_replay_is_bit_identical(self):
        first = run_scenario("scale_tier_10k", seed=5, num_rounds=6)
        second = run_scenario("scale_tier_10k", seed=5, num_rounds=6)
        assert first.digest == second.digest
        assert first.round_records == second.round_records

    def test_100k_brief_replay_is_bit_identical_and_feasible(self):
        first = run_scenario("scale_tier_100k", seed=5, num_rounds=2)
        second = run_scenario("scale_tier_100k", seed=5, num_rounds=2)
        assert first.digest == second.digest
        assert first.summary["infeasible_rounds"] == 0

    def test_500k_builds_and_steps_one_round(self):
        compiled = build_scenario(get_scenario("scale_tier_500k"), seed=5)
        feasible = compiled.simulator.step(compiled.workload)
        assert feasible
        stats = compiled.simulator.last_round_stats
        assert stats.active_requests > 1000

    def test_10k_round_is_feasible_at_steady_state(self):
        result = build_scenario(get_scenario("scale_tier_10k"), seed=3).run(20)
        assert result.metrics.infeasible_rounds == 0
        # Steady state reached: the active multiset saturates near
        # rate * stripes * duration.
        assert result.metrics.round_stats[-1].active_requests > 5000


class TestLeanTrace:
    def test_lean_trace_records_no_per_request_events(self):
        compiled = build_scenario(get_scenario("scale_tier_10k"), seed=2)
        compiled.run(3)
        assert len(compiled.simulator.trace) == 0

    def test_lean_and_full_traces_produce_identical_metrics(self):
        spec = get_scenario("scale_tier_10k").with_overrides(horizon=4)
        import dataclasses

        full_spec = dataclasses.replace(spec, trace_level="full", name="tmp_full")
        lean = run_scenario(spec, seed=9, num_rounds=4)
        full = run_scenario(full_spec, seed=9, num_rounds=4)
        assert lean.round_records == full.round_records
        assert full.summary["trace_events"] > 0
        assert lean.summary["trace_events"] == 0

    def test_lean_sessions_still_count_playback_starts(self):
        session = build_scenario(get_scenario("scale_tier_10k"), seed=2).session(
            horizon=6
        )
        reports = session.step_until(rounds=6)
        assert sum(r.playback_starts for r in reports) > 0

    def test_trace_level_validation(self):
        compiled = build_scenario(get_scenario("steady_state"), seed=0)
        with pytest.raises(ValueError, match="trace_level"):
            compiled.system.build_simulator(trace_level="verbose")


class TestSoakHarness:
    """The stress/soak subsystem, CI-sized (the CLI runs 500+ rounds).

    The 10k-box runs use the full-speed RSS probe; tracemalloc-exact
    watermarks (which slow the engine ~20x) are exercised at 2k boxes.
    """

    def test_churn_storm_soak_at_10k_boxes(self):
        report = run_soak(
            soak_spec(boxes=10_000, profile="churn_storm", horizon=500),
            num_rounds=500,
            seed=11,
            oracle_every=200,
            repeats=1,
            memory_budget_bytes_per_round=512 * 1024,
            memory_probe="rss",
        )
        assert report.infeasible_rounds < 50
        assert report.memory_ok, (
            f"per-round RSS growth {report.bytes_per_round / 1024:.1f} KiB "
            f"exceeds budget (watermarks: {report.memory_watermarks})"
        )
        assert report.digests_stable, "repeat run diverged from the first digest"
        assert report.oracle_rounds_checked >= 2
        assert not report.oracle_disagreements, "\n".join(report.oracle_disagreements)
        assert report.ok

    def test_flashcrowd_soak_at_10k_boxes(self):
        report = run_soak(
            soak_spec(boxes=10_000, profile="flashcrowd_spike", horizon=200),
            num_rounds=200,
            seed=11,
            repeats=1,
            memory_budget_bytes_per_round=512 * 1024,
            memory_probe="rss",
        )
        assert report.memory_ok
        assert report.digests_stable
        assert report.ok

    def test_tracemalloc_watermarks_are_bounded_at_2k_boxes(self):
        report = run_soak(
            soak_spec(boxes=2_000, profile="churn_storm", horizon=150),
            num_rounds=150,
            seed=7,
            repeats=0,
            memory_budget_bytes_per_round=128 * 1024,
            memory_probe="tracemalloc",
        )
        assert report.memory_ok, report.memory_watermarks
        # Watermarks were actually sampled across the run.
        assert len(report.memory_watermarks) >= 5

    def test_soak_memory_check_catches_unbounded_growth(self):
        # A full event trace allocates per-request records every round —
        # exactly the regression the tracemalloc watermark check exists
        # to catch, so it must fail under a tight budget.
        import dataclasses

        leaky = dataclasses.replace(
            soak_spec(boxes=2_000, profile="steady", horizon=80),
            trace_level="full",
            name="soak_leaky",
        )
        report = run_soak(
            leaky,
            num_rounds=80,
            seed=4,
            repeats=0,
            memory_budget_bytes_per_round=4 * 1024,
            memory_probe="tracemalloc",
        )
        assert not report.memory_ok
        assert not report.ok

    def test_soak_profiles_validated(self):
        with pytest.raises(ValueError, match="profile"):
            soak_spec(profile="meteor_strike")

    def test_negative_oracle_every_rejected(self):
        # A negative period used to turn the oracle off and still report OK.
        with pytest.raises(ValueError, match="oracle_every"):
            run_soak(
                soak_spec(boxes=1_000, profile="steady", horizon=20),
                num_rounds=20,
                seed=3,
                oracle_every=-3,
                memory_probe="rss",
            )

    def test_memory_probe_validated(self):
        with pytest.raises(ValueError, match="memory_probe"):
            run_soak(
                soak_spec(boxes=1_000, profile="steady", horizon=10),
                num_rounds=2,
                memory_probe="crystal_ball",
            )

    def test_soak_report_describe_mentions_all_checks(self):
        report = run_soak(
            soak_spec(boxes=1_000, profile="steady", horizon=40),
            num_rounds=40,
            seed=1,
            repeats=1,
            memory_probe="rss",
        )
        text = report.describe()
        for needle in ("memory", "digest stability", "oracle"):
            assert needle in text


class TestSoakCli:
    def test_soak_command_passes_on_small_run(self, capsys):
        from repro.scenarios.cli import main

        code = main(
            [
                "soak",
                "--boxes", "1000",
                "--rounds", "50",
                "--profile", "steady",
                "--seed", "3",
                "--oracle-every", "25",
                "--memory-probe", "rss",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "memory" in out and "OK" in out

    def test_soak_command_rejects_negative_oracle_every(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.scenarios", "soak",
                "--boxes", "1000",
                "--rounds", "20",
                "--profile", "steady",
                "--seed", "3",
                "--oracle-every", "-3",
                "--memory-probe", "rss",
            ],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                "PATH": "/usr/bin:/bin",
            },
        )
        assert proc.returncode != 0, proc.stdout
        assert "oracle_every" in proc.stderr
        assert "-> OK" not in proc.stdout

    def test_soak_command_fails_on_memory_regression(self, capsys):
        from repro.scenarios.cli import main

        # An absurdly tight budget must flip the exit code.
        code = main(
            [
                "soak",
                "--boxes", "1000",
                "--rounds", "50",
                "--profile", "steady",
                "--seed", "3",
                "--memory-budget-kib", "0.001",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
