"""Deterministic replay and CLI tests.

The acceptance bar: ``python -m repro.scenarios run <name> --seed S``
replays bit-identically (same metric digest) across two invocations for
every registered scenario.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios.cli import main
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.replay import run_scenario, write_golden

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


# The scale tiers (10k-500k boxes) replay deterministically too, but at
# full horizon they belong to tests/test_scale_stress.py — the parametrized
# sweeps below stick to the fast regression scenarios.
REGRESSION_SCENARIOS = [
    name for name in scenario_names() if not name.startswith("scale_tier")
]


class TestReplayDeterminism:
    @pytest.mark.parametrize("name", REGRESSION_SCENARIOS)
    def test_full_horizon_replay_is_bit_identical(self, name):
        first = run_scenario(name, seed=97)
        second = run_scenario(name, seed=97)
        assert first.digest == second.digest
        assert first.round_records == second.round_records
        assert first.summary == second.summary

    def test_different_seeds_change_the_digest(self):
        assert (
            run_scenario("steady_state", seed=1).digest
            != run_scenario("steady_state", seed=2).digest
        )

    def test_solver_choice_is_part_of_the_digest(self):
        spec = get_scenario("steady_state")
        hk = run_scenario(spec, seed=3, num_rounds=5)
        dinic = run_scenario(spec.with_overrides(solver="dinic"), seed=3, num_rounds=5)
        # Identical metric trajectories in a feasible regime, but the digest
        # pins the solver so traces from different kernels never collide.
        assert hk.digest != dinic.digest
        assert [r["matched"] for r in hk.round_records] == [
            r["matched"] for r in dinic.round_records
        ]

    def test_round_records_are_plain_ints(self):
        run = run_scenario("steady_state", seed=5, num_rounds=4)
        for record in run.round_records:
            for key, value in record.items():
                assert type(value) is int, (key, type(value))

    def test_churn_covers_rounds_beyond_the_spec_horizon(self):
        from repro.scenarios.build import build_scenario

        spec = get_scenario("churn_storm")
        long = build_scenario(spec, seed=4, min_horizon=2 * spec.horizon)
        assert any(o.start >= spec.horizon for o in long.churn.outages)
        # The churn draw is prefix-stable: extending the horizon never
        # rewrites the earlier rounds, so short-run digests are unchanged.
        short = build_scenario(spec, seed=4)
        assert [
            o for o in long.churn.outages if o.start < spec.horizon
        ] == list(short.churn.outages)

    def test_extended_churn_run_replays_bit_identically(self):
        rounds = 40  # beyond churn_storm's 24-round spec horizon
        first = run_scenario("churn_storm", seed=9, num_rounds=rounds)
        second = run_scenario("churn_storm", seed=9, num_rounds=rounds)
        assert first.digest == second.digest


class TestCli:
    def _run_cli(self, capsys, *argv) -> str:
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0, out
        return out

    def _digest_of(self, output: str) -> str:
        for line in output.splitlines():
            if line.startswith("digest"):
                return line.split(":", 1)[1].strip()
        raise AssertionError(f"no digest line in {output!r}")

    def test_list_shows_every_scenario(self, capsys):
        out = self._run_cli(capsys, "list")
        for name in scenario_names():
            assert name in out

    def test_run_twice_prints_identical_digest(self, capsys):
        first = self._digest_of(
            self._run_cli(capsys, "run", "flashcrowd_spike", "--seed", "21")
        )
        second = self._digest_of(
            self._run_cli(capsys, "run", "flashcrowd_spike", "--seed", "21")
        )
        assert first == second

    def test_run_json_output_roundtrips(self, capsys):
        out = self._run_cli(
            capsys, "run", "steady_state", "--seed", "4", "--rounds", "3", "--json"
        )
        payload = json.loads(out)
        assert payload["scenario"] == "steady_state"
        assert payload["rounds"] == 3
        assert len(payload["round_records"]) == 3

    def test_write_golden_then_verify(self, capsys, tmp_path):
        golden = tmp_path / "g.json"
        self._run_cli(
            capsys, "run", "steady_state", "--seed", "8", "--rounds", "5",
            "--write-golden", str(golden),
        )
        out = self._run_cli(capsys, "verify", str(golden))
        assert out.startswith("OK:")

    def test_verify_accepts_goldens_recorded_with_overrides(self, capsys, tmp_path):
        golden = tmp_path / "dinic.json"
        self._run_cli(
            capsys, "run", "steady_state", "--seed", "8", "--rounds", "5",
            "--solver", "dinic", "--write-golden", str(golden),
        )
        out = self._run_cli(capsys, "verify", str(golden))
        assert out.startswith("OK:")

    def test_verify_fails_on_tampered_golden(self, capsys, tmp_path):
        golden = tmp_path / "g.json"
        run = run_scenario("steady_state", seed=8, num_rounds=5)
        write_golden(run, golden)
        data = json.loads(golden.read_text())
        data["round_records"][0]["matched"] += 1
        golden.write_text(json.dumps(data))
        assert main(["verify", str(golden)]) == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_oracle_command(self, capsys):
        out = self._run_cli(
            capsys, "oracle", "flashcrowd_spike", "--seed", "6", "--rounds", "6"
        )
        assert "OK" in out

    def test_smoke_command_covers_all_scenarios(self, capsys):
        out = self._run_cli(capsys, "smoke", "--rounds", "3")
        for name in scenario_names():
            assert name in out

    def test_session_command_checkpoint_and_batch_parity(self, capsys):
        out = self._run_cli(
            capsys,
            "session", "steady_state", "--seed", "5", "--rounds", "6",
            "--checkpoint-at", "3",
        )
        assert "checkpoint/restore parity: OK" in out
        assert "batch parity: OK" in out
        assert "digest" in out

    def test_session_command_json_output_is_pure_json(self, capsys):
        import json as json_module

        code = main(
            ["session", "flashcrowd_spike", "--seed", "5", "--rounds", "4", "--json"]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.out
        # stdout parses as-is; parity status lines go to stderr.
        reports = json_module.loads(captured.out)
        assert len(reports) == 4
        assert all("matched" in record for record in reports)
        assert "batch parity: OK" in captured.err

    def test_session_command_solver_override(self, capsys):
        out = self._run_cli(
            capsys,
            "session", "steady_state", "--seed", "5", "--rounds", "4",
            "--solver", "dinic",
        )
        assert "batch parity: OK" in out

    def test_session_command_rejects_bad_checkpoint(self, capsys):
        code = main(
            ["session", "steady_state", "--rounds", "4", "--checkpoint-at", "9"]
        )
        assert code == 2

    def test_session_command_rejects_non_positive_rounds(self, capsys):
        assert main(["session", "steady_state", "--rounds", "0"]) == 2
        assert main(["session", "steady_state", "--rounds", "-3"]) == 2
        err = capsys.readouterr().err
        assert "--rounds must be positive" in err

    def test_cold_start_and_solver_overrides(self, capsys):
        default = self._digest_of(
            self._run_cli(capsys, "run", "steady_state", "--seed", "9", "--rounds", "4")
        )
        dinic = self._digest_of(
            self._run_cli(
                capsys, "run", "steady_state", "--seed", "9", "--rounds", "4",
                "--solver", "dinic",
            )
        )
        # The solver is part of the digest payload.
        assert default != dinic


class TestModuleInvocation:
    def test_python_dash_m_replays_bit_identically(self):
        """The literal acceptance criterion, through the real entry point."""
        cmd = [
            sys.executable, "-m", "repro.scenarios",
            "run", "steady_state", "--seed", "123", "--rounds", "4",
        ]
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                cmd, capture_output=True, text=True,
                env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert "digest" in outputs[0]
