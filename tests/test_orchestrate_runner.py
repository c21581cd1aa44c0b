"""Campaign execution: incremental runs, resume, kill-recovery, stored bytes."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.registry import register_component
from repro.orchestrate import get_campaign
from repro.orchestrate.runner import (
    CellExecutionError,
    execute_cell,
    execute_campaign_rows,
    run_campaign,
)
from repro.orchestrate.spec import CampaignSpec
from repro.orchestrate.store import ResultsStore

COMMITTED_STORE = Path(__file__).resolve().parents[1] / "results" / "store"

# A trivially cheap deterministic runner for machinery tests.
register_component(
    "experiment",
    "unit_echo",
    lambda params: [{"x": params["x"], "y": params["x"] * 2}],
    "test helper: echoes its parameter",
    overwrite=True,
)

ECHO = CampaignSpec(
    name="unit_echo_sweep",
    description="echo sweep",
    runner="unit_echo",
    grid={"x": (1, 2, 3, 4)},
)


@pytest.fixture
def store(tmp_path):
    return ResultsStore(tmp_path / "store")


class TestExecuteCell:
    def test_returns_rows(self):
        assert execute_cell("unit_echo", {"x": 3}) == [{"x": 3, "y": 6}]

    def test_single_mapping_wrapped(self):
        register_component(
            "experiment", "unit_one", lambda p: {"v": 1}, overwrite=True
        )
        assert execute_cell("unit_one", {}) == [{"v": 1}]

    def test_bad_return_type_rejected(self):
        register_component(
            "experiment", "unit_bad", lambda p: 42, overwrite=True
        )
        with pytest.raises(CellExecutionError, match="row dict"):
            execute_cell("unit_bad", {})


class TestRunCampaign:
    def test_first_run_executes_everything(self, store):
        report = run_campaign(ECHO, store, progress=lambda m: None)
        assert report.complete
        assert len(report.executed) == 4
        assert report.reused == []
        assert sorted(report.executed) == store.keys()
        assert store.read_campaign_index("unit_echo_sweep")["cells"] == report.cell_keys

    def test_second_run_is_a_no_op(self, store):
        run_campaign(ECHO, store)
        report = run_campaign(ECHO, store)
        assert report.complete
        assert report.executed == []
        assert len(report.reused) == 4

    def test_force_re_executes(self, store):
        run_campaign(ECHO, store)
        report = run_campaign(ECHO, store, force=True)
        assert len(report.executed) == 4

    def test_max_cells_leaves_campaign_incomplete_then_resume_finishes(self, store):
        first = run_campaign(ECHO, store, max_cells=2)
        assert not first.complete
        assert len(first.executed) == 2
        resumed = run_campaign(ECHO, store)
        assert resumed.complete
        # The two completed cells are reused, never re-executed.
        assert set(resumed.reused) == set(first.executed)
        assert set(resumed.executed) == set(first.cell_keys) - set(first.executed)

    def test_rows_follow_sweep_order(self, store):
        run_campaign(ECHO, store)
        from repro.orchestrate.report import campaign_rows

        assert [r["x"] for r in campaign_rows(ECHO, store)] == [1, 2, 3, 4]

    def test_execute_campaign_rows_matches_store_rows(self, store):
        run_campaign(ECHO, store)
        from repro.orchestrate.report import campaign_rows

        assert execute_campaign_rows(ECHO) == campaign_rows(ECHO, store)

    def test_params_mutating_runner_does_not_corrupt_cell_keys(self, store):
        """Runners get a copy: in-place normalization must not move the key."""
        register_component(
            "experiment",
            "unit_mutator",
            lambda p: [{"v": p.setdefault("pad", 1)}],
            overwrite=True,
        )
        spec = CampaignSpec(
            name="unit_mutator_sweep",
            description="",
            runner="unit_mutator",
            grid={"x": (1, 2)},
        )
        report = run_campaign(spec, store)
        assert set(report.executed) == set(spec.cell_keys())
        assert run_campaign(spec, store).executed == []  # still addressed

    def test_failing_cell_is_named_and_resume_runs_only_the_rest(self, store):
        """A runner's error propagates as-is; progress names the cell."""

        class RunnerBug(Exception):
            pass

        def fails_at_three(params):
            if params["x"] == 3:
                raise RunnerBug("x == 3")
            return [{"x": params["x"]}]

        register_component("experiment", "unit_flaky", fails_at_three, overwrite=True)
        spec = CampaignSpec(
            name="unit_flaky_sweep",
            description="",
            runner="unit_flaky",
            grid={"x": (1, 2, 3, 4)},
        )
        keys = spec.cell_keys()
        lines = []
        with pytest.raises(RunnerBug) as raised:
            run_campaign(spec, store, progress=lines.append)
        assert type(raised.value) is RunnerBug
        assert store.keys() == sorted(keys[:2])
        assert lines[-1] == f'  FAILED {keys[2][:12]} {{"x":3}}'

        register_component(
            "experiment", "unit_flaky", lambda p: [{"x": p["x"]}], overwrite=True
        )
        resumed = run_campaign(spec, store)
        assert resumed.executed == keys[2:]
        assert resumed.reused == keys[:2]


class TestCrossProcess:
    def run_cli(self, args, cwd=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src") + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd
        )

    def test_fresh_run_matches_the_committed_store(self, tmp_path):
        """A fresh run reproduces the records an earlier build committed."""
        campaign = get_campaign("threshold_formulas")
        fresh = ResultsStore(tmp_path / "fresh")
        committed = ResultsStore(COMMITTED_STORE)
        run_campaign(campaign, fresh)
        assert fresh.keys() == sorted(campaign.cell_keys())
        for key in fresh.keys():
            assert (
                fresh._object_path(key).read_bytes()
                == committed._object_path(key).read_bytes()
            )

    def test_resume_after_sigkill_mid_campaign(self, tmp_path):
        """A campaign killed between cells resumes with zero re-execution."""
        store_path = tmp_path / "store"
        script = (
            "import os, signal, sys\n"
            "from repro.orchestrate import get_campaign\n"
            "from repro.orchestrate.runner import run_campaign\n"
            "from repro.orchestrate.store import ResultsStore\n"
            "count = 0\n"
            "def progress(message):\n"
            "    global count\n"
            "    count += 1\n"
            "    if count == 2:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "run_campaign(get_campaign('threshold_formulas'),\n"
            f"             ResultsStore({str(store_path)!r}), progress=progress)\n"
        )
        out = self.run_cli(["-c", script])
        assert out.returncode == -signal.SIGKILL

        campaign = get_campaign("threshold_formulas")
        store = ResultsStore(store_path)
        survivors = store.keys()
        # Exactly the two cells persisted before the kill, none torn.
        assert len(survivors) == 2
        for key in survivors:
            assert store.get(key)["runner"] == "threshold_design"

        resumed = run_campaign(campaign, store)
        assert resumed.complete
        assert set(resumed.reused) == set(survivors)
        assert len(resumed.executed) == len(campaign.cell_keys()) - 2

        # A further resume is a pure no-op (the ISSUE acceptance property).
        again = run_campaign(campaign, store)
        assert again.executed == []
        assert len(again.reused) == len(campaign.cell_keys())
