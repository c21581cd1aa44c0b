"""The ``python -m repro.orchestrate`` CLI and the report generator."""

from __future__ import annotations

import pytest

from repro.orchestrate import get_campaign
from repro.orchestrate.cli import main
from repro.orchestrate.report import (
    diff_reports,
    generate_reports,
    render_campaign_report,
    render_claim_map,
)
from repro.orchestrate.runner import run_campaign
from repro.orchestrate.store import ResultsStore

CAMPAIGN = "threshold_formulas"  # analytic: instant cells


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "store")


class TestCli:
    def test_list(self, store_path, capsys):
        assert main(["list", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert CAMPAIGN in out
        assert "baseline_comparison" in out

    def test_run_then_resume_expect_complete(self, store_path, capsys):
        assert main(["run", CAMPAIGN, "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "6 executed, 0 reused (complete)" in out
        assert (
            main(["resume", CAMPAIGN, "--store", store_path, "--expect-complete"]) == 0
        )
        out = capsys.readouterr().out
        assert "0 executed, 6 reused (complete)" in out

    def test_resume_expect_complete_fails_on_cold_store(self, store_path, capsys):
        code = main(["resume", CAMPAIGN, "--store", store_path, "--expect-complete"])
        assert code == 1
        assert "had to be executed" in capsys.readouterr().err

    def test_run_max_cells_reports_incomplete(self, store_path, capsys):
        code = main(["run", CAMPAIGN, "--store", store_path, "--max-cells", "2"])
        assert code == 1
        assert "INCOMPLETE" in capsys.readouterr().out

    def test_unknown_campaign_is_a_clean_error(self, store_path, capsys):
        assert main(["run", "no_such_campaign", "--store", store_path]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_run_without_names_is_an_error(self, store_path, capsys):
        assert main(["run", "--store", store_path]) == 2
        assert "no campaigns named" in capsys.readouterr().err

    def test_subset_diff_does_not_false_stale_the_full_claim_map(
        self, store_path, tmp_path, capsys
    ):
        """`diff NAME` compares NAME's page but the registry-wide index."""
        out_dir = str(tmp_path / "docs")
        assert main(["run", CAMPAIGN, "--store", store_path]) == 0
        assert main(["report", "--store", store_path, "--out", out_dir]) == 0
        capsys.readouterr()
        assert main(["diff", CAMPAIGN, "--store", store_path, "--out", out_dir]) == 0

    def test_report_and_diff(self, store_path, tmp_path, capsys):
        out_dir = str(tmp_path / "docs")
        assert main(["run", CAMPAIGN, "--store", store_path]) == 0
        assert (
            main(["report", CAMPAIGN, "--store", store_path, "--out", out_dir]) == 0
        )
        capsys.readouterr()
        assert (
            main(["diff", CAMPAIGN, "--store", store_path, "--out", out_dir]) == 0
        )
        # Stale a file; diff must fail and show it.
        (tmp_path / "docs" / f"{CAMPAIGN}.md").write_text("stale", encoding="utf-8")
        capsys.readouterr()
        assert (
            main(["diff", CAMPAIGN, "--store", store_path, "--out", out_dir]) == 1
        )
        captured = capsys.readouterr()
        assert "stale" in captured.err

    def test_keyboard_interrupt_exits_130_with_resume_hint(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.orchestrate import cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_campaign", interrupted)
        code = cli.main(["run", "threshold_formulas", "--store", str(tmp_path)])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "resume" in err


class TestReport:
    def test_report_is_byte_stable(self, store_path, tmp_path):
        campaign = get_campaign(CAMPAIGN)
        store = ResultsStore(store_path)
        run_campaign(campaign, store)
        first = render_campaign_report(campaign, store)
        assert first == render_campaign_report(campaign, store)
        out_dir = tmp_path / "docs"
        generate_reports([campaign], store, out_dir)
        assert (out_dir / f"{CAMPAIGN}.md").read_text(encoding="utf-8") == first
        assert diff_reports([campaign], store, out_dir) == []

    def test_incomplete_campaign_marks_missing_cells(self, store_path):
        campaign = get_campaign(CAMPAIGN)
        store = ResultsStore(store_path)
        run_campaign(campaign, store, max_cells=2)
        text = render_campaign_report(campaign, store)
        assert "INCOMPLETE" in text
        assert "MISSING" in text

    def test_claim_map_lists_campaign_and_keys(self, store_path):
        campaign = get_campaign(CAMPAIGN)
        store = ResultsStore(store_path)
        run_campaign(campaign, store)
        text = render_claim_map([campaign], store)
        assert f"[`{CAMPAIGN}`]({CAMPAIGN}.md)" in text
        assert campaign.cell_keys()[0][:8] in text
        assert "6/6" in text

    def test_diff_detects_missing_file(self, store_path, tmp_path):
        campaign = get_campaign(CAMPAIGN)
        store = ResultsStore(store_path)
        run_campaign(campaign, store)
        diffs = diff_reports([campaign], store, tmp_path / "empty")
        assert len(diffs) == 2  # campaign page + claim map
