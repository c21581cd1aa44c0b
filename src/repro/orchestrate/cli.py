"""``python -m repro.orchestrate`` — the campaign command line.

Subcommands::

    list                         registered campaigns + store coverage
    run NAME...                  execute missing cells (incremental)
    resume NAME...               alias of run; --expect-complete asserts
                                 the store already held every cell
    report [NAME...]             render Markdown reports + the claim map
    diff [NAME...]               fail if committed reports are stale
    verify                       checksum-sweep the store's object records
    repair                       delete damaged records (resume re-runs them)

The store location defaults to ``results/store`` (override with
``--store``), reports to ``docs/results`` (override with ``--out``);
both paths are relative to the current directory, which for the checked
-in artifacts is the repository root.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.report import render_table
from repro.orchestrate.campaigns import all_campaigns, get_campaign
from repro.orchestrate.report import diff_reports, generate_reports
from repro.orchestrate.runner import run_campaign
from repro.orchestrate.spec import CampaignSpec
from repro.orchestrate.store import ResultsStore

__all__ = ["main"]

DEFAULT_STORE = "results/store"
DEFAULT_OUT = "docs/results"


class _CliError(Exception):
    """A user-input problem the CLI reports as exit code 2."""


def _select(
    names: Sequence[str], run_all: bool, default_all: bool = False
) -> List[CampaignSpec]:
    if run_all:
        return all_campaigns()
    if not names:
        if default_all:
            return all_campaigns()
        raise _CliError("no campaigns named (pass names or --all)")
    try:
        return [get_campaign(name) for name in names]
    except KeyError as exc:
        raise _CliError(str(exc.args[0])) from None


def _cmd_list(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store)
    rows = []
    for campaign in all_campaigns():
        keys = campaign.cell_keys()
        stored = sum(1 for key in keys if store.has(key))
        rows.append(
            {
                "campaign": campaign.name,
                "runner": campaign.runner,
                "cells": len(keys),
                "stored": stored,
                "migrates": campaign.benchmark or "-",
                "description": campaign.description,
            }
        )
    print(render_table(rows, title=f"registered campaigns (store: {args.store})"))
    return 0


def _cmd_run(args: argparse.Namespace, resume: bool = False) -> int:
    store = ResultsStore(args.store)
    campaigns = _select(args.campaigns, args.all)
    exit_code = 0
    for campaign in campaigns:
        report = run_campaign(
            campaign,
            store,
            force=getattr(args, "force", False),
            max_cells=getattr(args, "max_cells", None),
            progress=print,
        )
        print(report.describe())
        if not report.complete:
            exit_code = 1
        if resume and args.expect_complete and report.executed:
            print(
                f"{campaign.name}: expected a completed campaign but "
                f"{len(report.executed)} cells had to be executed",
                file=sys.stderr,
            )
            exit_code = 1
    return exit_code


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store)
    campaigns = _select(args.campaigns, run_all=False, default_all=True)
    for path in generate_reports(campaigns, store, args.out):
        print(f"wrote {path}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store)
    campaigns = _select(args.campaigns, run_all=False, default_all=True)
    diffs = diff_reports(campaigns, store, args.out)
    if not diffs:
        print(f"reports under {args.out} match the store ({args.store})")
        return 0
    for diff in diffs:
        print(diff)
    print(
        f"{len(diffs)} report(s) stale — regenerate with "
        "`python -m repro.orchestrate report`",
        file=sys.stderr,
    )
    return 1


def _cmd_verify(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store)
    damage = store.verify()
    if not damage:
        print(f"store {args.store} OK: {len(store)} records verified")
        return 0
    for item in damage:
        print(f"DAMAGED {item.key[:12]} {item.reason} ({item.path})", file=sys.stderr)
    print(
        f"{len(damage)} damaged record(s) — remove them with "
        "`python -m repro.orchestrate repair`, then `resume` the campaigns",
        file=sys.stderr,
    )
    return 1


def _cmd_repair(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store)
    removed = store.repair()
    if not removed:
        print(f"store {args.store} OK: nothing to repair")
        return 0
    for key in removed:
        print(f"removed damaged record {key[:12]}")
    print(
        f"removed {len(removed)} damaged record(s); "
        "`resume` re-executes exactly those cells"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.orchestrate``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrate",
        description="resumable experiment campaigns over a content-addressed results store",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store_argument(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store",
            default=DEFAULT_STORE,
            help=f"results store root (default {DEFAULT_STORE})",
        )

    add_store_argument(sub.add_parser("list", help="registered campaigns and their store coverage"))

    def add_run_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("campaigns", nargs="*", metavar="CAMPAIGN")
        p.add_argument("--all", action="store_true", help="every registered campaign")
        add_store_argument(p)

    p_run = sub.add_parser("run", help="execute a campaign's missing cells")
    add_run_arguments(p_run)
    p_run.add_argument(
        "--force", action="store_true", help="re-execute cells already in the store"
    )
    p_run.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="execute at most N pending cells (smoke / kill-resume testing)",
    )

    p_resume = sub.add_parser(
        "resume", help="finish an interrupted campaign (re-executes only missing cells)"
    )
    add_run_arguments(p_resume)
    p_resume.add_argument(
        "--expect-complete",
        action="store_true",
        help="fail if any cell had to be executed (CI resume-is-a-no-op check)",
    )

    p_report = sub.add_parser("report", help="render Markdown reports + the claim map")
    p_report.add_argument("campaigns", nargs="*", metavar="CAMPAIGN")
    p_report.add_argument(
        "--out", default=DEFAULT_OUT, help=f"output directory (default {DEFAULT_OUT})"
    )
    add_store_argument(p_report)

    p_diff = sub.add_parser("diff", help="compare committed reports against the store")
    p_diff.add_argument("campaigns", nargs="*", metavar="CAMPAIGN")
    p_diff.add_argument(
        "--out", default=DEFAULT_OUT, help=f"report directory (default {DEFAULT_OUT})"
    )
    add_store_argument(p_diff)

    add_store_argument(
        sub.add_parser("verify", help="checksum-sweep every record in the store")
    )
    add_store_argument(
        sub.add_parser("repair", help="delete damaged records so resume re-runs them")
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "resume":
            return _cmd_run(args, resume=True)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "repair":
            return _cmd_repair(args)
    except _CliError as exc:
        # Only user-input problems (unknown names, empty selection) land
        # here; failures inside runner code propagate with full tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Cells persist as they finish, so an interrupted campaign's
        # store is intact and `resume` picks up the gap — say so instead
        # of dumping a traceback over the progress output.
        print(
            "\ninterrupted — completed cells are stored; "
            "rerun with `resume` to finish",
            file=sys.stderr,
        )
        return 130
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
