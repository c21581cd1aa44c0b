"""Command-line interface: ``python -m repro.scenarios <command>``.

Commands
--------
``list``
    Table of registered scenarios with the paper claim each one stresses.
``run NAME``
    Build + run a scenario and print its digest and summary; optionally
    record a golden trace.
``verify PATH``
    Replay a golden-trace file and diff it (exit code 1 on divergence).
``oracle NAME``
    Differentially re-solve sampled rounds with SciPy's max flow and check
    the Hall witnesses exactly (exit code 1 on any disagreement).
``session NAME``
    Step a scenario round by round through the :mod:`repro.api` session
    layer, checkpoint mid-run, restore, and verify that the restored
    continuation and the batch ``run()`` agree bit for bit (exit code 1
    on divergence).
``soak``
    Long-horizon stress run at scale (10k+ boxes): digest stability over
    repeated runs, tracemalloc memory-growth watermarks, and differential
    solver spot-checks every K-th round (exit code 1 on any failure).
``smoke``
    Run every registered scenario for a few rounds — the CI canary.
    Each scenario runs twice, as built and as its full-solve twin (the
    incremental repair state dropped after every round), and the
    per-round records must agree bit for bit.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.core.matching import MATCHING_SOLVERS
from repro.scenarios.build import build_full_solve_twin
from repro.scenarios.oracle import run_differential_oracle
from repro.scenarios.registry import all_scenarios, get_scenario, scenario_names
from repro.scenarios.replay import (
    diff_golden,
    digest_result,
    load_golden,
    run_scenario,
    verify_golden_file,
    write_golden,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Named, reproducible end-to-end scenarios for the VoD repro.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios")

    run_p = sub.add_parser("run", help="run a scenario and print its digest")
    run_p.add_argument("name", help="registered scenario name")
    run_p.add_argument("--seed", type=int, default=None, help="master seed")
    run_p.add_argument("--rounds", type=int, default=None, help="override horizon")
    run_p.add_argument(
        "--solver",
        default=None,
        choices=MATCHING_SOLVERS,
        help="override the matching kernel",
    )
    run_p.add_argument(
        "--write-golden", metavar="PATH", default=None, help="record a golden trace"
    )
    run_p.add_argument(
        "--json", action="store_true", help="emit the full digest payload as JSON"
    )

    verify_p = sub.add_parser("verify", help="replay and diff a golden trace")
    verify_p.add_argument("golden", help="path to the golden-trace JSON file")
    verify_p.add_argument(
        "--embedded-spec",
        action="store_true",
        help="replay from the spec embedded in the file instead of the registry",
    )

    oracle_p = sub.add_parser("oracle", help="differential solver cross-check")
    oracle_p.add_argument("name", help="registered scenario name")
    oracle_p.add_argument("--seed", type=int, default=None)
    oracle_p.add_argument("--rounds", type=int, default=None)
    oracle_p.add_argument(
        "--sample-every", type=int, default=1, help="check every k-th round"
    )

    session_p = sub.add_parser(
        "session", help="step a scenario through the repro.api session layer"
    )
    session_p.add_argument("name", help="registered scenario name")
    session_p.add_argument("--seed", type=int, default=None, help="master seed")
    session_p.add_argument("--rounds", type=int, default=None, help="override horizon")
    session_p.add_argument(
        "--solver",
        default=None,
        choices=MATCHING_SOLVERS,
        help="override the matching kernel",
    )
    session_p.add_argument(
        "--checkpoint-at",
        type=int,
        default=None,
        metavar="ROUND",
        help="snapshot after this many rounds (default: mid-run), then restore "
        "and verify the continuation replays bit-identically",
    )
    session_p.add_argument(
        "--json", action="store_true", help="emit the per-round reports as JSON"
    )

    soak_p = sub.add_parser(
        "soak", help="long-horizon stress run with memory/digest/oracle checks"
    )
    soak_p.add_argument(
        "--boxes", type=int, default=10_000, help="population size (default 10k)"
    )
    soak_p.add_argument(
        "--profile",
        default="churn_storm",
        choices=["steady", "churn_storm", "flashcrowd_spike"],
        help="stress profile layered on the scale-tier regime",
    )
    soak_p.add_argument(
        "--rounds", type=int, default=500, help="horizon (default 500)"
    )
    soak_p.add_argument("--seed", type=int, default=None, help="master seed")
    soak_p.add_argument(
        "--oracle-every",
        type=int,
        default=0,
        metavar="K",
        help="differentially re-solve every K-th round (0 = off)",
    )
    soak_p.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="extra runs that must reproduce the digest bit for bit",
    )
    soak_p.add_argument(
        "--memory-budget-kib",
        type=float,
        default=256.0,
        help="allowed post-warmup heap growth per round, in KiB",
    )
    soak_p.add_argument(
        "--memory-probe",
        default="tracemalloc",
        choices=["tracemalloc", "rss"],
        help="heap probe: exact Python-allocation tracing (slows rounds "
        "~20x) or full-speed resident-set sampling",
    )
    smoke_p = sub.add_parser("smoke", help="run every scenario briefly")
    smoke_p.add_argument("names", nargs="*", help="subset of scenarios (default: all)")
    smoke_p.add_argument("--rounds", type=int, default=3)
    smoke_p.add_argument("--seed", type=int, default=None)
    return parser


def _cmd_list() -> int:
    width = max(len(name) for name in scenario_names())
    for spec in all_scenarios():
        print(f"{spec.name:<{width}}  {spec.description}")
        claim = spec.paper_claim or "(no paper claim recorded)"
        print(f"{'':<{width}}  ↳ {claim}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = get_scenario(args.name).with_overrides(solver=args.solver)
    run = run_scenario(spec, seed=args.seed, num_rounds=args.rounds)
    if args.json:
        print(json.dumps(run.to_golden_dict(), indent=2, sort_keys=True))
    else:
        print(f"scenario : {run.spec.name}")
        print(f"seed     : {run.seed}")
        print(f"rounds   : {run.rounds}")
        print(f"digest   : {run.digest}")
        for key, value in run.summary.items():
            print(f"  {key} = {value}")
    if args.write_golden:
        path = write_golden(run, args.write_golden)
        print(f"golden trace written to {path}", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    run, diffs = verify_golden_file(args.golden, use_registry=not args.embedded_spec)
    if not diffs:
        print(f"OK: {run.spec.name} seed={run.seed} replays bit-identically "
              f"({run.digest})")
        return 0
    print(f"DIVERGED: {run.spec.name} seed={run.seed}")
    for diff in diffs:
        print(f"  - {diff}")
    return 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    report = run_differential_oracle(
        args.name,
        seed=args.seed,
        num_rounds=args.rounds,
        sample_every=args.sample_every,
    )
    print(report.describe())
    for disagreement in report.disagreements:
        print(f"  - {disagreement}")
    return 0 if report.ok else 1


def _cmd_session(args: argparse.Namespace) -> int:
    from repro.api import VodSession
    from repro.scenarios.build import build_scenario

    spec = get_scenario(args.name).with_overrides(solver=args.solver)
    rounds = spec.horizon if args.rounds is None else int(args.rounds)
    if rounds <= 0:
        print(f"--rounds must be positive, got {rounds}", file=sys.stderr)
        return 2
    checkpoint_at = args.checkpoint_at
    if checkpoint_at is None:
        checkpoint_at = rounds // 2
    if not 0 <= checkpoint_at <= rounds:
        print(f"--checkpoint-at must be in [0, {rounds}]", file=sys.stderr)
        return 2

    compiled = build_scenario(spec, seed=args.seed, min_horizon=rounds)
    session = compiled.session(horizon=rounds)

    reports = list(session.step_until(round=checkpoint_at))
    snapshot = session.snapshot()
    reports += list(session.step_until(round=rounds))

    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
    else:
        print(f"scenario : {spec.name}")
        print(f"seed     : {compiled.seed}")
        print(f"rounds   : {rounds}  (checkpoint at {checkpoint_at})")
        for report in reports:
            flag = "ok " if report.feasible else "OBS"
            print(
                f"  t={report.time:<3d} {flag} active={report.active_requests:<4d} "
                f"matched={report.matched:<4d} unmatched={report.unmatched:<3d} "
                f"util={report.utilization:.3f}"
            )
        print(f"digest   : {session.digest()}")

    failures = 0
    # With --json, stdout is exactly the report array; status goes to stderr.
    status_stream = sys.stderr if args.json else sys.stdout

    # Restore the mid-run checkpoint and replay the tail.
    restored = VodSession.restore(snapshot)
    restored.step_until(round=rounds)
    if restored.digest() == session.digest():
        print(
            f"checkpoint/restore parity: OK (round {checkpoint_at})",
            file=status_stream,
        )
    else:
        print("checkpoint/restore parity: DIVERGED", file=status_stream)
        failures += 1

    # The stepwise rounds must equal a fresh batch run of the same build.
    batch = build_scenario(spec, seed=args.seed, min_horizon=rounds).run(rounds)
    batch_rounds = [stats.to_dict() for stats in batch.metrics.round_stats]
    session_rounds = [r.to_round_stats().to_dict() for r in reports]
    if session_rounds == batch_rounds:
        print("batch parity: OK", file=status_stream)
    else:
        print("batch parity: DIVERGED", file=status_stream)
        failures += 1
    return 1 if failures else 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.scenarios.scale import run_soak, soak_spec

    spec = soak_spec(
        boxes=args.boxes, profile=args.profile, horizon=args.rounds
    )
    print(f"soak: {spec.name}, {args.rounds} rounds")
    report = run_soak(
        spec,
        num_rounds=args.rounds,
        seed=args.seed,
        oracle_every=args.oracle_every,
        repeats=args.repeat,
        memory_budget_bytes_per_round=args.memory_budget_kib * 1024,
        memory_probe=args.memory_probe,
        progress=print,
    )
    print(report.describe())
    for disagreement in report.oracle_disagreements:
        print(f"  - {disagreement}")
    return 0 if report.ok else 1


def _cmd_smoke(args: argparse.Namespace) -> int:
    # Unknown names are a usage error (exit 2), expected run failures
    # (bad specs, infeasible builds — ValueError/ApiError) are counted
    # and reported (exit 1), and anything else is a programming error
    # whose traceback must NOT be swallowed: a smoke canary that prints
    # "ERROR" and moves on would hide real regressions from CI.
    from repro.api.errors import ApiError

    # Tiers too large for the smoke canary: skipped (with a printed line,
    # so coverage audits still see the name) unless requested explicitly.
    skip_by_default = {"scale_tier_2m"}
    names = args.names or scenario_names()
    unknown = [name for name in names if name not in scenario_names()]
    if unknown:
        print(
            f"error: unknown scenario(s): {', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        return 2
    failures = 0
    for name in names:
        if not args.names and name in skip_by_default:
            print(f"{name:<22} SKIPPED (too large for smoke; run explicitly)")
            continue
        try:
            run = run_scenario(name, seed=args.seed, num_rounds=args.rounds)
            # The smoke-level oracle on the incremental path: re-run the
            # full-solve twin and require every round's matched
            # cardinality (and the full record: feasibility, upload
            # usage) to agree with the full per-round solve.
            twin = build_full_solve_twin(
                run.spec, seed=run.seed, min_horizon=run.rounds
            )
            full = digest_result(run.spec, run.seed, run.rounds, twin.run(run.rounds))
        except (ValueError, ApiError) as exc:
            print(f"{name:<22} ERROR {type(exc).__name__}: {exc}")
            failures += 1
            continue
        if run.round_records != full.round_records:
            diverged = sum(
                1
                for a, b in zip(run.round_records, full.round_records)
                if a != b
            )
            print(
                f"{name:<22} ERROR incremental/full divergence in "
                f"{diverged} of {len(run.round_records)} rounds"
            )
            failures += 1
            continue
        feasible = "feasible" if run.summary["infeasible_rounds"] == 0 else (
            f"{run.summary['infeasible_rounds']} infeasible rounds"
        )
        print(f"{name:<22} {run.digest[:16]}  {feasible}  inc==full")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "oracle":
        return _cmd_oracle(args)
    if args.command == "session":
        return _cmd_session(args)
    if args.command == "soak":
        return _cmd_soak(args)
    if args.command == "smoke":
        return _cmd_smoke(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
