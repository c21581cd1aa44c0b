#!/usr/bin/env python
"""Kernel rounds that touch every row: the cold-start adversary near u' = 1.

The cold-start adversary (n/8 demands a round, each on a video nobody
watches) runs against a random permutation allocation with n boxes,
u = 1.05, c = 4 stripes (so a box serves ⌊u·c⌋ = c of them, u' = 1),
d = 2.5, k = 2 replicas and m = d·n/k videos, seed 0.  At n = 20,000,
from round 8 on every box is watching, so a round holds 4·n = 80,000
requests; it is infeasible, and its Hall witness spans 79,542 of them,
so the full kernel's searches touch nearly every row of the round's row
source (:meth:`repro.core.possession.PossessionIndex.round_rows`), which
the repair's exact searches read before the kernel in the same call.

The script runs the simulation, captures the kernel calls of rounds
8–10 (the possession index as the call saw it, the requests, the
capacities and the seed the repair left) and times a fresh
``round_rows`` plus ``hopcroft_karp_rows`` on each, without the
searches, in interleaved repetitions of two
settings: the row source as built, which builds its first
``len(requests) >> _LAYOUT_SHIFT`` rows one at a time before it lays out
the round, and with that budget patched to 0, so that the kernel's
first read (its ``heads`` call) lays out the round and every row is cut
from the layout: the cost of a source that lays out every row.  It
prints each round's median and quartiles in milliseconds.  It checks
what it times: on every repetition of every captured call both settings
must return the assignment and Hall witness of an untimed solve with the
budget patched to every row, whose rows are all built alone from the
index, so the kernel's row reads (``heads``, ``first_fit`` and the rows
its searches walk) give one answer in both regimes of the row source.
It exits 1 when they differ or when no round reached the kernel.

Run ``python benchmarks/bench_cold_start_kernel.py`` for the full run
(n = 20,000), ``--smoke`` for n = 2,000.  There is no ``test_``
function: pytest collects nothing here.
"""

from __future__ import annotations

import argparse
import gc
import os
import pickle
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np

import repro.core.matching as matching
import repro.core.possession as possession
from repro.api import VodSystem
from repro.core.possession import PossessionIndex

#: Rounds whose kernel calls are captured and timed: at N boxes every box
#: is watching from round 8 on; at SMOKE_N only round 8 reaches the kernel.
ROUNDS = (8, 9, 10)
N = 20_000
SMOKE_N = 2_000
#: ``_LAYOUT_SHIFT`` at which every round's budget of single rows is 0.
LAY_OUT_AT_FIRST_READ = 64
#: ``_LAYOUT_SHIFT`` at which every row is built alone.
BUILD_EVERY_ROW_ALONE = 0


def build_session(n: int, seed: int = 0):
    """The cold-start run: n boxes at u = 1.05, c = 4, d = 2.5, k = 2, m = d·n/k."""
    system = VodSystem.configure(
        catalog={"num_videos": int(2.5 * n / 2), "num_stripes": 4},
        population=("homogeneous", {"n": n, "u": 1.05, "d": 2.5}),
    )
    system.allocate("permutation", replicas_per_stripe=2, seed=seed)
    return system.open_session(
        workload=("cold_start", {"max_demands_per_round": n // 8}),
        workload_seed=seed,
        horizon=max(ROUNDS) + 1,
    )


def capture(n: int):
    """Each captured round's kernel call: ``(round, index, requests, args)``.

    ``round_rows`` records the call's index and requests, keeping only
    the latest ``match`` call's: a round whose repair completes builds a
    row source too, but never reaches the kernel.  The index is copied
    when the kernel is called (nothing writes it within a ``match``
    call), so a replay reads it as the call did; ``args`` are
    ``hopcroft_karp_rows``' arguments other than the row source.
    """
    calls, pending = [], []
    round_rows = PossessionIndex.round_rows
    solve_rows = matching.hopcroft_karp_rows

    def capturing_rows(index, requests, current_time):
        pending[:] = [(current_time, index, requests)] if current_time in ROUNDS else []
        return round_rows(index, requests, current_time)

    def capturing_solve(num_left, num_right, rows, capacities, seed):
        if pending:
            current_time, index, requests = pending.pop()
            args = (num_left, num_right, np.array(capacities), np.array(seed))
            calls.append((current_time, pickle.loads(pickle.dumps(index)), requests, args))
        return solve_rows(num_left, num_right, rows, capacities, seed)

    PossessionIndex.round_rows = capturing_rows
    matching.hopcroft_karp_rows = capturing_solve
    try:
        session = build_session(n)
        session.step_until(round=max(ROUNDS) + 1)
    finally:
        PossessionIndex.round_rows = round_rows
        matching.hopcroft_karp_rows = solve_rows
    return calls


def time_call(call, shift: int):
    """``(seconds, result)`` of ``round_rows`` plus ``hopcroft_karp_rows`` on one call."""
    current_time, index, requests, (num_left, num_right, capacities, seed) = call
    built = possession._LAYOUT_SHIFT
    possession._LAYOUT_SHIFT = shift
    try:
        gc.collect()
        start = time.perf_counter()
        rows = index.round_rows(requests, current_time)
        result = matching.hopcroft_karp_rows(num_left, num_right, rows, capacities, seed)
        return time.perf_counter() - start, result
    finally:
        possession._LAYOUT_SHIFT = built


def same_solution(a, b) -> bool:
    """Whether two kernel results have the same assignment and Hall witness."""
    return (
        np.array_equal(a.assignment, b.assignment)
        and a.unsatisfied_witness == b.unsatisfied_witness
    )


def repeats_arg(text: str) -> int:
    """``--repeats``: quartiles need at least two samples."""
    repeats = int(text)
    if repeats < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {repeats}")
    return repeats


def quartiles(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, median, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help=f"n = {SMOKE_N:,} boxes")
    parser.add_argument(
        "--repeats", type=repeats_arg,
        help="interleaved repetitions, at least 2 (default 11; 3 with --smoke)",
    )
    args = parser.parse_args()
    n = SMOKE_N if args.smoke else N
    repeats = args.repeats or (3 if args.smoke else 11)

    calls = capture(n)
    settings = {
        f"as built (>> {possession._LAYOUT_SHIFT})": possession._LAYOUT_SHIFT,
        "lay out at first read": LAY_OUT_AT_FIRST_READ,
    }
    print(f"cold-start kernel calls, n = {n:,}, {repeats} interleaved repetitions")
    differ = 0
    for call in calls:
        current_time, _, requests, (_, _, _, seed) = call
        samples = {label: [] for label in settings}
        _, reference = time_call(call, BUILD_EVERY_ROW_ALONE)
        for rep in range(repeats):
            order = list(settings.items())
            if rep % 2:
                order.reverse()
            for label, shift in order:
                seconds, result = time_call(call, shift)
                samples[label].append(seconds)
                if not same_solution(reference, result):
                    differ += 1
                    print(f"FAIL: round {current_time}, {label}: another solution",
                          file=sys.stderr)
        print(
            f"round {current_time}: {len(requests):,} requests, "
            f"{int((seed < 0).sum()):,} unmatched in the seed"
        )
        for label, times in samples.items():
            q1, median, q3 = quartiles([t * 1e3 for t in times])
            print(f"  {label:<24} median {median:8.1f} ms  [{q1:.1f}, {q3:.1f}]")
    if not calls:
        print(f"FAIL: no kernel call in rounds {ROUNDS}", file=sys.stderr)
        return 1
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
