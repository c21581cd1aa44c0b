#!/usr/bin/env python
"""Old-vs-new matching-engine benchmarks; emits ``BENCH_matching.json``.

Times the two in-house kernels, the Dinic max flow and the Hopcroft–Karp
kernel, on the bipartite instances one simulator round produces, plus
the incremental simulator loop and the static obstruction estimator, and
cross-validates the two kernels on randomized instances along the way:

* ``unit_matching_kernel`` — ``dinic_matching`` vs
  ``hopcroft_karp_matching`` on one CSR, built once outside both timings
  (the acceptance microbenchmark: the Hopcroft–Karp kernel must be ≥5×
  faster);
* ``per_round_matcher`` — full ``ConnectionMatcher.match`` round cost,
  CSR gather + Dinic (the cold twin) vs Hopcroft–Karp on the round's
  row source (``PossessionIndex.round_rows``, no CSR gathered), unseeded,
  so no repair search runs before the kernel;
* ``incremental_matching`` — the 10k-box scale tier as built (delta
  repair) vs its full-solve twin, which re-solves every round with the
  full kernel (per-round matched cardinalities cross-checked equal).

Run ``python benchmarks/run_benchmarks.py --smoke`` for a quick pass at
small sizes (what CI runs) and without arguments for the full sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np

from repro.analysis.montecarlo import estimate_static_obstruction_probability
from repro.core.allocation import random_permutation_allocation
from repro.core.matching import ConnectionMatcher
from repro.core.parameters import homogeneous_population
from repro.core.possession import PossessionIndex
from repro.core.requests import RequestSet
from repro.core.video import Catalog
from repro.flow.bipartite import hall_deficiency
from repro.flow.dinic import dinic_matching
from repro.flow.hopcroft_karp import csr_from_edges, hopcroft_karp_matching


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def build_round_instance(n, m, c, k, num_requests, cache_entries, seed):
    """A possession index + request set shaped like one simulator round."""
    population = homogeneous_population(n, u=2.0, d=4.0)
    catalog = Catalog(num_videos=m, num_stripes=c, duration=30)
    allocation = random_permutation_allocation(catalog, population, k, random_state=seed)
    possession = PossessionIndex(allocation, cache_window=catalog.duration)
    rng = np.random.default_rng(seed)
    downloads = np.array(
        [
            (int(rng.integers(catalog.total_stripes)), int(rng.integers(n)), int(rng.integers(3)))
            for _ in range(cache_entries)
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    # The download log is written one round at a time, in round order.
    for t in range(3):
        block = downloads[downloads[:, 2] == t]
        possession.record_downloads(block[:, 0], block[:, 1], t)
    # Each request draws its stripe, issue round and box in turn.
    triples = np.array(
        [
            (int(rng.integers(catalog.total_stripes)), int(rng.integers(4)), int(rng.integers(n)))
            for _ in range(num_requests)
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    requests = RequestSet(triples[:, 0], triples[:, 1], triples[:, 2])
    return population, catalog, allocation, possession, requests


def bench_unit_matching_kernel(sizes, repeats) -> Dict[str, object]:
    """The acceptance microbenchmark: the Dinic vs the HK kernel on one CSR."""
    population, catalog, allocation, possession, requests = build_round_instance(**sizes)
    edges = []
    columns = (requests.stripe_id_array, requests.request_time_array, requests.box_id_array)
    for idx, (stripe, issued, client) in enumerate(zip(*(c.tolist() for c in columns))):
        for box in possession.servers_for(stripe, issued, current_time=4):
            if box != client:
                edges.append((idx, int(box)))
    caps = population.upload_slots(catalog.num_stripes_per_video).tolist()
    num_left, num_right = len(requests), population.n
    indptr, indices = csr_from_edges(num_left, num_right, edges)
    instance = (num_left, num_right, indptr, indices, caps)

    old = dinic_matching(*instance)
    new = hopcroft_karp_matching(*instance)
    assert old.matched == new.matched and old.feasible == new.feasible

    t_old = best_of(lambda: dinic_matching(*instance), repeats)
    t_new = best_of(lambda: hopcroft_karp_matching(*instance), repeats)
    return {
        "name": "unit_matching_kernel",
        "requests": num_left,
        "boxes": num_right,
        "edges": len(edges),
        "matched": int(new.matched),
        "feasible": bool(new.feasible),
        "old_seconds": t_old,
        "new_seconds": t_new,
        "speedup": t_old / t_new if t_new > 0 else float("inf"),
    }


def bench_per_round_matcher(sizes, repeats) -> Dict[str, object]:
    """Full per-round match cost: CSR gather + the Dinic twin vs HK on the rows."""
    population, catalog, allocation, possession, requests = build_round_instance(**sizes)
    slots = population.upload_slots(catalog.num_stripes_per_video)
    old_matcher = ConnectionMatcher(slots, solver="dinic")
    new_matcher = ConnectionMatcher(slots, solver="hopcroft_karp")

    old = old_matcher.match(requests, possession, current_time=4)
    new = new_matcher.match(requests, possession, current_time=4)
    assert old.matched == new.matched and old.feasible == new.feasible

    t_old = best_of(lambda: old_matcher.match(requests, possession, current_time=4), repeats)
    t_new = best_of(lambda: new_matcher.match(requests, possession, current_time=4), repeats)
    return {
        "name": "per_round_matcher",
        "requests": len(requests),
        "boxes": population.n,
        "matched": int(new.matched),
        "old_seconds": t_old,
        "new_seconds": t_new,
        "speedup": t_old / t_new if t_new > 0 else float("inf"),
    }


def bench_incremental_matching(rounds, repeats) -> Dict[str, object]:
    """Scale-tier engine wall-clock: full per-round re-solve vs delta repair."""
    from repro.scenarios.build import build_full_solve_twin, build_scenario
    from repro.scenarios.registry import get_scenario

    spec = get_scenario("scale_tier_10k")

    def run(incremental: bool):
        build = build_scenario if incremental else build_full_solve_twin
        compiled = build(spec, seed=7, min_horizon=rounds)
        start = time.perf_counter()
        result = compiled.run(rounds)
        return time.perf_counter() - start, result, compiled.simulator

    t_full, full_result, _ = run(False)
    t_inc, inc_result, simulator = run(True)
    full_matched = [s.matched for s in full_result.metrics.round_stats]
    inc_matched = [s.matched for s in inc_result.metrics.round_stats]
    assert inc_matched == full_matched, "incremental path changed a cardinality"
    for _ in range(repeats - 1):
        t_full = min(t_full, run(False)[0])
        t_inc = min(t_inc, run(True)[0])
    return {
        "name": "incremental_matching",
        "tier": "10k",
        "boxes": int(spec.population.params["n"]),
        "rounds": rounds,
        "repair_fallback_rounds": int(simulator.repair_fallback_rounds),
        "old_seconds": t_full,
        "new_seconds": t_inc,
        "speedup": t_full / t_inc if t_inc > 0 else float("inf"),
    }


def bench_obstruction_estimator(n, trials, repeats) -> Dict[str, object]:
    """End-to-end static obstruction estimation, Dinic vs Hopcroft–Karp."""
    kwargs = dict(
        n=n, u=1.5, d=3.0, c=6, k=2, num_cold_videos=[n // 3], trials=trials, random_state=7
    )
    old = estimate_static_obstruction_probability(**kwargs, solver="dinic")
    new = estimate_static_obstruction_probability(**kwargs, solver="hopcroft_karp")
    assert old.failures == new.failures

    t_old = best_of(
        lambda: estimate_static_obstruction_probability(**kwargs, solver="dinic"), repeats
    )
    t_new = best_of(
        lambda: estimate_static_obstruction_probability(**kwargs, solver="hopcroft_karp"),
        repeats,
    )
    return {
        "name": "obstruction_estimator",
        "boxes": n,
        "trials": trials,
        "failures": int(new.failures),
        "old_seconds": t_old,
        "new_seconds": t_new,
        "speedup": t_old / t_new if t_new > 0 else float("inf"),
    }


def cross_validate_kernels(instances, seed) -> Dict[str, object]:
    """HK vs Dinic on randomized bipartite instances.

    Checks flow value, feasibility and validity, and on every infeasible
    instance that the HK witness holds every deficient left and is exact:
    its Hall deficiency equals the number of unmatched lefts.
    """
    rng = np.random.default_rng(seed)
    agreements = 0
    infeasible_checked = 0
    for _ in range(instances):
        num_left = int(rng.integers(1, 40))
        num_right = int(rng.integers(1, 25))
        caps = [int(rng.integers(0, 4)) for _ in range(num_right)]
        density = float(rng.uniform(0.05, 0.5))
        edges = [
            (i, j)
            for i in range(num_left)
            for j in range(num_right)
            if rng.random() < density
        ]
        indptr, indices = csr_from_edges(num_left, num_right, edges)
        old = dinic_matching(num_left, num_right, indptr, indices, caps)
        new = hopcroft_karp_matching(num_left, num_right, indptr, indices, caps)
        if old.matched == new.matched and old.feasible == new.feasible:
            agreements += 1
        loads = [0] * num_right
        edge_set = set(edges)
        for i, j in enumerate(new.assignment):
            if j >= 0:
                assert (i, int(j)) in edge_set, "assignment uses a non-edge"
                loads[int(j)] += 1
        assert all(l <= cap for l, cap in zip(loads, caps)), "capacity violated"
        if not new.feasible:
            witness = new.unsatisfied_witness or ()
            assert set(new.deficient_left) <= set(witness), "witness misses a deficient left"
            assert hall_deficiency(witness, indptr, indices, caps) == num_left - new.matched, (
                "witness deficiency differs from the unmatched count"
            )
            infeasible_checked += 1
    return {
        "instances": instances,
        "agreements": agreements,
        "infeasible_checked": infeasible_checked,
        "all_agree": agreements == instances,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small sizes, quick pass (CI)")
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_matching.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        round_sizes = dict(n=120, m=60, c=4, k=3, num_requests=300, cache_entries=150, seed=0)
        repeats, mc_trials, xval = 3, 6, 40
        inc_rounds = 12
    else:
        round_sizes = dict(n=400, m=240, c=5, k=4, num_requests=1500, cache_entries=800, seed=0)
        repeats, mc_trials, xval = 5, 12, 120
        inc_rounds = 30

    results: List[Dict[str, object]] = []
    print(f"[bench] mode={'smoke' if args.smoke else 'full'}")
    for fn in (
        lambda: bench_unit_matching_kernel(round_sizes, repeats),
        lambda: bench_per_round_matcher(round_sizes, repeats),
        lambda: bench_incremental_matching(inc_rounds, max(2, repeats - 2)),
        lambda: bench_obstruction_estimator(48, mc_trials, max(2, repeats - 2)),
    ):
        row = fn()
        results.append(row)
        print(
            f"[bench] {row['name']:<22} old={row['old_seconds'] * 1e3:9.2f}ms  "
            f"new={row['new_seconds'] * 1e3:9.2f}ms  speedup={row['speedup']:6.2f}x"
        )

    checks = cross_validate_kernels(xval, seed=1)
    print(
        f"[bench] cross-validation: {checks['agreements']}/{checks['instances']} "
        f"instances agree (HK vs Dinic), {checks['infeasible_checked']} Hall "
        f"witnesses checked"
    )

    kernel_speedup = next(r for r in results if r["name"] == "unit_matching_kernel")["speedup"]
    target_met = kernel_speedup >= 5.0 and checks["all_agree"]
    artifact = {
        "benchmark": "matching_engine",
        "mode": "smoke" if args.smoke else "full",
        "cpu_count": os.cpu_count(),
        "results": results,
        "cross_validation": checks,
        "kernel_speedup": kernel_speedup,
        "target_speedup": 5.0,
        "target_met": bool(target_met),
    }
    output = os.path.abspath(args.output)
    # Preserve sections other benchmarks own (e.g. bench_session_overhead's
    # ``session_overhead``) instead of clobbering the shared artifact.
    if os.path.exists(output):
        try:
            with open(output) as handle:
                previous = json.load(handle)
        except (OSError, json.JSONDecodeError):
            previous = {}
        for key, value in previous.items():
            if key not in artifact:
                artifact[key] = value
    with open(output, "w") as handle:
        json.dump(artifact, handle, indent=2)
    print(f"[bench] kernel speedup {kernel_speedup:.2f}x (target 5x) -> {output}")
    return 0 if target_met else 1


if __name__ == "__main__":
    raise SystemExit(main())
