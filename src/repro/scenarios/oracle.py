"""Differential solver oracles.

The engine's hot path is the Hopcroft–Karp CSR kernel (PR 1); its slow,
independent oracles are the max-flow reductions solved by Dinic and FIFO
push–relabel.  This module cross-checks them at simulation scale:

* :func:`check_matching_instance` re-solves one bipartite instance with
  all three kernels and verifies (i) matching cardinality agreement,
  (ii) feasibility agreement, (iii) max-flow = min-cut certificates on
  both flow networks, (iv) assignment validity (every pair is an actual
  possession edge, no box over capacity) and (v) on infeasible
  instances, that the Hopcroft–Karp Hall witness really violates the
  generalized Hall condition ``U_{B(X)} ≥ |X|`` (in upload-slot units);
* :func:`run_differential_oracle` replays a scenario with a
  round-observer that captures each sampled round's exact instance
  (adjacency, effective capacities, the engine's own — possibly
  warm-started — matching) and runs the instance check against it.

Any disagreement is reported as a human-readable string; an empty report
means the fast path is exact on everything the scenario exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.flow.dinic import dinic_max_flow
from repro.flow.hopcroft_karp import hopcroft_karp_matching
from repro.flow.mincut import verify_max_flow_min_cut
from repro.flow.network import build_bipartite_network
from repro.flow.push_relabel import push_relabel_max_flow
from repro.scenarios.build import build_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.sim.engine import RoundObservation

__all__ = ["OracleReport", "check_matching_instance", "run_differential_oracle"]


@dataclass
class OracleReport:
    """Outcome of a differential-oracle sweep."""

    scenario: str
    seed: int
    rounds_checked: int = 0
    instances_checked: int = 0
    requests_checked: int = 0
    disagreements: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every checked instance agreed across all solvers."""
        return not self.disagreements

    def describe(self) -> str:
        """One-line human summary."""
        status = "OK" if self.ok else f"{len(self.disagreements)} DISAGREEMENTS"
        return (
            f"oracle[{self.scenario} seed={self.seed}]: "
            f"{self.instances_checked} instances / {self.requests_checked} requests "
            f"over {self.rounds_checked} rounds -> {status}"
        )


def _edges_from_csr(
    indptr: np.ndarray, indices: np.ndarray, num_left: int
) -> List[Tuple[int, int]]:
    edges: List[Tuple[int, int]] = []
    for i in range(num_left):
        for e in range(int(indptr[i]), int(indptr[i + 1])):
            edges.append((i, int(indices[e])))
    return edges


def _validate_assignment(
    label: str,
    assignment: Sequence[int],
    indptr: np.ndarray,
    indices: np.ndarray,
    capacities: Sequence[int],
    num_right: int,
    errors: List[str],
) -> None:
    load = [0] * num_right
    for i, box in enumerate(assignment):
        box = int(box)
        if box < 0:
            continue
        row = set(int(x) for x in indices[int(indptr[i]): int(indptr[i + 1])])
        if box not in row:
            errors.append(
                f"{label}: request {i} assigned to box {box} outside its "
                f"possession neighbourhood {sorted(row)}"
            )
            continue
        load[box] += 1
        if load[box] > int(capacities[box]):
            errors.append(
                f"{label}: box {box} serves {load[box]} requests over its "
                f"capacity {int(capacities[box])}"
            )


def check_matching_instance(
    num_left: int,
    num_right: int,
    indptr: Sequence[int],
    indices: Sequence[int],
    capacities: Sequence[int],
    reference_assignment: Optional[Sequence[int]] = None,
    context: str = "",
) -> List[str]:
    """Differentially solve one unit-demand b-matching instance.

    Returns a list of disagreement descriptions (empty = all solvers and
    certificates agree).  ``reference_assignment`` optionally checks a
    caller-provided assignment (e.g. the engine's warm-started matching)
    for validity and for cardinality equality with the cold solves.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    caps = [int(x) for x in capacities]
    errors: List[str] = []
    where = f" [{context}]" if context else ""

    hk = hopcroft_karp_matching(num_left, num_right, indptr, indices, caps)
    _validate_assignment(
        f"hopcroft_karp{where}", hk.assignment, indptr, indices, caps, num_right, errors
    )

    edges = _edges_from_csr(indptr, indices, num_left)
    flow_values = {}
    for name, solver in (("dinic", dinic_max_flow), ("push_relabel", push_relabel_max_flow)):
        network, source, sink = build_bipartite_network(
            num_left, num_right, edges, [1] * num_left, caps
        )
        flow_values[name] = solver(network, source, sink)
        if not verify_max_flow_min_cut(network, source, sink):
            errors.append(
                f"{name}{where}: max-flow/min-cut certificate failed "
                f"(flow {flow_values[name]})"
            )

    for name, value in flow_values.items():
        if value != hk.matched:
            errors.append(
                f"cardinality{where}: hopcroft_karp matched {hk.matched} but "
                f"{name} max flow is {value}"
            )
    feasible_flow = flow_values["dinic"] == num_left
    if hk.feasible != feasible_flow:
        errors.append(
            f"feasibility{where}: hopcroft_karp says {hk.feasible}, "
            f"max flow says {feasible_flow}"
        )

    if not hk.feasible:
        if hk.unsatisfied_witness is None:
            errors.append(f"witness{where}: infeasible instance without a Hall witness")
        else:
            witness = list(hk.unsatisfied_witness)
            neighbourhood: set = set()
            for i in witness:
                neighbourhood.update(
                    int(x) for x in indices[int(indptr[i]): int(indptr[i + 1])]
                )
            capacity = sum(caps[b] for b in neighbourhood)
            if capacity >= len(witness):
                errors.append(
                    f"witness{where}: claimed Hall violation |X|={len(witness)} "
                    f"has neighbourhood capacity {capacity} >= |X|"
                )

    if reference_assignment is not None:
        reference = [int(x) for x in reference_assignment]
        if len(reference) != num_left:
            errors.append(
                f"reference{where}: assignment length {len(reference)} != {num_left}"
            )
        else:
            _validate_assignment(
                f"engine{where}", reference, indptr, indices, caps, num_right, errors
            )
            matched = sum(1 for b in reference if b >= 0)
            if matched != hk.matched:
                errors.append(
                    f"engine{where}: matched {matched} requests but the cold "
                    f"maximum matching has {hk.matched}"
                )
    return errors


def run_differential_oracle(
    scenario: Union[str, ScenarioSpec],
    seed: Optional[int] = None,
    num_rounds: Optional[int] = None,
    sample_every: int = 1,
    max_instances: Optional[int] = None,
    max_errors: int = 20,
) -> OracleReport:
    """Replay a scenario, re-solving sampled rounds with the oracle solvers.

    Every ``sample_every``-th round's exact matching instance (adjacency
    from the live possession index, capacities after churn, the engine's
    warm-started assignment) is differentially checked.  The run itself
    uses the spec's configured solver and the engine's incremental
    repair, so this validates the production path, not a sanitized copy:
    every checked round certifies the repaired matching's cardinality
    against the cold solves.
    """
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    report = OracleReport(scenario=spec.name, seed=0)

    def observer(observation: RoundObservation) -> None:
        report.rounds_checked += 1
        if (observation.time % sample_every) != 0:
            return
        if max_instances is not None and report.instances_checked >= max_instances:
            return
        if len(report.disagreements) >= max_errors:
            # Error budget exhausted: stop solving (and stop counting, so
            # the report never overstates what was actually checked).
            return
        requests = observation.request_set
        indptr, indices = observation.possession.adjacency_for(
            requests, observation.time
        )
        report.instances_checked += 1
        report.requests_checked += len(requests)
        errors = check_matching_instance(
            num_left=len(requests),
            num_right=int(observation.capacities.size),
            indptr=indptr,
            indices=indices,
            capacities=observation.capacities,
            reference_assignment=observation.matching.assignment,
            context=f"{spec.name} t={observation.time}",
        )
        report.disagreements.extend(errors)

    rounds = spec.horizon if num_rounds is None else int(num_rounds)
    compiled = build_scenario(
        spec, seed=seed, round_observer=observer, min_horizon=rounds
    )
    report.seed = compiled.seed
    compiled.run(rounds)
    return report
