"""Differential solver oracle.

The engine's hot path is the Hopcroft–Karp kernel; its one cold oracle
is SciPy's compiled ``maximum_flow`` on the Lemma 1 flow network.  This
module cross-checks them at simulation scale:

* :func:`check_matching_instance` re-solves one instance with the kernel
  and with SciPy and verifies (i) cardinality and (ii) feasibility
  agreement, (iii) assignment validity (every pair is a possession edge,
  no box over capacity) and (iv) on infeasible instances, that the Hall
  witness is exact: its deficiency equals the number of unmatched
  requests, which proves the matching maximum.  An optional reference
  (the engine's own assignment and witness) gets the same checks;
* :func:`check_observed_round` runs those checks on one round a round
  observer saw, against the engine's own matching;
* :func:`run_differential_oracle` replays a scenario and checks each
  sampled round that way.

Any disagreement is reported as a human-readable string; an empty report
means the fast path is exact on everything the scenario exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.flow.bipartite import hall_deficiency
from repro.flow.hopcroft_karp import hopcroft_karp_matching
from repro.scenarios.build import build_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.sim.engine import RoundObservation

if TYPE_CHECKING:  # SciPy's sparse stack loads on first use, not on import.
    from scipy.sparse import csr_array

__all__ = [
    "OracleReport",
    "check_matching_instance",
    "check_observed_round",
    "run_differential_oracle",
    "unit_demand_network",
]


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


def unit_demand_network(
    num_left: int,
    num_right: int,
    indptr: Sequence[int],
    indices: Sequence[int],
    capacities: Sequence[int],
) -> Tuple[csr_array, int, int]:
    """The Lemma 1 flow network of a unit-demand CSR instance, for SciPy.

    Nodes are ``[source, lefts, rights, sink]``: source → left and one
    left → right edge per CSR entry with capacity 1, right → sink with the
    box's capacity.  Returns ``(graph, source, sink)``.  SciPy casts
    capacities to int32 and wraps silently (``2**32`` reads as 0), so sink
    capacities are clipped at ``num_left``, which no box can exceed.
    """
    from scipy.sparse import csr_array

    indices = np.asarray(indices, dtype=np.int64)
    sink = num_left + num_right + 1
    row_lengths = np.concatenate(
        ([num_left], np.diff(indptr), np.ones(num_right, dtype=np.int64), [0])
    )
    graph_indptr = np.concatenate(([0], np.cumsum(row_lengths)))
    graph_indices = np.concatenate((
        np.arange(1, num_left + 1), indices + num_left + 1, np.full(num_right, sink)
    ))
    data = np.concatenate((
        np.ones(num_left + indices.size, dtype=np.int64),
        np.minimum(np.asarray(capacities, dtype=np.int64), num_left),
    ))
    graph = csr_array(
        (data.astype(np.int32), graph_indices.astype(np.int32), graph_indptr),
        shape=(sink + 1, sink + 1),
    )
    return graph, 0, sink


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
    reference_witness: Optional[Sequence[int]] = None,
    context: str = "",
) -> List[str]:
    """Differentially solve one unit-demand b-matching instance.

    Returns a list of disagreement descriptions (empty = the kernel, SciPy
    and the certificates agree).  ``reference_assignment`` optionally
    adds a caller-provided matching (e.g. the engine's repaired one) to
    the checks the kernel's matching gets; when it leaves requests
    unmatched, ``reference_witness`` (its Hall witness) must be exact.
    """
    from scipy.sparse.csgraph import maximum_flow

    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    caps = np.asarray(capacities, dtype=np.int64)
    errors: List[str] = []
    where = f" [{context}]" if context else ""

    hk = hopcroft_karp_matching(num_left, num_right, indptr, indices, caps)
    graph, source, sink = unit_demand_network(
        num_left, num_right, indptr, indices, caps
    )
    flow = int(maximum_flow(graph, source, sink).flow_value)
    if hk.matched != flow or hk.feasible != (flow == num_left):
        errors.append(
            f"cardinality{where}: hopcroft_karp reports matched={hk.matched}, "
            f"feasible={hk.feasible} but scipy max flow is {flow} of {num_left}"
        )

    solutions = [("hopcroft_karp", hk.assignment, hk.unsatisfied_witness)]
    if reference_assignment is not None:
        reference = np.asarray(reference_assignment, dtype=np.int64)
        if reference.size != num_left:
            errors.append(
                f"reference{where}: assignment length {reference.size} != {num_left}"
            )
        else:
            solutions.append(("engine", reference, reference_witness))
    for label, assignment, witness in solutions:
        label += where
        _validate_assignment(
            label, assignment.tolist(), indptr, indices, caps, num_right, errors
        )
        matched = int((assignment >= 0).sum())
        if matched != flow:
            errors.append(
                f"{label}: matched {matched} requests but the cold maximum "
                f"flow is {flow}"
            )
        if matched == num_left:
            continue
        if witness is None:
            errors.append(f"{label}: infeasible matching without a Hall witness")
            continue
        deficiency = hall_deficiency(witness, indptr, indices, caps)
        if deficiency != num_left - matched:
            errors.append(
                f"{label}: Hall witness |X|={len(witness)} has deficiency "
                f"{deficiency}, but {num_left - matched} requests are unmatched"
            )
    return errors


def check_observed_round(observation: RoundObservation, context: str) -> List[str]:
    """:func:`check_matching_instance` on one observed round.

    The round's exact instance — :meth:`PossessionIndex.adjacency_for` of
    its request set at its round, and the capacities it was solved
    against — is re-solved and checked together with the engine's
    assignment and Hall witness.  ``context`` labels the disagreements.
    """
    requests = observation.request_set
    indptr, indices = observation.possession.adjacency_for(requests, observation.time)
    return check_matching_instance(
        num_left=len(requests),
        num_right=int(observation.capacities.size),
        indptr=indptr,
        indices=indices,
        capacities=observation.capacities,
        reference_assignment=observation.matching.assignment,
        reference_witness=observation.matching.obstruction_witness,
        context=context,
    )


def run_differential_oracle(
    scenario: Union[str, ScenarioSpec],
    seed: Optional[int] = None,
    num_rounds: Optional[int] = None,
    sample_every: int = 1,
    max_instances: Optional[int] = None,
    max_errors: int = 20,
) -> OracleReport:
    """Replay a scenario, re-solving sampled rounds with the cold oracle.

    Every ``sample_every``-th round's exact matching instance (adjacency
    from the live possession index, capacities after churn, the engine's
    repaired assignment and Hall witness) is differentially checked.  The
    run itself uses the spec's configured solver and the engine's
    incremental repair, so this validates the production path, not a
    sanitized copy: every checked round certifies the repaired matching's
    cardinality against the cold solves and its witness exactly.
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
        report.instances_checked += 1
        report.requests_checked += len(observation.request_set)
        report.disagreements.extend(
            check_observed_round(observation, f"{spec.name} t={observation.time}")
        )

    rounds = spec.horizon if num_rounds is None else int(num_rounds)
    compiled = build_scenario(
        spec, seed=seed, round_observer=observer, min_horizon=rounds
    )
    report.seed = compiled.seed
    compiled.run(rounds)
    return report
