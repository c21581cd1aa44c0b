"""Monte-Carlo estimators: determinism, seed handling and detail types."""

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    estimate_simulation_failure_probability,
    estimate_static_obstruction_probability,
    find_max_feasible_catalog,
)
from repro.core.parameters import homogeneous_population
from repro.core.video import Catalog
from repro.util.rng import spawn_generators, spawn_seed_sequences
from repro.workloads.flashcrowd import FlashCrowdWorkload

flash_crowd = lambda rng: FlashCrowdWorkload(mu=1.5, random_state=rng)  # noqa: E731

STATIC_KWARGS = dict(
    n=24, u=1.5, d=3.0, c=3, k=1, num_cold_videos=[8], trials=6, random_state=13
)


class TestSolverOracle:
    def test_dinic_oracle_agrees_with_default_solver(self):
        fast = estimate_static_obstruction_probability(**STATIC_KWARGS)
        oracle = estimate_static_obstruction_probability(**STATIC_KWARGS, solver="dinic")
        assert fast.failures == oracle.failures
        assert fast.details == oracle.details


class TestDetailTypes:
    def test_static_details_are_floats(self):
        """`worst_unmatched` (and every other detail) is coerced to float."""
        result = estimate_static_obstruction_probability(**STATIC_KWARGS)
        assert result.failures > 0  # k=1 at this size does fail sometimes
        for row in result.details:
            for key, value in row.items():
                assert isinstance(value, float), (key, type(value))
        assert any(row["worst_unmatched"] > 0 for row in result.details)

    def test_simulation_details_are_floats(self):
        population = homogeneous_population(20, u=1.2, d=2.5)
        catalog = Catalog(num_videos=10, num_stripes=3, duration=15)
        result = estimate_simulation_failure_probability(
            population=population,
            catalog=catalog,
            k=2,
            mu=1.5,
            workload_factory=flash_crowd,
            num_rounds=4,
            trials=3,
            random_state=1,
        )
        for row in result.details:
            for key, value in row.items():
                assert isinstance(value, float), (key, type(value))


class TestSeedHandling:
    def test_find_max_feasible_catalog_accepts_generator(self):
        """A np.random.Generator master seed no longer crashes the search."""
        summary = find_max_feasible_catalog(
            n=24,
            u=1.5,
            d=2.0,
            c=3,
            k=3,
            mu=1.5,
            workload_factory=flash_crowd,
            num_rounds=4,
            trials_per_point=2,
            random_state=np.random.default_rng(3),
            m_min=2,
        )
        assert 0 < summary["max_feasible_catalog"] <= summary["storage_cap"]

    def test_find_max_feasible_catalog_reproducible_for_fixed_seed(self):
        kwargs = dict(
            n=24,
            u=1.5,
            d=2.0,
            c=3,
            k=3,
            mu=1.5,
            workload_factory=flash_crowd,
            num_rounds=4,
            trials_per_point=2,
            m_min=2,
        )
        first = find_max_feasible_catalog(**kwargs, random_state=17)
        second = find_max_feasible_catalog(**kwargs, random_state=17)
        assert first == second

    def test_spawn_seed_sequences_match_spawn_generators(self):
        """Both spawners derive the same child streams from one master seed."""
        seqs = spawn_seed_sequences(99, 4)
        gens = spawn_generators(99, 4)
        for seq, gen in zip(seqs, gens):
            expected = np.random.default_rng(seq)
            assert expected.integers(1 << 30) == gen.integers(1 << 30)


def _sim_kwargs():
    return dict(
        population=homogeneous_population(20, u=1.2, d=2.5),
        catalog=Catalog(num_videos=10, num_stripes=3, duration=15),
        k=1,
        mu=1.5,
        workload_factory=flash_crowd,
        num_rounds=5,
        trials=4,
    )


def _catalog_kwargs():
    return dict(
        n=16,
        u=1.5,
        d=2.0,
        c=3,
        k=1,
        mu=1.5,
        workload_factory=flash_crowd,
        num_rounds=4,
        trials_per_point=3,
    )


SEED_SPECS = [
    ("int", lambda seed: seed),
    ("seedseq", lambda seed: np.random.SeedSequence(seed)),
    ("generator", lambda seed: np.random.default_rng(seed)),
]

# Results recorded by an older build, before the trials moved in-process.
# An int and the SeedSequence of that int spawn the same child streams; a
# Generator seeds them from its own draw.
STATIC_WORST_UNMATCHED = {
    "int": (0, 0, 1, 0, 0, 0),
    "seedseq": (0, 0, 1, 0, 0, 0),
    "generator": (1, 1, 2, 1, 0, 0),
}
SIMULATION_TRIALS = {  # (infeasible rounds, demands) per trial
    "int": ((0, 12), (0, 12), (0, 12), (0, 12)),
    "seedseq": ((0, 12), (0, 12), (0, 12), (0, 12)),
    "generator": ((0, 12), (0, 12), (0, 12), (1, 3)),
}
MAX_FEASIBLE_CATALOG = {"int": 25, "seedseq": 25, "generator": 22}


class TestAllEstimatorsDeterministic:
    """Every estimator reproduces its pinned result for every RandomState
    spec the library accepts (int, SeedSequence, Generator)."""

    @pytest.mark.parametrize("label,make_seed", SEED_SPECS)
    def test_static_estimator_all_seed_specs(self, label, make_seed):
        kwargs = dict(STATIC_KWARGS)
        kwargs.pop("random_state")
        result = estimate_static_obstruction_probability(
            **kwargs, random_state=make_seed(13)
        )
        worst = STATIC_WORST_UNMATCHED[label]
        assert result.describe()["failures"] == sum(w > 0 for w in worst)
        assert result.details == tuple(
            {"trial": float(t), "failed": float(w > 0), "worst_unmatched": float(w)}
            for t, w in enumerate(worst)
        )

    @pytest.mark.parametrize("label,make_seed", SEED_SPECS)
    def test_simulation_estimator_all_seed_specs(self, label, make_seed):
        result = estimate_simulation_failure_probability(
            **_sim_kwargs(), random_state=make_seed(3)
        )
        trials = SIMULATION_TRIALS[label]
        assert result.describe()["failures"] == sum(r > 0 for r, _ in trials)
        assert result.details == tuple(
            {
                "trial": float(t),
                "failed": float(r > 0),
                "infeasible_rounds": float(r),
                "demands": float(demands),
            }
            for t, (r, demands) in enumerate(trials)
        )

    @pytest.mark.parametrize("label,make_seed", SEED_SPECS)
    def test_find_max_feasible_catalog_all_seed_specs(self, label, make_seed):
        summary = find_max_feasible_catalog(
            **_catalog_kwargs(), random_state=make_seed(5)
        )
        assert summary == {
            "max_feasible_catalog": MAX_FEASIBLE_CATALOG[label],
            "failure_rate": 0.0,
            "storage_cap": 32,
            "n": 16,
            "u": 1.5,
            "d": 2.0,
            "c": 3,
            "k": 1,
            "mu": 1.5,
        }


class TestSeedDerivationEdgeCases:
    """Edge cases surfaced by the scenario determinism work (PR 2)."""

    def test_spawn_seed_sequences_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_seed_sequences(-5, 3)

    def test_spawn_seed_sequences_zero_children(self):
        assert spawn_seed_sequences(0, 0) == []

    def test_derive_seed_rejects_negative_stream(self):
        from repro.util.rng import derive_seed

        with pytest.raises(ValueError, match="non-negative"):
            derive_seed(1, stream=-1)

    def test_derive_seed_streams_are_stable(self):
        from repro.util.rng import derive_seed

        assert derive_seed(42, stream=0) == derive_seed(42, stream=0)
        assert derive_seed(42, stream=0) != derive_seed(42, stream=1)
