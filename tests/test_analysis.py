"""Tests for the analysis layer: bound sweeps, Monte-Carlo, sweeps and reports."""

import numpy as np
import pytest

from repro.analysis.bounds import (
    catalog_bound_vs_n,
    catalog_bound_vs_upload,
    heterogeneous_design_table,
    obstruction_bound_vs_k,
    quality_tradeoff_table,
    replication_vs_upload,
    threshold_design_table,
)
from repro.analysis.montecarlo import (
    estimate_simulation_failure_probability,
    estimate_static_obstruction_probability,
    find_max_feasible_catalog,
)
from repro.analysis.report import format_value, render_markdown_table, render_table
from repro.analysis.sweep import cartesian_grid
from repro.core.parameters import homogeneous_population
from repro.core.video import Catalog
from repro.workloads.flashcrowd import FlashCrowdWorkload
from repro.workloads.popularity import ZipfDemandWorkload


class TestBoundSweeps:
    def test_threshold_design_table_rows(self):
        rows = threshold_design_table(n=1000, d=4.0, mu=1.3, u_values=[1.5, 2.0, 3.0])
        assert len(rows) == 3
        assert all(row["k"] > 0 for row in rows)
        assert rows[0]["k"] > rows[-1]["k"]

    def test_catalog_bound_vs_upload_monotone(self):
        data = catalog_bound_vs_upload([1.3, 1.6, 2.0, 3.0], n=10_000, d=4.0, mu=1.3)
        assert np.all(np.diff(data["catalog"]) >= 0)
        assert np.all(np.diff(data["asymptotic"]) > 0)

    def test_catalog_bound_vs_upload_rejects_sub_threshold(self):
        with pytest.raises(ValueError):
            catalog_bound_vs_upload([0.9, 1.5], n=100, d=4.0, mu=1.3)

    def test_catalog_bound_vs_n_linear(self):
        data = catalog_bound_vs_n([1000, 2000, 4000], u=2.0, d=4.0, mu=1.3)
        # k is n-independent, so catalog per box is (nearly) constant.
        assert np.all(data["k"] == data["k"][0])
        per_box = data["catalog_per_box"]
        assert per_box[0] == pytest.approx(per_box[-1], rel=0.05)

    def test_replication_vs_upload_decreasing(self):
        data = replication_vs_upload([1.3, 1.6, 2.0, 3.0], d=4.0, mu=1.3)
        assert np.all(np.diff(data["k"]) <= 0)
        assert np.all(data["nu"] > 0)

    def test_quality_tradeoff_table(self):
        rows = quality_tradeoff_table(
            bitrates=[0.4, 0.8, 1.0, 1.2, 2.0], raw_upload=1.0, n=1000, d=4.0, mu=1.3
        )
        assert len(rows) == 5
        # Low bitrate → u > 1 → scalable; bitrate ≥ raw upload → not scalable.
        assert rows[0]["scalable"]
        assert not rows[2]["scalable"]
        assert not rows[4]["scalable"]
        assert rows[0]["catalog"] > rows[1]["catalog"]

    def test_obstruction_bound_vs_k_decreasing(self):
        rows = obstruction_bound_vs_k(
            k_values=[100, 250, 400], n=100, c=5, u=2.0, d=4.0, mu=1.3
        )
        bounds = [row["paper_bound"] for row in rows]
        assert bounds == sorted(bounds, reverse=True)

    def test_obstruction_bound_vs_k_rejects_bad_c(self):
        with pytest.raises(ValueError):
            obstruction_bound_vs_k([10], n=100, c=2, u=1.2, d=4.0, mu=1.5)

    def test_heterogeneous_design_table(self):
        rows = heterogeneous_design_table(n=1000, d=4.0, mu=1.1, u_star_values=[1.5, 2.0])
        assert len(rows) == 2
        assert all(row["regime"] == "heterogeneous" for row in rows)


class TestMonteCarlo:
    def test_static_obstruction_small_k_fails_more_often(self):
        result_k1 = estimate_static_obstruction_probability(
            n=24, u=1.5, d=3.0, c=3, k=1, num_cold_videos=[8], trials=15, random_state=0
        )
        result_k4 = estimate_static_obstruction_probability(
            n=24, u=1.5, d=3.0, c=3, k=4, num_cold_videos=[8], trials=15, random_state=0
        )
        assert result_k1.failure_probability >= result_k4.failure_probability
        assert 0.0 <= result_k4.failure_probability <= 1.0
        assert result_k4.trials == 15

    def test_static_obstruction_validation(self):
        with pytest.raises(ValueError):
            estimate_static_obstruction_probability(
                n=24, u=1.5, d=3.0, c=3, k=2, num_cold_videos=[999], trials=2
            )
        with pytest.raises(ValueError):
            estimate_static_obstruction_probability(
                n=10, u=1.5, d=1.0, c=3, k=100, num_cold_videos=[1], trials=2
            )

    def test_simulation_failure_probability_zero_for_well_provisioned(self):
        population = homogeneous_population(30, u=2.0, d=4.0)
        catalog = Catalog(num_videos=15, num_stripes=4, duration=25)
        result = estimate_simulation_failure_probability(
            population=population,
            catalog=catalog,
            k=4,
            mu=1.5,
            workload_factory=lambda rng: FlashCrowdWorkload(mu=1.5, random_state=rng),
            num_rounds=6,
            trials=3,
            random_state=1,
        )
        assert result.failure_probability == 0.0
        assert result.failures == 0

    def test_simulation_failure_probability_one_below_threshold(self):
        population = homogeneous_population(24, u=0.4, d=2.0)
        catalog = Catalog(num_videos=16, num_stripes=3, duration=25)
        result = estimate_simulation_failure_probability(
            population=population,
            catalog=catalog,
            k=3,
            mu=2.0,
            workload_factory=lambda rng: ZipfDemandWorkload(
                arrival_rate=10.0, random_state=rng
            ),
            num_rounds=8,
            trials=3,
            random_state=2,
        )
        assert result.failure_probability == 1.0

    def test_find_max_feasible_catalog(self):
        summary = find_max_feasible_catalog(
            n=24,
            u=1.5,
            d=2.0,
            c=3,
            k=3,
            mu=1.5,
            workload_factory=lambda rng: FlashCrowdWorkload(mu=1.5, random_state=rng),
            num_rounds=5,
            trials_per_point=2,
            random_state=3,
            m_min=2,
        )
        assert 0 < summary["max_feasible_catalog"] <= summary["storage_cap"]
        assert summary["failure_rate"] == 0.0

    def test_find_max_feasible_catalog_validation(self):
        with pytest.raises(ValueError):
            find_max_feasible_catalog(
                n=10, u=1.5, d=1.0, c=3, k=100, mu=1.5,
                workload_factory=lambda rng: FlashCrowdWorkload(mu=1.5, random_state=rng),
                num_rounds=3,
            )


class TestSweepHarness:
    def test_cartesian_grid(self):
        grid = cartesian_grid(a=[1, 2], b=["x"])
        assert grid == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]
        assert cartesian_grid() == [{}]
        with pytest.raises(ValueError):
            cartesian_grid(a=[])


class TestReport:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(0.000123) == "0.000123"
        assert format_value(float("nan")) == "nan"
        assert format_value(12) == "12"
        assert format_value(0.0) == "0"

    def test_render_table(self):
        text = render_table([{"a": 1, "b": 2.5}, {"a": 3}], title="T")
        assert "T" in text
        assert "a" in text and "b" in text
        assert "2.5" in text

    def test_render_table_empty(self):
        assert "empty" in render_table([], title=None) or render_table([]) == "(empty table)"

    def test_render_markdown_table(self):
        text = render_markdown_table([{"a": 1}], title="My table")
        assert text.startswith("**My table**")
        assert "| a |" in text
        assert "| --- |" in text

    def test_explicit_column_selection(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]
