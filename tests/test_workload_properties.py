"""Statistical property tests for the workload-realism generators.

Distribution-level pinning of the Zipf / drift / flash-rotation / trace
generators, beyond the digest pins of the golden suite:

* the Zipf sampler's empirical rank-frequency curve matches the
  configured ``alpha`` — Kolmogorov–Smirnov distance inside a DKW bound
  and a chi-square statistic inside its concentration bound, plus an
  exact weight-space slope identity sweep under hypothesis;
* per-round arrival counts are Poisson — mean and variance/mean (Fano)
  agreement within seeded, non-flaky tolerances;
* the drift schedule preserves total popularity mass exactly (each epoch
  is a pure permutation of the stationary weights);
* the streaming trace reader agrees record-for-record with an
  independent in-memory decode of the committed fixture, and the
  write/read round-trip is lossless on hypothesis-generated traces.

Every hypothesis suite runs 200+ examples, derandomized (fixed seeds);
the heavy Monte-Carlo checks use one pinned seed each, and their bounds
are wide enough (4–6 sigma / DKW at alpha = 1e-3) that a pass is a
property of the distribution, not of the seed.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.workloads.drift import DriftingZipfWorkload, FlashRotationWorkload
from repro.workloads.popularity import ZipfDemandWorkload, zipf_weights
from repro.core.allocation import random_permutation_allocation
from repro.core.parameters import homogeneous_population
from repro.core.video import Catalog
from repro.sim.swarm import SwarmRegistry
from repro.workloads.base import SystemView
from repro.workloads.trace import (
    TRACE_MAGIC,
    iter_trace,
    load_trace,
    read_trace_header,
    resolve_trace_path,
    write_trace,
)


def make_view(time=0, n=30, m=20, c=4, u=1.5, d=3.0, k=3, mu=2.0, seed=0, free=None):
    catalog = Catalog(num_videos=m, num_stripes=c, duration=25)
    population = homogeneous_population(n, u=u, d=d)
    allocation = random_permutation_allocation(catalog, population, k, random_state=seed)
    swarms = SwarmRegistry(mu=mu, duration=25)
    return SystemView(
        time=time,
        catalog=catalog,
        allocation=allocation,
        population=population,
        swarms=swarms,
        free_boxes=np.arange(n if free is None else free, dtype=np.int64),
    )

_SETTINGS = settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The committed fixture replayed by the trace_replay scenario.
FIXTURE = "zipf_small"
FIXTURE_VIDEOS = 16
FIXTURE_EVENTS = 82


def _collect_videos(workload, *, rounds, n, m, seed):
    """All video ids a generator emits over ``rounds`` rounds."""
    videos = []
    for time in range(rounds):
        view = make_view(time=time, n=n, m=m, seed=seed)
        _, vids = workload.demand_arrays_for_round(view)
        videos.extend(vids.tolist())
    return np.asarray(videos, dtype=np.int64)


def _collect_counts(workload, *, rounds, n, m, seed):
    """Per-round arrival counts over ``rounds`` rounds."""
    counts = []
    for time in range(rounds):
        view = make_view(time=time, n=n, m=m, seed=seed)
        boxes, _ = workload.demand_arrays_for_round(view)
        counts.append(boxes.size)
    return np.asarray(counts, dtype=np.int64)


class TestZipfRankFrequency:
    """The empirical popularity law matches the configured exponent."""

    @pytest.mark.parametrize("alpha", [0.8, 1.2])
    def test_ks_distance_within_dkw_bound(self, alpha):
        m = 20
        workload = ZipfDemandWorkload(
            arrival_rate=15.0, exponent=alpha, random_state=321
        )
        videos = _collect_videos(workload, rounds=400, n=400, m=m, seed=1)
        n_samples = videos.size
        assert n_samples >= 5000
        empirical_cdf = np.cumsum(np.bincount(videos, minlength=m)) / n_samples
        theoretical_cdf = np.cumsum(zipf_weights(m, alpha))
        ks = float(np.max(np.abs(empirical_cdf - theoretical_cdf)))
        # DKW: P(KS > eps) <= 2 exp(-2 n eps^2); eps for alpha = 1e-3.
        eps = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n_samples))
        assert ks <= eps, f"KS {ks:.4f} exceeds DKW bound {eps:.4f} at n={n_samples}"

    @pytest.mark.parametrize("alpha", [0.8, 1.2])
    def test_chi_square_within_concentration_bound(self, alpha):
        m = 20
        workload = ZipfDemandWorkload(
            arrival_rate=15.0, exponent=alpha, random_state=654
        )
        videos = _collect_videos(workload, rounds=400, n=400, m=m, seed=2)
        n_samples = videos.size
        observed = np.bincount(videos, minlength=m).astype(np.float64)
        expected = zipf_weights(m, alpha) * n_samples
        assert expected.min() >= 5.0  # the classic chi-square validity floor
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        # chi2(df) has mean df and variance 2 df; 6 sigma is far beyond
        # any plausible seed fluctuation while still catching a wrong
        # exponent (which inflates the statistic by O(n)).
        df = m - 1
        assert statistic <= df + 6.0 * math.sqrt(2.0 * df), (
            f"chi-square {statistic:.1f} too large for df={df}: the sampler "
            f"does not follow zipf_weights({m}, {alpha})"
        )

    def test_wrong_exponent_is_rejected_by_the_same_bounds(self):
        """The bounds above have power: alpha=0.8 samples fail the 1.4 law."""
        m = 20
        workload = ZipfDemandWorkload(
            arrival_rate=15.0, exponent=0.8, random_state=321
        )
        videos = _collect_videos(workload, rounds=400, n=400, m=m, seed=1)
        n_samples = videos.size
        observed = np.bincount(videos, minlength=m).astype(np.float64)
        wrong = zipf_weights(m, 1.4) * n_samples
        statistic = float(np.sum((observed - wrong) ** 2 / wrong))
        df = m - 1
        assert statistic > df + 6.0 * math.sqrt(2.0 * df)

    def test_log_log_slope_matches_alpha(self):
        alpha, m = 1.0, 20
        workload = ZipfDemandWorkload(
            arrival_rate=15.0, exponent=alpha, random_state=987
        )
        videos = _collect_videos(workload, rounds=400, n=400, m=m, seed=3)
        counts = np.bincount(videos, minlength=m).astype(np.float64)
        # Regress log-frequency on log-rank over the well-sampled head.
        head = counts[:10]
        assert head.min() > 50
        log_rank = np.log(np.arange(1, head.size + 1, dtype=np.float64))
        log_freq = np.log(head / videos.size)
        slope = float(np.polyfit(log_rank, log_freq, 1)[0])
        assert abs(slope + alpha) < 0.15, (
            f"rank-frequency slope {slope:.3f} should be about {-alpha}"
        )

    @given(
        m=st.integers(min_value=2, max_value=400),
        alpha=st.floats(min_value=0.05, max_value=3.0),
        i=st.integers(min_value=0, max_value=399),
        j=st.integers(min_value=0, max_value=399),
    )
    @_SETTINGS
    def test_weight_space_slope_identity(self, m, alpha, i, j):
        """Exact law: log(w_i/w_j) = -alpha * log((i+1)/(j+1)), sum == 1."""
        i, j = i % m, j % m
        w = zipf_weights(m, alpha)
        assert w.shape == (m,)
        assert math.isclose(float(w.sum()), 1.0, rel_tol=0, abs_tol=1e-12)
        assert np.all(np.diff(w) <= 0)
        expected = -alpha * math.log((i + 1) / (j + 1))
        assert math.isclose(
            math.log(w[i] / w[j]), expected, rel_tol=1e-9, abs_tol=1e-9
        )


class TestPoissonArrivals:
    """Per-round arrival counts follow the configured Poisson law."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda rate, seed: ZipfDemandWorkload(rate, exponent=0.8, random_state=seed),
            lambda rate, seed: DriftingZipfWorkload(
                rate, exponent=0.8, drift_period=7, random_state=seed
            ),
            lambda rate, seed: FlashRotationWorkload(
                rate, hot_videos=4, rotation_period=5, boost=6.0, random_state=seed
            ),
        ],
        ids=["zipf", "drift", "flash_rotation"],
    )
    def test_mean_and_fano_factor(self, factory):
        rate, rounds = 6.0, 600
        counts = _collect_counts(
            factory(rate, 777), rounds=rounds, n=200, m=20, seed=4
        )
        # n=200 free boxes vs rate 6: truncation is astronomically rare,
        # so the counts are untruncated Poisson(rate) draws.
        mean = float(counts.mean())
        sigma_of_mean = math.sqrt(rate / rounds)
        assert abs(mean - rate) <= 5.0 * sigma_of_mean, (
            f"mean arrivals {mean:.3f} not within 5 sigma of rate {rate}"
        )
        fano = float(counts.var()) / mean
        # Var(sample Fano) ~ 2/rounds for Poisson; 5 sigma again.
        assert abs(fano - 1.0) <= 5.0 * math.sqrt(2.0 / rounds), (
            f"Fano factor {fano:.3f} is not Poisson-like"
        )

    def test_counts_truncate_to_free_boxes(self):
        workload = ZipfDemandWorkload(50.0, exponent=0.8, random_state=5)
        view = make_view(time=0, n=200, m=20, seed=5, free=4)
        boxes, videos = workload.demand_arrays_for_round(view)
        assert boxes.size == videos.size <= 4
        assert np.unique(boxes).size == boxes.size  # distinct requesters


class TestDriftMassPreservation:
    @given(
        m=st.integers(min_value=2, max_value=60),
        alpha=st.floats(min_value=0.1, max_value=2.0),
        period=st.integers(min_value=1, max_value=6),
        epochs=st.integers(min_value=0, max_value=5),
    )
    @_SETTINGS
    def test_every_epoch_is_a_permutation_of_the_stationary_law(
        self, m, alpha, period, epochs
    ):
        workload = DriftingZipfWorkload(
            3.0, exponent=alpha, drift_period=period, random_state=9
        )
        workload._refresh_weights(m, epochs * period)
        weights = workload.current_weights
        base = zipf_weights(m, alpha)
        assert math.isclose(float(weights.sum()), 1.0, rel_tol=0, abs_tol=1e-12)
        np.testing.assert_array_equal(np.sort(weights), np.sort(base))

    def test_epoch_zero_is_the_identity_ranking(self):
        workload = DriftingZipfWorkload(3.0, exponent=1.0, drift_period=4, random_state=9)
        workload._refresh_weights(12, 0)
        np.testing.assert_array_equal(workload.current_weights, zipf_weights(12, 1.0))

    def test_drift_actually_reshuffles(self):
        workload = DriftingZipfWorkload(3.0, exponent=1.0, drift_period=4, random_state=9)
        workload._refresh_weights(12, 0)
        first = workload.current_weights
        workload._refresh_weights(12, 4)
        second = workload.current_weights
        assert not np.array_equal(first, second)

    @given(
        m=st.integers(min_value=2, max_value=40),
        hot=st.integers(min_value=1, max_value=8),
        period=st.integers(min_value=1, max_value=6),
        time=st.integers(min_value=0, max_value=200),
    )
    @_SETTINGS
    def test_flash_rotation_weights_are_normalized_and_boosted(
        self, m, hot, period, time
    ):
        hot = min(hot, m)
        workload = FlashRotationWorkload(
            3.0, hot_videos=hot, rotation_period=period, boost=6.0, random_state=9
        )
        weights = workload._weights(time, m)
        assert math.isclose(float(weights.sum()), 1.0, rel_tol=0, abs_tol=1e-12)
        hot_set = workload.hot_set(time, m)
        assert hot_set.size == hot
        cold = np.setdiff1d(np.arange(m), hot_set)
        if cold.size:
            assert math.isclose(
                float(weights[hot_set[0]] / weights[cold[0]]), 6.0, rel_tol=1e-12
            )

    def test_rotation_sweeps_the_catalog(self):
        m, hot, period = 12, 3, 2
        workload = FlashRotationWorkload(
            3.0, hot_videos=hot, rotation_period=period, boost=4.0, random_state=9
        )
        covered = set()
        for time in range(0, period * (m // hot), period):
            covered.update(workload.hot_set(time, m).tolist())
        assert covered == set(range(m))


class TestTraceReader:
    def test_streaming_reader_matches_independent_in_memory_decode(self):
        """iter_trace ≡ a one-shot struct decode of the committed fixture."""
        path = Path(resolve_trace_path(FIXTURE))
        raw = path.read_bytes()
        magic, version, _reserved, num_videos, num_events = struct.unpack_from(
            "<4sHHIQ", raw, 0
        )
        assert magic == TRACE_MAGIC and version == 1
        assert num_videos == FIXTURE_VIDEOS and num_events == FIXTURE_EVENTS
        flat = np.frombuffer(raw[20:], dtype="<u4").reshape(num_events, 2)
        reference = [(int(t), int(v)) for t, v in flat]
        assert list(iter_trace(str(path))) == reference
        header, events = load_trace(str(path))
        assert (header.num_videos, header.num_events) == (num_videos, num_events)
        assert events == reference

    def test_fixture_is_well_formed(self):
        header, events = load_trace(resolve_trace_path(FIXTURE))
        times = [t for t, _ in events]
        assert times == sorted(times)
        assert all(0 <= v < header.num_videos for _, v in events)

    @given(
        deltas=st.lists(st.integers(min_value=0, max_value=3), max_size=40),
        videos=st.lists(st.integers(min_value=0, max_value=9), max_size=40),
    )
    @_SETTINGS
    def test_write_read_round_trip(self, deltas, videos, tmp_path_factory):
        size = min(len(deltas), len(videos))
        times = np.cumsum(deltas[:size]).tolist()
        events = list(zip(times, videos[:size]))
        path = tmp_path_factory.mktemp("trace") / "roundtrip.trace"
        assert write_trace(str(path), events, num_videos=10) == size
        header = read_trace_header(str(path))
        assert (header.num_videos, header.num_events) == (10, size)
        assert list(iter_trace(str(path))) == [(int(t), int(v)) for t, v in events]

    def test_streaming_is_chunked(self, tmp_path, monkeypatch):
        """A trace longer than one chunk decodes across several reads."""
        import repro.workloads.trace as trace_mod

        monkeypatch.setattr(trace_mod, "CHUNK_EVENTS", 7)
        events = [(t // 3, t % 5) for t in range(100)]
        path = tmp_path / "long.trace"
        write_trace(str(path), events, num_videos=5)
        assert list(iter_trace(str(path))) == events

    def test_stream_starts_at_the_given_event(self, tmp_path, monkeypatch):
        import repro.workloads.trace as trace_mod

        monkeypatch.setattr(trace_mod, "CHUNK_EVENTS", 7)
        events = [(t // 3, t % 5) for t in range(30)]
        path = tmp_path / "long.trace"
        write_trace(str(path), events, num_videos=5)
        for start in (0, 1, 7, 13, 29, 30, 31):
            assert list(iter_trace(str(path), start)) == events[start:]
