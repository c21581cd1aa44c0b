"""Popularity-driven (benign) demand models.

The theorems are worst-case, but the experiments also exercise the system
under realistic demand: Zipf-distributed video popularity with Poisson
arrivals (the standard VoD workload model) and a uniform-popularity
variant.  These are the "easy" baselines against which the adversarial
workloads are contrasted in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.util.rng import RandomState, as_generator
from repro.util.validation import check_non_negative_integer, check_positive
from repro.workloads.base import SystemView

__all__ = ["check_zipf_exponent", "zipf_weights", "ZipfDemandWorkload", "UniformDemandWorkload"]

_EMPTY = np.empty(0, dtype=np.int64)


def check_zipf_exponent(exponent: float, name: str = "exponent") -> float:
    """Validate a Zipf exponent ``alpha``, with an actionable message.

    The popularity law ``p_v ∝ 1/rank^alpha`` is only a skewed
    distribution for ``alpha > 0``; empirical VoD fits put alpha around
    0.8-1.2.  ``alpha <= 0`` (or a non-finite value) is almost always a
    sign/units mistake, so it is rejected rather than silently producing
    an anti-popular or degenerate law.
    """
    exponent = float(exponent)
    if not math.isfinite(exponent) or exponent <= 0:
        raise ValueError(
            f"{name} must be a finite positive float, got {exponent!r}; "
            "Zipf popularity needs alpha > 0 (VoD fits are typically "
            "0.8-1.2) — for flat popularity use the 'uniform' workload "
            "instead of alpha <= 0"
        )
    return exponent


def zipf_weights(num_videos: int, exponent: float = 0.8) -> np.ndarray:
    """Normalized Zipf popularity weights ``p_v ∝ 1/(v+1)^exponent``."""
    if num_videos <= 0:
        raise ValueError(f"num_videos must be positive, got {num_videos}")
    if num_videos == 1:
        raise ValueError(
            "a Zipf popularity law over a single-video catalog is degenerate "
            "(every demand hits video 0); grow the catalog to >= 2 videos or "
            "use the 'flashcrowd' workload to target one video deliberately"
        )
    exponent = check_zipf_exponent(exponent)
    ranks = np.arange(1, num_videos + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


class ZipfDemandWorkload:
    """Poisson arrivals with Zipf-distributed video popularity.

    Parameters
    ----------
    arrival_rate:
        Expected number of new demands per round (Poisson distributed),
        truncated to the number of currently free boxes.
    exponent:
        Zipf exponent of the popularity distribution (0.8 is the classic
        VoD fit).
    start_time:
        First round at which demands may arrive.
    """

    def __init__(
        self,
        arrival_rate: float,
        exponent: float = 0.8,
        start_time: int = 0,
        random_state: RandomState = None,
    ):
        self._rate = check_positive(arrival_rate, "arrival_rate")
        self._exponent = check_zipf_exponent(exponent)
        self._start = check_non_negative_integer(start_time, "start_time")
        self._rng = as_generator(random_state)
        self._weights: Optional[np.ndarray] = None

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw Poisson(rate) arrivals and assign them Zipf-popular videos.

        The boxes are distinct (sampled without replacement).
        """
        if view.time < self._start:
            return _EMPTY, _EMPTY
        if self._weights is None or self._weights.size != view.catalog.num_videos:
            self._weights = zipf_weights(view.catalog.num_videos, self._exponent)
        count = int(self._rng.poisson(self._rate))
        free = np.asarray(view.free_boxes, dtype=np.int64)
        count = min(count, free.size)
        if count == 0:
            return _EMPTY, _EMPTY
        boxes = self._rng.choice(free, size=count, replace=False)
        videos = self._rng.choice(
            view.catalog.num_videos, size=count, replace=True, p=self._weights
        )
        return boxes.astype(np.int64, copy=False), videos.astype(np.int64, copy=False)


class UniformDemandWorkload:
    """Poisson arrivals with uniformly random video choice."""

    def __init__(
        self,
        arrival_rate: float,
        start_time: int = 0,
        random_state: RandomState = None,
    ):
        self._rate = check_positive(arrival_rate, "arrival_rate")
        self._start = check_non_negative_integer(start_time, "start_time")
        self._rng = as_generator(random_state)

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw Poisson(rate) arrivals over uniformly random videos."""
        if view.time < self._start:
            return _EMPTY, _EMPTY
        count = int(self._rng.poisson(self._rate))
        free = np.asarray(view.free_boxes, dtype=np.int64)
        count = min(count, free.size)
        if count == 0:
            return _EMPTY, _EMPTY
        boxes = self._rng.choice(free, size=count, replace=False)
        videos = self._rng.integers(0, view.catalog.num_videos, size=count)
        return boxes.astype(np.int64, copy=False), videos.astype(np.int64, copy=False)
