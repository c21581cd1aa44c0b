"""Popularity drift and flash-rotation demand models.

Real VoD popularity is not stationary: the Zipf *shape* of the
rank-frequency curve persists while the *identity* of the hot videos
drifts over days (new releases) and rotates over hours (front-page
promotion).  Two demand generators model those regimes on top of the
Poisson-arrival machinery of :mod:`repro.workloads.popularity`:

* :class:`DriftingZipfWorkload` — truncated-Zipf popularity whose
  video-to-rank assignment is reshuffled every ``drift_period`` rounds.
  Each epoch's weights are a *permutation* of the stationary Zipf
  weights, so the total demand mass and the rank-frequency shape are
  invariant; only which videos are hot changes.
* :class:`FlashRotationWorkload` — a rotating promoted hot set: a
  contiguous window of ``hot_videos`` catalog entries receives a
  ``boost``-fold popularity multiplier, and the window advances by its
  own width every ``rotation_period`` rounds (wrapping around the
  catalog), like a front page cycling its highlights.

Both generators draw all randomness from the single generator they are
constructed with — in scenarios that is a per-phase child stream of the
master seed.  The epoch schedule is a pure function of the queried round,
and epoch transitions consume randomness in epoch order, so a run over
rounds ``[0, T)`` is a prefix of a run over ``[0, T')`` for ``T' > T``
(append-stable).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.util.rng import RandomState, as_generator
from repro.util.validation import check_non_negative_integer, check_positive, check_positive_integer
from repro.workloads.base import SystemView
from repro.workloads.popularity import check_zipf_exponent, zipf_weights

__all__ = ["DriftingZipfWorkload", "FlashRotationWorkload"]

_EMPTY = np.empty(0, dtype=np.int64)


class DriftingZipfWorkload:
    """Poisson arrivals over a Zipf law whose ranks drift on a schedule.

    Parameters
    ----------
    arrival_rate:
        Expected number of new demands per round (Poisson distributed),
        truncated to the number of currently free boxes.
    exponent:
        Zipf exponent ``alpha`` of the per-epoch popularity law.
    drift_period:
        Number of rounds an epoch lasts.  Epoch 0 (rounds
        ``[start, start + drift_period)``) uses the identity ranking —
        video 0 is the hottest — and every later epoch draws a fresh
        uniform permutation of the video-to-rank assignment.
    start_time:
        First round at which demands may arrive.
    """

    def __init__(
        self,
        arrival_rate: float,
        exponent: float = 0.8,
        drift_period: int = 8,
        start_time: int = 0,
        random_state: RandomState = None,
    ):
        self._rate = check_positive(arrival_rate, "arrival_rate")
        self._exponent = check_zipf_exponent(exponent)
        self._period = check_positive_integer(drift_period, "drift_period")
        self._start = check_non_negative_integer(start_time, "start_time")
        self._rng = as_generator(random_state)
        self._base: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._epoch = -1

    def _epoch_of(self, time: int) -> int:
        return (time - self._start) // self._period

    def _refresh_weights(self, num_videos: int, time: int) -> None:
        """Advance the drift schedule up to the epoch covering ``time``.

        Permutations are drawn one per elapsed epoch (not one per query),
        so the random stream position depends only on the epoch reached —
        append-stable across horizons and identical on both demand paths.
        """
        if self._base is None or self._base.size != num_videos:
            self._base = zipf_weights(num_videos, self._exponent)
            self._weights = self._base
            self._epoch = 0
        epoch = self._epoch_of(time)
        while self._epoch < epoch:
            permutation = self._rng.permutation(num_videos)
            # Video permutation[r] takes rank r: a pure relabeling, so the
            # weight multiset (and its total mass) is exactly preserved.
            weights = np.empty_like(self._base)
            weights[permutation] = self._base
            self._weights = weights
            self._epoch += 1

    @property
    def current_weights(self) -> Optional[np.ndarray]:
        """The popularity weights of the epoch most recently queried."""
        return None if self._weights is None else self._weights.copy()

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw Poisson(rate) arrivals over the current epoch's drifted law."""
        if view.time < self._start:
            return _EMPTY, _EMPTY
        self._refresh_weights(view.catalog.num_videos, view.time)
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


class FlashRotationWorkload:
    """Poisson arrivals with a rotating promoted hot set.

    Parameters
    ----------
    arrival_rate:
        Expected number of new demands per round (Poisson distributed),
        truncated to the number of currently free boxes.
    hot_videos:
        Size of the promoted window (must fit in the catalog).
    rotation_period:
        Rounds between rotations; each rotation advances the window by
        ``hot_videos`` entries, wrapping around the catalog.
    boost:
        Popularity multiplier of a promoted video relative to a cold one
        (must exceed 1, otherwise there is no hot set to speak of).
    start_time:
        First round at which demands may arrive.
    """

    def __init__(
        self,
        arrival_rate: float,
        hot_videos: int = 4,
        rotation_period: int = 6,
        boost: float = 8.0,
        start_time: int = 0,
        random_state: RandomState = None,
    ):
        self._rate = check_positive(arrival_rate, "arrival_rate")
        self._hot = check_positive_integer(hot_videos, "hot_videos")
        self._period = check_positive_integer(rotation_period, "rotation_period")
        self._boost = check_positive(boost, "boost")
        if self._boost <= 1.0:
            raise ValueError(
                f"boost must exceed 1 (got {boost!r}): at boost <= 1 the "
                "promoted window is no hotter than the rest of the catalog — "
                "use the 'uniform' workload if that is intended"
            )
        self._start = check_non_negative_integer(start_time, "start_time")
        self._rng = as_generator(random_state)

    def hot_set(self, time: int, num_videos: int) -> np.ndarray:
        """The promoted video ids at round ``time`` (deterministic)."""
        if self._hot > num_videos:
            raise ValueError(
                f"hot_videos ({self._hot}) exceeds the catalog size "
                f"({num_videos}); shrink the promoted window or grow the catalog"
            )
        rotation = max(0, time - self._start) // self._period
        offset = (rotation * self._hot) % num_videos
        return (offset + np.arange(self._hot)) % num_videos

    def _weights(self, time: int, num_videos: int) -> np.ndarray:
        weights = np.ones(num_videos, dtype=np.float64)
        weights[self.hot_set(time, num_videos)] = self._boost
        return weights / weights.sum()

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw Poisson(rate) arrivals biased toward the promoted window."""
        if view.time < self._start:
            return _EMPTY, _EMPTY
        weights = self._weights(view.time, view.catalog.num_videos)
        count = int(self._rng.poisson(self._rate))
        free = np.asarray(view.free_boxes, dtype=np.int64)
        count = min(count, free.size)
        if count == 0:
            return _EMPTY, _EMPTY
        boxes = self._rng.choice(free, size=count, replace=False)
        videos = self._rng.choice(
            view.catalog.num_videos, size=count, replace=True, p=weights
        )
        return boxes.astype(np.int64, copy=False), videos.astype(np.int64, copy=False)
