"""Structural interfaces of the pluggable engine components.

These :class:`typing.Protocol` definitions pin down what the engine
actually consumes from each component, so alternative implementations can
be registered (:mod:`repro.api.registry`) and swapped without inheriting
from the built-in classes:

* :class:`Solver` — the per-round connection matcher (Lemma 1);
  :class:`~repro.core.matching.ConnectionMatcher` is the reference
  implementation, parameterized by kernel name;
* :class:`RequestScheduler` — turns one round's demands into dated stripe
  requests, as arrays (:class:`~repro.core.preloading.PreloadingScheduler`
  is the paper's preloading strategy, ``ImmediateRequestScheduler`` the
  ablation);
* :class:`DemandGenerator` — re-exported from :mod:`repro.workloads.base`:
  the per-round demand source;
* :class:`ChurnModel` — decides which boxes are offline each round
  (:class:`~repro.sim.churn.ChurnSchedule` is the deterministic reference).

All protocols are ``runtime_checkable`` so facade construction can
validate injected components early with ``isinstance``.
"""

from __future__ import annotations

from typing import (
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.core.matching import ConnectionMatching
from repro.core.possession import PossessionIndex
from repro.core.requests import RequestSet
from repro.workloads.base import DemandGenerator, SystemView

__all__ = [
    "Solver",
    "RequestScheduler",
    "DemandGenerator",
    "ChurnModel",
    "SystemView",
]


@runtime_checkable
class Solver(Protocol):
    """Per-round connection matching: requests × possession → assignment."""

    @property
    def upload_slots(self) -> np.ndarray:
        """Per-box stripe-upload capacities ``⌊u_b·c⌋`` of the instance."""
        ...  # pragma: no cover

    def match(
        self,
        requests: RequestSet,
        possession: PossessionIndex,
        current_time: int,
        busy_slots: Optional[Sequence[int]] = None,
        warm_start: Optional[Sequence[int]] = None,
        pair_expiry: Optional[Sequence[int]] = None,
    ) -> ConnectionMatching:
        """Solve the round's b-matching; must return a *maximum* matching.

        Every round the engine passes the previous round's assignment
        (``warm_start``, one entry per request) and the ``pair_expiry``
        that round's result carried (one entry per request, ``-1`` for the
        requests activated since; ``None`` when it carried none).  A
        solver may use both to repair rather than re-solve, or ignore
        them.  The engine keeps the ``pair_expiry`` of each result (``None``
        if it has none) for the next round, so a solver needs no round
        state.
        """
        ...  # pragma: no cover


@runtime_checkable
class RequestScheduler(Protocol):
    """Demands → dated stripe requests (the preloading strategy of Section 3).

    Both request methods return one round's requests as parallel arrays
    ``(stripe_ids, box_ids, demand_indices, is_preload)``: the stripe, the
    requesting box, the index of the demand that issued the request (into
    the engine's demand log, which is how playback starts are detected)
    and the preload flag.  A scheduler that relays data may also offer
    ``relay_cache_events_due(time) -> (relay_boxes, stripe_ids)``.
    """

    @property
    def start_up_delay(self) -> int:
        """Nominal start-up delay of the strategy, in rounds."""
        ...  # pragma: no cover

    def on_demand_arrays(
        self,
        video_ids: np.ndarray,
        box_ids: np.ndarray,
        demand_indices: np.ndarray,
        time: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Requests to issue at ``time`` for the round's accepted demands.

        The arrays list the demands in arrival order; requests for later
        rounds are queued internally.
        """
        ...  # pragma: no cover

    def due_arrays(
        self, time: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pop the postponed requests queued for round ``time``."""
        ...  # pragma: no cover


@runtime_checkable
class ChurnModel(Protocol):
    """Per-round box availability."""

    def offline_array(self, time: int) -> np.ndarray:
        """Sorted distinct int64 ids of the boxes offline at round ``time``."""
        ...  # pragma: no cover

    def is_offline(self, box_id: int, time: int) -> bool:
        """Whether ``box_id`` is offline at round ``time``."""
        ...  # pragma: no cover
