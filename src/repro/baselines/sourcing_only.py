"""Sourcing-only baseline (the authors' preliminary work [3]).

The preliminary work "Achievable catalog size in peer-to-peer video-on-
demand systems" treats *sourcing* only: requests are assumed to concern
pairwise distinct videos and must be satisfied from the static allocation,
with no help from the playback caches of other viewers (no swarming).
Reproducing it amounts to running the same random allocation and matcher
while disabling the cache component of the possession relation — which is
what :class:`SourcingOnlyPossessionIndex` does — so the head-to-head
comparison in the baseline experiment isolates exactly the contribution of
mixing sourcing and swarming.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.core.possession import PossessionIndex

__all__ = ["SourcingOnlyPossessionIndex", "sourcing_capacity_bound"]


class SourcingOnlyPossessionIndex(PossessionIndex):
    """A possession index that ignores playback caches (pure sourcing).

    Only the static allocation (and relay caches, which are also static
    reservations) can serve a request.  Downloads are accepted but never
    recorded (it overrides :meth:`record_downloads`, the one download
    writer), so the index is a drop-in replacement inside the simulator
    and every possession query sees an empty playback cache.
    """

    def record_downloads(
        self, stripe_ids: np.ndarray, box_ids: np.ndarray, time: int
    ) -> None:
        """Sourcing-only: the playback caches of other viewers never help."""


def sourcing_capacity_bound(allocation: Allocation) -> int:
    """Maximum simultaneous *distinct-video* viewers a sourcing-only system supports.

    Without swarming, the requests for one video's stripes can only be
    served by the ``k`` boxes holding each stripe, so the aggregate service
    rate for one video is at most ``Σ_{replicas} ⌊u_b·c⌋ / c`` streams.
    This helper returns a simple aggregate bound — the total upload of the
    population in stream units — which is the hard ceiling on simultaneous
    viewers regardless of allocation quality; the simulator measures how
    far below this ceiling the sourcing-only system actually saturates.
    """
    c = allocation.catalog.num_stripes_per_video
    upload_slots = allocation.population.upload_slots(c)
    return int(upload_slots.sum() // c)
