"""System parameters and box populations (Table 1 of the paper).

The paper studies an ``(n, u, d)``-video system: ``n`` collaborating boxes
with *average* normalized upload capacity ``u`` (in units of the video
bitrate) and *average* storage capacity ``d`` (in number of videos).  This
module provides:

* :class:`SystemParameters` — the full parameter vector of Table 1
  (``n, m, d, k, u, c, µ, ℓ, T``), with the consistency relations between
  them (``k ≈ d n / m``, ``ℓ = 1/c``) enforced or derived.
* :class:`BoxPopulation` — per-box upload/storage vectors together with the
  classification predicates used throughout the paper (homogeneous,
  proportionally heterogeneous, ``u*``-storage-balanced) and the aggregate
  quantities (average upload, upload deficit ``Δ(u*)``).
* Constructors for the standard populations used in the experiments
  (homogeneous, proportional, two-class rich/poor, truncated-Pareto).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.util.rng import RandomState, as_generator
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_positive_integer,
)

__all__ = [
    "SystemParameters",
    "BoxPopulation",
    "homogeneous_population",
    "proportional_population",
    "two_class_population",
    "pareto_population",
]


@dataclass(frozen=True)
class SystemParameters:
    """The parameter vector of Table 1.

    Attributes
    ----------
    n:
        Number of boxes in the system.
    u:
        Average normalized upload capacity of a box (video bitrate = 1).
    d:
        Average storage capacity of a box, in number of videos.
    c:
        Number of stripes per video.  A video is viewed by downloading its
        ``c`` stripes (each of rate ``1/c``) simultaneously.
    mu:
        Maximal swarm growth: a swarm of size ``p`` at round ``t`` has size
        at most ``⌈max(p, 1)·µ⌉`` at round ``t+1``.
    m:
        Catalog size — the number of distinct videos stored in the system.
    k:
        Number of replicas of each stripe under random allocation.  The
        paper assumes ``k = d·n/m`` is an integer.
    video_rounds:
        Video duration ``T`` expressed in time rounds.  Only the playback
        cache window depends on it; the default (120) corresponds to a
        feature-length film with one-minute rounds.

    The minimal chunk size of the model is ``ℓ = 1/c`` (a box never stores
    less than one full stripe of a video it holds), exposed as
    :attr:`chunk_size`.
    """

    n: int
    u: float
    d: float
    c: int
    mu: float = 1.5
    m: Optional[int] = None
    k: Optional[int] = None
    video_rounds: int = 120

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_positive_integer(self.n, "n"))
        object.__setattr__(self, "u", check_non_negative(self.u, "u"))
        object.__setattr__(self, "d", check_positive(self.d, "d"))
        object.__setattr__(self, "c", check_positive_integer(self.c, "c"))
        object.__setattr__(self, "mu", check_in_range(self.mu, "mu", 1.0, math.inf))
        object.__setattr__(
            self, "video_rounds", check_positive_integer(self.video_rounds, "video_rounds")
        )
        m = self.m
        k = self.k
        total_slots = self.d * self.n  # total storage in videos
        if m is None and k is None:
            raise ValueError("at least one of m (catalog size) or k (replicas) is required")
        if m is None:
            k = check_positive_integer(k, "k")
            m = int(total_slots // k)
            if m <= 0:
                raise ValueError(
                    f"storage d*n={total_slots} too small for k={k} replicas per stripe"
                )
        elif k is None:
            m = check_positive_integer(m, "m")
            k = int(total_slots // m)
            if k <= 0:
                raise ValueError(
                    f"catalog m={m} exceeds total storage d*n={total_slots}: "
                    "cannot place even one replica per stripe"
                )
        else:
            m = check_positive_integer(m, "m")
            k = check_positive_integer(k, "k")
            if m * k > total_slots + 1e-9:
                raise ValueError(
                    f"m*k = {m * k} replica-videos exceed total storage d*n = {total_slots}"
                )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def chunk_size(self) -> float:
        """Minimal chunk size ``ℓ = 1/c``."""
        return 1.0 / self.c

    @property
    def stripe_rate(self) -> float:
        """Rate of a single stripe, ``1/c`` of the (unit) video bitrate."""
        return 1.0 / self.c

    @property
    def total_stripes(self) -> int:
        """Number of distinct stripes stored in the system, ``m·c``."""
        return self.m * self.c

    @property
    def total_replicas(self) -> int:
        """Number of stripe replicas stored in the system, ``k·m·c``."""
        return self.k * self.m * self.c

    @property
    def storage_slots_per_box(self) -> int:
        """Stripe-sized slots per box under homogeneous storage, ``⌊d·c⌋``."""
        return int(round(self.d * self.c))

    @property
    def uploads_per_box(self) -> int:
        """Whole stripes a box of upload ``u`` can serve per round, ``⌊u·c⌋``."""
        return int(math.floor(self.u * self.c + 1e-9))

    @property
    def effective_upload(self) -> float:
        """Effective upload ``u' = ⌊u·c⌋ / c`` after truncation to stripes."""
        return self.uploads_per_box / self.c

    def with_catalog(self, m: int) -> "SystemParameters":
        """Return a copy with catalog size ``m`` (and ``k`` re-derived)."""
        return SystemParameters(
            n=self.n, u=self.u, d=self.d, c=self.c, mu=self.mu, m=m, k=None,
            video_rounds=self.video_rounds,
        )

    def with_replication(self, k: int) -> "SystemParameters":
        """Return a copy with replication factor ``k`` (and ``m`` re-derived)."""
        return SystemParameters(
            n=self.n, u=self.u, d=self.d, c=self.c, mu=self.mu, m=None, k=k,
            video_rounds=self.video_rounds,
        )

    def describe(self) -> Dict[str, float]:
        """Return the Table 1 parameter vector as a plain dictionary."""
        return {
            "n": self.n,
            "m": self.m,
            "d": self.d,
            "k": self.k,
            "u": self.u,
            "c": self.c,
            "mu": self.mu,
            "ell": self.chunk_size,
            "T": self.video_rounds,
        }


class BoxPopulation:
    """A population of boxes with per-box upload and storage capacities.

    Parameters
    ----------
    uploads:
        Normalized upload capacity ``u_b`` of every box (video bitrate = 1).
    storages:
        Storage capacity ``d_b`` of every box, in number of videos.

    The class exposes the aggregate quantities and classification
    predicates of Sections 1.1 and 4 of the paper.
    """

    def __init__(self, uploads: Sequence[float], storages: Sequence[float]):
        uploads_arr = np.asarray(uploads, dtype=np.float64)
        storages_arr = np.asarray(storages, dtype=np.float64)
        if uploads_arr.ndim != 1 or storages_arr.ndim != 1:
            raise ValueError("uploads and storages must be 1-D sequences")
        if uploads_arr.size == 0:
            raise ValueError("population must contain at least one box")
        if uploads_arr.size != storages_arr.size:
            raise ValueError(
                f"uploads ({uploads_arr.size}) and storages ({storages_arr.size}) "
                "must have the same length"
            )
        if np.any(uploads_arr < 0):
            raise ValueError("upload capacities must be non-negative")
        if np.any(storages_arr < 0):
            raise ValueError("storage capacities must be non-negative")
        self._uploads = uploads_arr.copy()
        self._storages = storages_arr.copy()
        self._uploads.setflags(write=False)
        self._storages.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of boxes."""
        return int(self._uploads.size)

    def __len__(self) -> int:
        return self.n

    @property
    def uploads(self) -> np.ndarray:
        """Read-only array of per-box uploads ``u_b``."""
        return self._uploads

    @property
    def storages(self) -> np.ndarray:
        """Read-only array of per-box storages ``d_b``."""
        return self._storages

    @property
    def average_upload(self) -> float:
        """Average upload ``u`` across the population."""
        return float(self._uploads.mean())

    @property
    def average_storage(self) -> float:
        """Average storage ``d`` across the population."""
        return float(self._storages.mean())

    @property
    def total_upload(self) -> float:
        """Aggregate upload capacity ``Σ_b u_b``."""
        return float(self._uploads.sum())

    @property
    def max_storage(self) -> float:
        """``d_max = max_b d_b`` — appears in the negative result."""
        return float(self._storages.max())

    @property
    def min_upload(self) -> float:
        """``min_b u_b``."""
        return float(self._uploads.min())

    @property
    def max_upload(self) -> float:
        """``max_b u_b``."""
        return float(self._uploads.max())

    # ------------------------------------------------------------------ #
    # Classification predicates (Sections 1.1 and 4)
    # ------------------------------------------------------------------ #
    def is_homogeneous(self, tol: float = 1e-9) -> bool:
        """Whether every box has the same upload and the same storage."""
        return bool(
            np.allclose(self._uploads, self._uploads[0], atol=tol)
            and np.allclose(self._storages, self._storages[0], atol=tol)
        )

    def is_proportionally_heterogeneous(self, tol: float = 1e-9) -> bool:
        """Whether ``u_b / d_b`` is the same for every box.

        The paper calls such a system *proportionally heterogeneous*; it is
        automatically ``u*``-storage-balanced for ``d ≥ 2`` and ``u* ≤ u``.
        """
        if np.any(self._storages <= 0):
            return False
        ratios = self._uploads / self._storages
        return bool(np.allclose(ratios, ratios[0], atol=tol))

    def upload_deficit(self, u_star: float) -> float:
        """Upload deficit ``Δ(u*) = Σ_{b : u_b < u*} (u* − u_b)``.

        The aggregate bandwidth missing to *poor* boxes, i.e. boxes with
        capacity below the threshold ``u*``.
        """
        u_star = check_positive(u_star, "u_star")
        poor = self._uploads < u_star
        return float(np.sum(u_star - self._uploads[poor]))

    def poor_boxes(self, u_star: float) -> np.ndarray:
        """Indices of boxes with ``u_b < u*`` (the *poor* boxes)."""
        u_star = check_positive(u_star, "u_star")
        return np.flatnonzero(self._uploads < u_star).astype(np.int64)

    def rich_boxes(self, u_star: float) -> np.ndarray:
        """Indices of boxes with ``u_b ≥ u*`` (the *rich* boxes)."""
        u_star = check_positive(u_star, "u_star")
        return np.flatnonzero(self._uploads >= u_star).astype(np.int64)

    def is_storage_balanced(self, u_star: float, tol: float = 1e-9) -> bool:
        """Whether the population is ``u*``-storage-balanced.

        Requires ``2 ≤ d_b/u_b`` and ``d_b/u_b ≤ d/u*`` for every box
        (Section 4).  Boxes with zero upload are only admissible if they
        also have zero storage (they contribute nothing either way).
        """
        u_star = check_positive(u_star, "u_star")
        d_avg = self.average_storage
        for ub, db in zip(self._uploads, self._storages):
            if ub <= tol:
                if db > tol:
                    return False
                continue
            ratio = db / ub
            if ratio < 2.0 - tol:
                return False
            if ratio > d_avg / u_star + tol:
                return False
        return True

    def satisfies_scalability_condition(self, tol: float = 1e-12) -> bool:
        """Whether ``u > 1 + Δ(1)/n`` — the heterogeneous scalability condition."""
        return self.average_upload > 1.0 + self.upload_deficit(1.0) / self.n + tol

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def scaled_storage(self, factor: float) -> "BoxPopulation":
        """Return a copy with every storage capacity multiplied by ``factor``."""
        factor = check_positive(factor, "factor")
        return BoxPopulation(self._uploads, self._storages * factor)

    def truncated_storage_to_ratio(self, tau: Optional[float] = None) -> "BoxPopulation":
        """Reduce storage to ``d'_b = τ·u_b`` with ``τ = min_b d_b/u_b``.

        Section 4: a system with ``d_b/u_b ≥ 2`` for all ``b`` can always be
        considered ``u*``-storage-balanced by artificially reducing storage.
        """
        positive = self._uploads > 0
        if not np.any(positive):
            raise ValueError("cannot balance a population with no upload capacity")
        ratios = self._storages[positive] / self._uploads[positive]
        tau_val = float(ratios.min()) if tau is None else check_positive(tau, "tau")
        return BoxPopulation(self._uploads, self._uploads * tau_val)

    def storage_slots(self, c: int) -> np.ndarray:
        """Per-box number of stripe-sized storage slots, ``⌊d_b·c⌋``."""
        c = check_positive_integer(c, "c")
        return np.floor(self._storages * c + 1e-9).astype(np.int64)

    def upload_slots(self, c: int) -> np.ndarray:
        """Per-box number of stripes uploadable per round, ``⌊u_b·c⌋``."""
        c = check_positive_integer(c, "c")
        return np.floor(self._uploads * c + 1e-9).astype(np.int64)

    def parameters(
        self,
        c: int,
        mu: float = 1.5,
        m: Optional[int] = None,
        k: Optional[int] = None,
        video_rounds: int = 120,
    ) -> SystemParameters:
        """Build the :class:`SystemParameters` vector for this population."""
        return SystemParameters(
            n=self.n,
            u=self.average_upload,
            d=self.average_storage,
            c=c,
            mu=mu,
            m=m,
            k=k,
            video_rounds=video_rounds,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BoxPopulation(n={self.n}, u_avg={self.average_upload:.3f}, "
            f"d_avg={self.average_storage:.3f}, "
            f"homogeneous={self.is_homogeneous()})"
        )


# ---------------------------------------------------------------------- #
# Standard populations
# ---------------------------------------------------------------------- #
def homogeneous_population(n: int, u: float, d: float) -> BoxPopulation:
    """A homogeneous population: every box has upload ``u`` and storage ``d``."""
    n = check_positive_integer(n, "n")
    u = check_non_negative(u, "u")
    d = check_positive(d, "d")
    return BoxPopulation(np.full(n, u), np.full(n, d))


def proportional_population(
    uploads: Sequence[float], storage_per_upload: float
) -> BoxPopulation:
    """A proportionally heterogeneous population with ``d_b = ratio · u_b``."""
    ratio = check_positive(storage_per_upload, "storage_per_upload")
    uploads_arr = np.asarray(uploads, dtype=np.float64)
    return BoxPopulation(uploads_arr, uploads_arr * ratio)


def two_class_population(
    n: int,
    rich_fraction: float,
    u_rich: float,
    u_poor: float,
    d_rich: float,
    d_poor: float,
    random_state: RandomState = None,
    shuffle: bool = False,
) -> BoxPopulation:
    """A rich/poor two-class population (the heterogeneous experiments).

    ``rich_fraction`` of the boxes get ``(u_rich, d_rich)``; the rest get
    ``(u_poor, d_poor)``.  With ``shuffle=True`` box indices are randomly
    interleaved, which matters only for readability of traces.
    """
    n = check_positive_integer(n, "n")
    rich_fraction = check_in_range(rich_fraction, "rich_fraction", 0.0, 1.0)
    n_rich = int(round(n * rich_fraction))
    n_poor = n - n_rich
    uploads = np.concatenate([np.full(n_rich, u_rich), np.full(n_poor, u_poor)])
    storages = np.concatenate([np.full(n_rich, d_rich), np.full(n_poor, d_poor)])
    if shuffle:
        order = as_generator(random_state).permutation(n)
        uploads = uploads[order]
        storages = storages[order]
    return BoxPopulation(uploads, storages)


def pareto_population(
    n: int,
    u_min: float,
    shape: float,
    storage_per_upload: float,
    u_cap: Optional[float] = None,
    random_state: RandomState = None,
) -> BoxPopulation:
    """A truncated-Pareto upload population with proportional storage.

    Models a realistic heavy-tailed access-link distribution: uploads are
    ``u_min · (1 + Pareto(shape))`` capped at ``u_cap`` and storage is
    proportional, so the population is proportionally heterogeneous.
    """
    n = check_positive_integer(n, "n")
    u_min = check_positive(u_min, "u_min")
    shape = check_positive(shape, "shape")
    gen = as_generator(random_state)
    uploads = u_min * (1.0 + gen.pareto(shape, size=n))
    if u_cap is not None:
        u_cap = check_positive(u_cap, "u_cap")
        if u_cap < u_min:
            raise ValueError(f"u_cap ({u_cap}) must be at least u_min ({u_min})")
        uploads = np.minimum(uploads, u_cap)
    return proportional_population(uploads, storage_per_upload)
