"""Core model of the paper: parameters, videos, boxes, allocations,
connection matching, the preloading strategy, heterogeneous balancing and
the threshold/obstruction numerics.

The subpackage follows the paper's structure:

* Section 1.1 (model)            → :mod:`repro.core.parameters`,
  :mod:`repro.core.video`
* Section 2.1 (random allocation) → :mod:`repro.core.allocation`
* Section 2.2–2.3 (matching)      → :mod:`repro.core.matching`
* Section 3 (Theorem 1)           → :mod:`repro.core.preloading`,
  :mod:`repro.core.thresholds`, :mod:`repro.core.obstruction`
* Section 4 (Theorem 2)           → :mod:`repro.core.heterogeneous`
* Section 1.3 (negative result)   → :mod:`repro.core.negative`
"""

from repro.core.parameters import (
    BoxPopulation,
    SystemParameters,
    homogeneous_population,
    pareto_population,
    proportional_population,
    two_class_population,
)
from repro.core.video import Catalog, Stripe, StripeId, Video
from repro.core.allocation import (
    Allocation,
    AllocationError,
    random_independent_allocation,
    random_permutation_allocation,
    round_robin_allocation,
)
from repro.core.matching import (
    ConnectionMatcher,
    ConnectionMatching,
    PossessionIndex,
    RequestSet,
    StripeRequest,
    check_feasibility_hall,
)
from repro.core.preloading import (
    START_UP_DELAY_ROUNDS,
    Demand,
    ImmediateRequestScheduler,
    PreloadingScheduler,
)
from repro.core.heterogeneous import (
    RELAYED_START_UP_DELAY_ROUNDS,
    CompensationError,
    CompensationPlan,
    RelayedPreloadingScheduler,
    compute_compensation_plan,
    direct_stripe_budget,
    is_balanced,
    is_upload_compensable,
)
from repro.core import thresholds, obstruction, negative

__all__ = [
    "BoxPopulation",
    "SystemParameters",
    "homogeneous_population",
    "pareto_population",
    "proportional_population",
    "two_class_population",
    "Catalog",
    "Stripe",
    "StripeId",
    "Video",
    "Allocation",
    "AllocationError",
    "random_independent_allocation",
    "random_permutation_allocation",
    "round_robin_allocation",
    "ConnectionMatcher",
    "ConnectionMatching",
    "PossessionIndex",
    "RequestSet",
    "StripeRequest",
    "check_feasibility_hall",
    "START_UP_DELAY_ROUNDS",
    "Demand",
    "ImmediateRequestScheduler",
    "PreloadingScheduler",
    "RELAYED_START_UP_DELAY_ROUNDS",
    "CompensationError",
    "CompensationPlan",
    "RelayedPreloadingScheduler",
    "compute_compensation_plan",
    "direct_stripe_budget",
    "is_balanced",
    "is_upload_compensable",
    "thresholds",
    "obstruction",
    "negative",
]
