"""Utility helpers shared across the :mod:`repro` package.

The utilities are intentionally small and dependency free: seeded RNG
construction (:mod:`repro.util.rng`), argument validation helpers
(:mod:`repro.util.validation`), exact integer/rational arithmetic for
stripe-rate bookkeeping (:mod:`repro.util.intmath`), struct-of-arrays
column helpers (:mod:`repro.util.soa`) and atomic file replacement
(:mod:`repro.util.files`).
"""

from repro.util.rng import (
    RandomState,
    as_generator,
    spawn_generators,
    spawn_seed_sequences,
)
from repro.util.validation import (
    check_integer,
    check_positive,
    check_positive_integer,
    check_probability,
    check_in_range,
)
from repro.util.intmath import (
    ceil_div,
    floor_multiple,
    floor_to_stripe_units,
    lcm_of,
    scale_to_integer_capacities,
)
from repro.util.soa import stable_argsort
from repro.util.files import write_atomic

__all__ = [
    "RandomState",
    "as_generator",
    "spawn_generators",
    "spawn_seed_sequences",
    "check_integer",
    "check_positive",
    "check_positive_integer",
    "check_probability",
    "check_in_range",
    "ceil_div",
    "floor_multiple",
    "floor_to_stripe_units",
    "lcm_of",
    "scale_to_integer_capacities",
    "stable_argsort",
    "write_atomic",
]
