"""The Hopcroft–Karp kernel on a CSR, seeded the way the connection matcher seeds it.

Test-side reference for the kernel's one seeded entry: the cold CSR entry
takes no seed, so a test that starts the kernel from an arbitrary warm
assignment runs it through this module.
"""

import numpy as np

from repro.flow import hopcroft_karp as hk_module
from repro.flow.repair import _retire_pairs


def csr_rows(indptr, indices):
    """The row source of a CSR adjacency, as the CSR entry builds it."""
    return hk_module._LazyRows(
        np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.int64)
    )


def solve_seeded(num_left, num_right, indptr, indices, caps, warm):
    """The kernel on a CSR, started from any warm assignment (``None``: all ``-1``).

    As the matcher does for a call without pair expiries, each pair of
    ``warm`` that is an edge of its row gets an expiry (round 0) and every
    other entry ``-1``, so :func:`repro.flow.repair._retire_pairs` at round
    0 unmatches the non-edges (garbage and out-of-range ids included), then
    each right node's pairs past its capacity in left order.
    :func:`repro.flow.hopcroft_karp.hopcroft_karp_rows` solves from what
    remains, on the CSR's own rows.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    caps = np.asarray(caps, dtype=np.int64)
    if warm is None:
        warm = np.full(num_left, -1, dtype=np.int64)
    seed = np.array(warm, dtype=np.int64)
    rows_of = np.repeat(np.arange(num_left, dtype=np.int64), np.diff(indptr))
    expiry = np.full(num_left, -1, dtype=np.int64)
    expiry[rows_of[indices == seed[rows_of]]] = 0
    _retire_pairs(seed, expiry, caps, 0)
    return hk_module.hopcroft_karp_rows(
        num_left, num_right, csr_rows(indptr, indices), caps, seed
    )
