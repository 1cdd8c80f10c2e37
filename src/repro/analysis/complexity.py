"""Asymptotic scheduler cost (Sections 3.6 and 5).

Lock-based RUA costs ``O(n^2 log n)``: dependency chains ``O(n^2)``, PUDs
``O(n^2)``, deadlock tests ``O(n^2)``, PUD sort ``O(n log n)``, and the
dominating schedule construction ``O(n^2 log n)`` (each job drags its
``O(n)`` chain through ``O(log n)`` ordered-list operations).  Lock-free
RUA drops the chain-dependent steps: PUDs cost ``O(n)`` and construction
``O(n^2)``, for ``O(n^2)`` total.

These operation-count models back the simulated cost charged per
scheduling pass; ``scripts/pass_cost.py`` measures the wall time of the
real policy implementations against n and fits the log-log slope.
"""

from __future__ import annotations

import math


def lockbased_rua_operations(n: int) -> float:
    """Operation-count model for one lock-based RUA pass (Section 3.6):
    ``n^2 + n^2 + n^2 + n log n + n^2 log n``, reported as the dominant
    profile ``3 n^2 + n log n + n^2 log n``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 0.0
    log_n = math.log2(n + 1)
    return 3 * n * n + n * log_n + n * n * log_n


def lockfree_rua_operations(n: int) -> float:
    """Operation-count model for one lock-free RUA pass (Section 5):
    PUDs ``O(n)``, sort ``n log n``, construction ``n^2``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 0.0
    return n + n * math.log2(n + 1) + n * n


def cost_ratio(n: int) -> float:
    """Model ratio lock-based / lock-free at ``n`` jobs — approaches
    ``~3 + log2(n)`` for large ``n``."""
    lockfree = lockfree_rua_operations(n)
    if lockfree == 0:
        return 1.0
    return lockbased_rua_operations(n) / lockfree
