"""Theorem 3: lock-based versus lock-free worst-case sojourn times.

Notation (Section 5):

* ``r`` / ``s`` — lock-based / lock-free object access time;
* ``u_i`` — computation time not involving shared objects;
* ``m_i`` — number of shared-object accesses by ``J_i``;
* ``n_i`` — number of jobs that could block ``J_i``
  (``n_i <= 2 a_i + x_i``);
* ``I_i`` — worst-case interference time;
* ``B_i = r * min(m_i, n_i)`` — worst-case blocking time (lock-based);
* ``R_i = s * f_i`` — worst-case retry time (lock-free, Theorem 2).

Worst-case sojourns:

* lock-based: ``u_i + I_i + r m_i + B_i``
* lock-free:  ``u_i + I_i + s m_i + R_i``

Theorem 3: lock-free yields the shorter maximum sojourn when

* ``s/r < 2/3``                                   if ``m_i <= n_i``;
* ``s/r < (m_i + n_i) / (m_i + 3 a_i + 2 x_i)``    if ``m_i > n_i``.

``s/r < 1`` is necessary in both regimes; ``r/s > 3/2`` is sufficient in
the first.
"""

from __future__ import annotations

from dataclasses import dataclass


def blocking_count_bound(m_i: int, n_i: int) -> int:
    """A job under RUA is blocked at most ``min(m_i, n_i)`` times
    (result quoted from the RUA paper [27])."""
    if m_i < 0 or n_i < 0:
        raise ValueError("counts must be non-negative")
    return min(m_i, n_i)


def lockbased_sojourn_bound(u_i: int, interference: int, r: float,
                            m_i: int, n_i: int) -> float:
    """Worst-case lock-based sojourn ``u_i + I_i + r m_i + B_i``."""
    blocking = r * blocking_count_bound(m_i, n_i)
    return u_i + interference + r * m_i + blocking


def lockfree_sojourn_bound(u_i: int, interference: int, s: float,
                           m_i: int, f_i: int) -> float:
    """Worst-case lock-free sojourn ``u_i + I_i + s m_i + s f_i``."""
    if f_i < 0:
        raise ValueError("retry bound must be non-negative")
    return u_i + interference + s * m_i + s * f_i


def lockfree_wins_ratio_threshold(m_i: int, n_i: int, a_i: int,
                                  x_i: int) -> float:
    """The Theorem 3 threshold on ``s/r`` as *stated* in the paper.

    Note the Case 1 statement (``2/3`` when ``m_i <= n_i``) comes from
    substituting ``X`` by its worst case ``2r(2a_i + x_i)`` in the proof;
    it coincides with the exact condition only when ``2 m_i`` is near
    ``3 a_i + 2 x_i``.  Use :func:`exact_ratio_threshold` for the
    condition that is sufficient for *all* parameter values (derived from
    the same proof's ``X``/``Y`` without the substitution).
    """
    if m_i <= n_i:
        return 2.0 / 3.0
    denominator = m_i + 3 * a_i + 2 * x_i
    if denominator <= 0:
        raise ValueError("degenerate parameters")
    return (m_i + n_i) / denominator


def exact_ratio_threshold(m_i: int, n_i: int, a_i: int, x_i: int) -> float:
    """Exact ``s/r`` threshold from Theorem 3's proof.

    With ``X = r(m_i + min(m_i, n_i))`` and
    ``Y = s(m_i + f_i) = s(m_i + 3 a_i + 2 x_i)``, lock-free wins exactly
    when ``s/r < (m_i + min(m_i, n_i)) / (m_i + 3 a_i + 2 x_i)`` — which
    is the paper's Case 2 expression, and generalizes Case 1 (where
    ``min = m_i``) without the worst-case substitution.
    """
    denominator = m_i + 3 * a_i + 2 * x_i
    if denominator <= 0:
        raise ValueError("degenerate parameters")
    return (m_i + min(m_i, n_i)) / denominator


@dataclass(frozen=True)
class SojournComparison:
    """Outcome of comparing the two worst-case sojourn bounds."""

    lockbased: float
    lockfree: float
    ratio: float                   # s / r
    paper_threshold: float         # Theorem 3 threshold as stated
    exact_threshold: float         # threshold from the proof's X/Y
    lockfree_wins: bool            # bound comparison
    predicted_lockfree_wins: bool  # exact-threshold test


def compare_sojourn(u_i: int, interference: int, r: float, s: float,
                    m_i: int, n_i: int, a_i: int, x_i: int,
                    f_i: int | None = None) -> SojournComparison:
    """Evaluate both bounds and the Theorem 3 prediction.

    ``f_i`` defaults to the Theorem 2 expression written in terms of
    ``a_i`` and ``x_i``: ``3 a_i + 2 x_i``.
    """
    if r <= 0 or s <= 0:
        raise ValueError("access times must be positive")
    if f_i is None:
        f_i = 3 * a_i + 2 * x_i
    lockbased = lockbased_sojourn_bound(u_i, interference, r, m_i, n_i)
    lockfree = lockfree_sojourn_bound(u_i, interference, s, m_i, f_i)
    paper = lockfree_wins_ratio_threshold(m_i, n_i, a_i, x_i)
    exact = exact_ratio_threshold(m_i, n_i, a_i, x_i)
    return SojournComparison(
        lockbased=lockbased,
        lockfree=lockfree,
        ratio=s / r,
        paper_threshold=paper,
        exact_threshold=exact,
        lockfree_wins=lockfree < lockbased,
        predicted_lockfree_wins=(s / r) < exact,
    )
