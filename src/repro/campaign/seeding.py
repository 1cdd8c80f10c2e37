"""Deterministic seed derivation and retry backoff.

The campaign determinism contract (DESIGN.md §9) requires every trial's
RNG stream to be a pure function of ``(base_seed, trial_index)`` — never
of execution order, worker assignment, or wall-clock time.  That is what
lets a ``--workers 8`` campaign, a serial campaign, and a ``--resume``d
campaign produce identical results.

:func:`derive_seed` hashes the pair (plus an optional stream label) with
SHA-256, which is stable across Python versions and platforms — unlike
``hash()``, which is salted per process.

Retry backoff is seeded the same way: the jitter for attempt ``a`` of
trial ``i`` comes from ``derive_seed(retry_seed, i, "backoff:a")``, so a
re-run of a flaky campaign sleeps the same schedule.
"""

from __future__ import annotations

import hashlib
import random

_SEED_BYTES = 8

#: Growth of the undithered backoff per attempt.
BACKOFF_FACTOR = 2.0
#: Half-width of the backoff's symmetric jitter, as a share of the delay.
BACKOFF_JITTER = 0.25


def derive_seed(base_seed: int, trial_index: int, stream: str = "") -> int:
    """A 64-bit seed that is a pure function of its arguments."""
    text = f"{base_seed}:{trial_index}:{stream}".encode("utf-8")
    digest = hashlib.sha256(text).digest()
    return int.from_bytes(digest[:_SEED_BYTES], "big")


def derive_seeds(base_seed: int, count: int, stream: str = "") -> list[int]:
    """``count`` independent per-trial seeds from one base seed."""
    return [derive_seed(base_seed, index, stream) for index in range(count)]


def backoff_delay(attempt: int, *, base: float, cap: float,
                  seed: int) -> float:
    """Exponential backoff with seeded, symmetric jitter (seconds).

    ``attempt`` is 0-based (the delay before retry ``attempt + 1``).  The
    undithered delay is ``min(cap, base * BACKOFF_FACTOR**attempt)``;
    jitter scales it by a factor drawn uniformly from
    ``[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]`` using ``seed`` alone, so
    the schedule is reproducible.
    """
    if attempt < 0:
        raise ValueError("attempt must be non-negative")
    if base < 0 or cap < 0:
        raise ValueError("backoff base/cap must be non-negative")
    raw = min(cap, base * BACKOFF_FACTOR ** attempt)
    if raw == 0.0:
        return raw
    unit = random.Random(seed).random()          # deterministic in seed
    return raw * (1.0 + BACKOFF_JITTER * (2.0 * unit - 1.0))
