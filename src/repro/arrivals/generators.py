"""Arrival-trace generators that are UAM-conformant by construction.

All generators produce sorted integer arrival times in ``[0, horizon)``.
Two structural tricks keep the traces exactly inside the UAM envelope:

* **Lower bound** — an evenly spaced grid with spacing ``W // l`` places
  exactly ``l`` arrivals in every half-open window of length ``W`` (the
  count of multiples of ``d`` in ``[t, t + l*d)`` is exactly ``l``), so the
  grid alone saturates the minimum.
* **Upper bound** — random extra arrivals are *thinned*: a candidate is
  dropped whenever accepting it would push the trailing-window count above
  ``a``.

Generators therefore never need rejection-resampling loops and every trace
they emit passes :func:`repro.arrivals.validate.check_uam`.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from collections import deque

from repro.arrivals.spec import UAMSpec


class ArrivalGenerator(ABC):
    """Produces one arrival trace per call, given an RNG and a horizon."""

    #: The UAM envelope the generated traces conform to.
    spec: UAMSpec

    @abstractmethod
    def generate(self, rng: random.Random, horizon: int) -> list[int]:
        """Return sorted arrival times in ``[0, horizon)``."""


def _lower_bound_grid(spec: UAMSpec, horizon: int, phase: int) -> list[int]:
    """W-periodic arrival pattern with exactly ``l`` arrivals per period.

    For any W-periodic point multiset with ``l`` points per period, every
    half-open window of length ``W`` contains exactly ``l`` points (each
    residue class contributes exactly one representative per window).  The
    grid therefore meets the UAM lower bound tightly and — because
    ``l <= a`` — can never break the upper bound on its own.
    """
    if spec.min_arrivals == 0:
        return []
    window = spec.window
    offsets = [
        (phase + (j * window) // spec.min_arrivals) % window
        for j in range(spec.min_arrivals)
    ]
    offsets.sort()
    times: list[int] = []
    base = 0
    while base < horizon:
        times.extend(base + off for off in offsets if base + off < horizon)
        base += window
    return times


def _virtual_grid_prefix(spec: UAMSpec, phase: int) -> list[int]:
    """The lower-bound grid's points in ``(-W, 0)``, used to seed the
    thinning window.  Without them, extras near the start of the horizon
    see an artificially empty trailing window and can be admitted even
    though an upcoming grid point will push a sliding window over ``a``.
    """
    if spec.min_arrivals == 0:
        return []
    window = spec.window
    offsets = sorted(
        (phase + (j * window) // spec.min_arrivals) % window
        for j in range(spec.min_arrivals)
    )
    return [off - window for off in offsets]


def _merge_thin(grid: list[int], extras: list[int], spec: UAMSpec,
                preload: list[int] | None = None) -> list[int]:
    """Merge mandatory grid arrivals with optional extras, thinning the
    extras so the sliding max never exceeds ``a``.

    Grid points always win ties: they carry the lower-bound guarantee.
    Since the grid alone puts exactly ``l <= a`` arrivals in every window
    (including, via ``preload``, windows straddling time zero), admitting
    grid points unconditionally can never break the upper bound as long
    as extras are thinned against the combined count.

    ``recent`` holds the admitted arrivals of the trailing window
    ``(t - W, t]``, starting from the sorted ``preload`` (points in
    ``[-W, 0)``); arrivals come in time order, so the oldest leave from
    the left.
    """
    bound = spec.max_arrivals
    span = spec.window
    recent = deque(preload or ())
    out: list[int] = []
    n_grid = len(grid)
    n_extras = len(extras)
    gi = ei = 0
    while gi < n_grid or ei < n_extras:
        if gi < n_grid and (ei >= n_extras or grid[gi] <= extras[ei]):
            t = grid[gi]
            gi += 1
            mandatory = True
        else:
            t = extras[ei]
            ei += 1
            mandatory = False
        oldest = t - span
        while recent and recent[0] <= oldest:
            recent.popleft()
        if mandatory or len(recent) < bound:
            recent.append(t)
            out.append(t)
    return out


class PeriodicGenerator(ArrivalGenerator):
    """Strictly periodic arrivals — the UAM special case ``<1, 1, W>``.

    An optional bounded release ``jitter`` (at most ``period // 4``,
    enforced) makes the trace sporadic-like.  Jitter widens the honest UAM
    envelope: consecutive jittered releases can land as close as
    ``period - jitter`` apart or as far as ``period + jitter``, so the
    advertised spec becomes ``<0, 2, W>`` whenever ``jitter > 0`` and the
    exact ``<1, 1, W>`` otherwise.
    """

    def __init__(self, period: int, phase: int = 0, jitter: int = 0) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0 <= jitter <= period // 4:
            raise ValueError("jitter must lie in [0, period // 4]")
        if phase < 0:
            raise ValueError("phase must be non-negative")
        if jitter > 0:
            self.spec = UAMSpec(min_arrivals=0, max_arrivals=2, window=period)
        else:
            self.spec = UAMSpec.periodic(period)
        self._period = period
        self._phase = phase
        self._jitter = jitter

    def generate(self, rng: random.Random, horizon: int) -> list[int]:
        times: list[int] = []
        t = self._phase
        while t < horizon:
            if self._jitter:
                jittered = t + rng.randint(0, self._jitter)
            else:
                jittered = t
            if jittered < horizon:
                times.append(jittered)
            t += self._period
        return times


class UniformUAMGenerator(ArrivalGenerator):
    """Random trace hugging the UAM envelope from both sides.

    A mandatory grid realizes the lower bound; extra arrivals are proposed
    uniformly at an average of ``burstiness * (a - l)`` per window and
    thinned against the upper bound.  ``burstiness = 1.0`` pushes the trace
    toward the maximum-rate envelope.
    """

    def __init__(self, spec: UAMSpec, burstiness: float = 0.5,
                 phase: int = 0) -> None:
        if not 0.0 <= burstiness <= 1.0:
            raise ValueError("burstiness must lie in [0, 1]")
        self.spec = spec
        self._burstiness = burstiness
        self._phase = phase

    def generate(self, rng: random.Random, horizon: int) -> list[int]:
        spec = self.spec
        grid = _lower_bound_grid(spec, horizon, self._phase)
        slack = spec.max_arrivals - spec.min_arrivals
        n_windows = math.ceil(horizon / spec.window)
        n_extras = round(self._burstiness * slack * n_windows)
        extras = sorted(rng.randrange(horizon) for _ in range(n_extras))
        preload = _virtual_grid_prefix(spec, self._phase)
        return _merge_thin(grid, extras, spec, preload=preload)


class BurstyUAMGenerator(ArrivalGenerator):
    """Adversarial trace: a burst of ``a`` simultaneous arrivals at the
    start of every window.

    This realizes the worst case used in the proof of Theorem 2 — the
    maximal number of job releases (and hence scheduling events) that the
    UAM permits inside any interval.  Any half-open window of length ``W``
    contains exactly one burst instant, so the sliding max is exactly
    ``a`` and the sliding min is ``a >= l``.
    """

    def __init__(self, spec: UAMSpec, phase: int = 0) -> None:
        if phase < 0:
            raise ValueError("phase must be non-negative")
        self.spec = spec
        self._phase = phase

    def generate(self, rng: random.Random, horizon: int) -> list[int]:
        times: list[int] = []
        t = self._phase
        while t < horizon:
            times.extend([t] * self.spec.max_arrivals)
            t += self.spec.window
        return times


class PoissonThinnedUAMGenerator(ArrivalGenerator):
    """Poisson proposals thinned into the UAM envelope.

    ``intensity`` scales the proposal rate relative to the peak rate
    ``a / W``; values above 1 produce heavy thinning and an envelope-
    saturating trace.  The lower-bound grid is merged in as for
    :class:`UniformUAMGenerator`.
    """

    def __init__(self, spec: UAMSpec, intensity: float = 1.0,
                 phase: int = 0) -> None:
        if intensity <= 0:
            raise ValueError("intensity must be positive")
        self.spec = spec
        self._intensity = intensity
        self._phase = phase

    def generate(self, rng: random.Random, horizon: int) -> list[int]:
        spec = self.spec
        rate = self._intensity * spec.peak_rate
        extras: list[int] = []
        t = 0.0
        while True:
            t += rng.expovariate(rate)
            if t >= horizon:
                break
            extras.append(int(t))
        grid = _lower_bound_grid(spec, horizon, self._phase)
        preload = _virtual_grid_prefix(spec, self._phase)
        return _merge_thin(grid, extras, spec, preload=preload)


def generator_for(spec: UAMSpec, style: str = "uniform",
                  **kwargs) -> ArrivalGenerator:
    """Factory keyed by style name: ``uniform``, ``bursty``, ``poisson``,
    or ``periodic`` (the latter requires ``spec.is_periodic``)."""
    if style == "uniform":
        return UniformUAMGenerator(spec, **kwargs)
    if style == "bursty":
        return BurstyUAMGenerator(spec, **kwargs)
    if style == "poisson":
        return PoissonThinnedUAMGenerator(spec, **kwargs)
    if style == "periodic":
        if not spec.is_periodic:
            raise ValueError("periodic style requires a <1,1,W> spec")
        return PeriodicGenerator(spec.window, **kwargs)
    raise ValueError(f"unknown arrival style {style!r}")
