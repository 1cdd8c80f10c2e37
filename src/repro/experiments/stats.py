"""Statistics helpers: means with 95 % confidence intervals.

The paper reports each data point with a 95 % confidence interval
(footnotes 8/9).  We use the Student-t interval, matching the small
repeat counts of simulation campaigns.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, field


@functools.lru_cache(maxsize=None)
def _t_critical(dof: int, confidence: float = 0.95) -> float:
    # scipy is imported here, not at module load: it costs ~1 s and
    # ~75 MB, and only report confidence intervals need it — never the
    # CLI start, the service or a simulation worker.
    try:
        from scipy import stats
    except ImportError:  # pragma: no cover
        # Coarse fallback: normal quantile (fine for dof >= 30,
        # conservative enough below).
        return 1.96 if confidence == 0.95 else 2.58
    return float(stats.t.ppf(0.5 + confidence / 2.0, dof))


@dataclass(frozen=True)
class Estimate:
    """Sample mean with a symmetric 95 % confidence half-width."""

    mean: float
    ci: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.ci

    @property
    def high(self) -> float:
        return self.mean + self.ci

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.ci:.2g}"


def estimate(values: list[float], confidence: float = 0.95) -> Estimate:
    """Mean and t-interval half-width of a sample."""
    if not values:
        raise ValueError("cannot estimate from an empty sample")
    n = len(values)
    mean = statistics.fmean(values)
    if n == 1:
        return Estimate(mean=mean, ci=0.0, n=1)
    stdev = statistics.stdev(values)
    half = _t_critical(n - 1, confidence) * stdev / math.sqrt(n)
    return Estimate(mean=mean, ci=half, n=n)


@dataclass
class Series:
    """One labeled curve of a figure: x values and per-x estimates.

    A point may carry an *empty* sample (``n == 0``, NaN mean): that is
    how a campaign whose every trial at some x failed degrades — the
    point stays in the table, visibly hollow, instead of crashing the
    aggregation (mirroring ``SimulationResult.degradation``)."""

    label: str
    xs: list[float] = field(default_factory=list)
    estimates: list[Estimate] = field(default_factory=list)

    def add(self, x: float, values: list[float]) -> None:
        self.xs.append(x)
        if values:
            self.estimates.append(estimate(values))
        else:
            self.estimates.append(Estimate(mean=math.nan, ci=0.0, n=0))

    def means(self) -> list[float]:
        return [e.mean for e in self.estimates]

    def at(self, x: float) -> Estimate:
        return self.estimates[self.xs.index(x)]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "xs": list(self.xs),
            "estimates": [
                {"mean": e.mean, "ci": e.ci, "n": e.n}
                for e in self.estimates
            ],
        }
