"""Perf-regression detection over committed bench trajectories.

This module is the one bench store: a per-bench summary trajectory
under ``benchmarks/trajectories/<bench>.json`` — one compact record per
recorded run (scalar summary metrics plus wall time), capped and
evicted oldest-first — appended by ``benchmarks/conftest.record_bench``
and ``python -m repro bench record``, and the detector ``python -m
repro bench check`` runs against it.

Detection is deliberately robust rather than clever (Alistarh et al.'s
point that progress claims only hold under *measured* scheduler
behavior; Brandenburg's that synchronization comparisons must be
analyzed, not anecdotal):

* **Robust z-score** — the newest point is compared against the
  median/MAD of its history; MAD resists the occasional outlier run
  that a mean/stddev gate would learn as "normal".
* **EWMA** — an exponentially weighted mean of the history gives the
  drift-following baseline the relative-change test compares against,
  so a slow multi-run drift is caught even when each step is small.
* **Changepoint scan** — a mean-shift split statistic over the whole
  series locates *where* a level shift happened, which turns "the gate
  is red" into "it regressed at entry seq N".

A metric only gates in its *worse* direction (``wall_s`` up is bad,
``aur`` down is bad); metrics with no declared direction are reported
as informational drift and never fail the gate.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.campaign.io import atomic_write

#: Default committed trajectory store, relative to the repo root.
DEFAULT_TRAJECTORY_DIR = "benchmarks/trajectories"

#: Environment override for the trajectory directory.
ENV_TRAJECTORY_DIR = "REPRO_TRAJECTORY_DIR"

#: Trajectory length cap (entries, oldest evicted first).  Smaller than
#: the raw BENCH cap: these files are committed and reviewed.
MAX_ENTRIES = 150

#: History points (excluding the newest) required before the gate
#: judges a series; shorter series report ``insufficient-history``.
MIN_HISTORY = 4

#: Gate thresholds: the newest point must be ``Z_THRESHOLD`` robust
#: standard deviations *and* ``REL_THRESHOLD`` relative change worse
#: than its baseline to fail the gate.  Both must trip — z alone fires
#: on ultra-stable series where any wobble is "many MADs", relative
#: change alone fires on noisy-but-harmless series.
Z_THRESHOLD = 4.0
REL_THRESHOLD = 0.25

#: Changepoint scan: minimum points on each side of a candidate split
#: and the score a split must reach to be reported.
CHANGEPOINT_MIN_SEGMENT = 3
CHANGEPOINT_SCORE = 3.0

#: Metric name -> gated direction.  Matched on the exact key, else on
#: the last ``_``-separated suffix (so ``scheduler_overhead_time``
#: matches ``time``).  Everything else is informational.
HIGHER_IS_WORSE = frozenset({
    "wall_s", "retries", "blockings", "aborts", "time", "wasted",
    "backoff", "violations", "shed", "deferrals", "ns",
})
LOWER_IS_WORSE = frozenset({"aur", "cmr", "utility", "throughput",
                            "speedup"})


def metric_direction(name: str) -> str:
    """``"up"`` (higher is worse), ``"down"`` or ``"none"``."""
    candidates = (name, name.rsplit("_", 1)[-1])
    for candidate in candidates:
        if candidate in HIGHER_IS_WORSE:
            return "up"
        if candidate in LOWER_IS_WORSE:
            return "down"
    return "none"


# ----------------------------------------------------------------------
# Trajectory store
# ----------------------------------------------------------------------


def trajectory_dir(directory: str | os.PathLike | None = None) -> Path:
    return Path(directory or os.environ.get(ENV_TRAJECTORY_DIR)
                or DEFAULT_TRAJECTORY_DIR)


def trajectory_path(name: str,
                    directory: str | os.PathLike | None = None) -> Path:
    return trajectory_dir(directory) / f"{name}.json"


def load_trajectory(name: str,
                    directory: str | os.PathLike | None = None
                    ) -> dict[str, Any]:
    """The trajectory document (empty skeleton when absent/corrupt — a
    broken store must not fail the bench that feeds it)."""
    path = trajectory_path(name, directory)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if (isinstance(document, dict)
                and isinstance(document.get("entries"), list)):
            document["entries"] = [entry for entry in document["entries"]
                                   if isinstance(entry, dict)]
            return document
    except (OSError, json.JSONDecodeError):
        pass
    return {"bench": name, "schema": 1, "entries": []}


def _evict_oldest(entries: list[dict[str, Any]],
                  cap: int = MAX_ENTRIES) -> list[dict[str, Any]]:
    """Deterministic oldest-first eviction: stable-sort by ``seq`` (a
    hand-merged or out-of-order file still evicts its genuinely oldest
    records), then keep the newest ``cap``."""
    ordered = sorted(entries, key=lambda entry: entry.get("seq", 0))
    return ordered[-cap:] if cap > 0 else ordered


def append_trajectory(name: str, metrics: dict[str, Any],
                      wall_s: float | None = None,
                      directory: str | os.PathLike | None = None,
                      now: float | None = None) -> Path:
    """Atomically append one summary record to the committed store.

    Only scalar summary stats are kept (numbers, plus strings as run
    provenance like workload/sync names) — never raw event streams.
    """
    document = load_trajectory(name, directory)
    entries = document["entries"]
    summary: dict[str, Any] = {}
    for key in sorted(metrics):
        value = metrics[key]
        if isinstance(value, bool) or isinstance(value, (int, float, str)):
            summary[key] = value
    next_seq = 1 + max((entry.get("seq", 0) for entry in entries),
                       default=0)
    entries.append({
        "seq": next_seq,
        "unix_time": round(now if now is not None else time.time(), 3),
        "wall_s": None if wall_s is None else round(float(wall_s), 6),
        "metrics": summary,
    })
    document["entries"] = _evict_oldest(entries)
    path = trajectory_path(name, directory)
    atomic_write(path, json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def list_trajectories(directory: str | os.PathLike | None = None
                      ) -> list[str]:
    base = trajectory_dir(directory)
    if not base.is_dir():
        return []
    return sorted(path.stem for path in base.glob("*.json"))


def _series_of(document: dict[str, Any]) -> dict[str, list[float]]:
    """Numeric series per metric (plus ``wall_s``), in seq order.
    A metric missing from some entries contributes only where present."""
    series: dict[str, list[float]] = {}
    for entry in sorted(document.get("entries", []),
                        key=lambda e: e.get("seq", 0)):
        wall = entry.get("wall_s")
        if isinstance(wall, (int, float)) and not isinstance(wall, bool):
            series.setdefault("wall_s", []).append(float(wall))
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict):
            continue
        for key, value in metrics.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)) and math.isfinite(value):
                series.setdefault(key, []).append(float(value))
    return series


# ----------------------------------------------------------------------
# Robust statistics
# ----------------------------------------------------------------------


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _mad(values: list[float], center: float) -> float:
    """Median absolute deviation (unscaled)."""
    return _median([abs(value - center) for value in values])


def _robust_spread(values: list[float], center: float) -> float:
    """Scaled MAD, falling back to the sample standard deviation when
    MAD degenerates to zero on a non-constant series (more than half
    the points identical — e.g. a count series like ``[0,0,1,0,0]``,
    where zero MAD would turn any wobble into an infinite z-score)."""
    spread = _MAD_SCALE * _mad(values, center)
    if spread == 0.0 and len(set(values)) > 1:
        mean = sum(values) / len(values)
        spread = math.sqrt(sum((value - mean) ** 2 for value in values)
                           / len(values))
    return spread


#: MAD -> sigma consistency constant for normal data.
_MAD_SCALE = 1.4826

#: EWMA smoothing: ~last dozen runs dominate the baseline.
EWMA_ALPHA = 0.3


def ewma(values: Iterable[float], alpha: float = EWMA_ALPHA) -> float:
    average: float | None = None
    for value in values:
        average = value if average is None else (
            alpha * value + (1.0 - alpha) * average)
    if average is None:
        raise ValueError("ewma of an empty series")
    return average


def changepoint_scan(values: list[float],
                     min_segment: int = CHANGEPOINT_MIN_SEGMENT
                     ) -> tuple[int, float] | None:
    """Best mean-shift split ``(index, score)``: the series splits into
    ``values[:index]`` / ``values[index:]``; score is the shift in
    robust-sigma units.  None when the series is too short."""
    best: tuple[int, float] | None = None
    for index in range(min_segment, len(values) - min_segment + 1):
        left, right = values[:index], values[index:]
        left_med, right_med = _median(left), _median(right)
        spread = _MAD_SCALE * max(_mad(left, left_med),
                                  _mad(right, right_med))
        scale = max(spread, 1e-4 * max(abs(left_med), abs(right_med)), 1e-12)
        score = abs(right_med - left_med) / scale
        if best is None or score > best[1]:
            best = (index, score)
    return best


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesVerdict:
    """The gate's judgement of one metric series of one bench."""

    metric: str
    status: str                    # ok | regression | drift | insufficient-history
    direction: str                 # up | down | none
    n: int
    latest: float | None = None
    median: float | None = None
    ewma: float | None = None
    z: float | None = None
    rel_change: float | None = None
    changepoint: int | None = None       # entry index of the level shift
    changepoint_score: float | None = None

    @property
    def gated(self) -> bool:
        return self.status == "regression"

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "status": self.status,
            "direction": self.direction,
            "n": self.n,
            "latest": self.latest,
            "median": self.median,
            "ewma": self.ewma,
            "z": self.z,
            "rel_change": self.rel_change,
            "changepoint": self.changepoint,
            "changepoint_score": self.changepoint_score,
        }


@dataclass
class TrajectoryVerdict:
    """All series verdicts for one bench trajectory."""

    bench: str
    entries: int
    series: list[SeriesVerdict] = field(default_factory=list)

    @property
    def regressions(self) -> list[SeriesVerdict]:
        return [verdict for verdict in self.series if verdict.gated]

    def to_dict(self) -> dict[str, Any]:
        return {
            "bench": self.bench,
            "entries": self.entries,
            "regressed": bool(self.regressions),
            "series": [verdict.to_dict() for verdict in self.series],
        }


@dataclass
class RegressionReport:
    """The ``repro bench check`` outcome across every trajectory."""

    directory: str
    z_threshold: float = Z_THRESHOLD
    rel_threshold: float = REL_THRESHOLD
    benches: list[TrajectoryVerdict] = field(default_factory=list)

    @property
    def regressed(self) -> bool:
        return any(bench.regressions for bench in self.benches)

    @property
    def total_regressions(self) -> int:
        return sum(len(bench.regressions) for bench in self.benches)

    def to_dict(self) -> dict[str, Any]:
        return {
            "directory": self.directory,
            "z_threshold": self.z_threshold,
            "rel_threshold": self.rel_threshold,
            "regressed": self.regressed,
            "total_regressions": self.total_regressions,
            "benches": [bench.to_dict() for bench in self.benches],
        }

    def render(self) -> str:
        """The ASCII gate report (printed, and uploaded by CI)."""
        title = f"perf-regression gate: {self.directory}"
        lines = [title, "=" * len(title),
                 f"thresholds: robust z >= {self.z_threshold:g} AND "
                 f"relative change >= {self.rel_threshold:.0%} "
                 f"(worse direction only)", ""]
        if not self.benches:
            lines.append("no trajectories found — nothing to gate")
            return "\n".join(lines)
        header = (f"{'bench':<24} {'metric':<26} {'n':>4} {'median':>12} "
                  f"{'latest':>12} {'z':>8} {'delta':>8}  status")
        lines += [header, "-" * len(header)]
        for bench in self.benches:
            for verdict in bench.series:
                if verdict.status == "insufficient-history":
                    lines.append(
                        f"{bench.bench:<24} {verdict.metric:<26} "
                        f"{verdict.n:>4} {'-':>12} {'-':>12} {'-':>8} "
                        f"{'-':>8}  insufficient history")
                    continue
                marker = ("REGRESSION" if verdict.gated
                          else verdict.status)
                if verdict.gated and verdict.changepoint is not None:
                    marker += (f" (changepoint at entry "
                               f"{verdict.changepoint}, score "
                               f"{verdict.changepoint_score:.1f})")
                lines.append(
                    f"{bench.bench:<24} {verdict.metric:<26} "
                    f"{verdict.n:>4} {verdict.median:>12.6g} "
                    f"{verdict.latest:>12.6g} {verdict.z:>8.2f} "
                    f"{verdict.rel_change:>+8.1%}  {marker}")
        lines.append("")
        if self.regressed:
            lines.append(f"GATE FAILED: {self.total_regressions} "
                         f"regressed series")
        else:
            lines.append("gate clean: no regression detected")
        return "\n".join(lines)


def judge_series(metric: str, values: list[float],
                 z_threshold: float = Z_THRESHOLD,
                 rel_threshold: float = REL_THRESHOLD) -> SeriesVerdict:
    """Judge the newest point of one metric series against its history."""
    direction = metric_direction(metric)
    if len(values) < MIN_HISTORY + 1:
        return SeriesVerdict(metric=metric, status="insufficient-history",
                             direction=direction, n=len(values))
    history, latest = values[:-1], values[-1]
    center = _median(history)
    baseline = ewma(history)
    spread = _robust_spread(history, center)
    # Floor the scale so a perfectly flat history cannot turn numeric
    # dust into an infinite z-score.
    scale = max(spread, 1e-3 * max(abs(center), abs(baseline)), 1e-12)
    z = (latest - center) / scale
    rel_base = max(abs(baseline), 1e-12)
    rel = (latest - baseline) / rel_base
    change = changepoint_scan(values)
    changepoint = changepoint_score = None
    if change is not None and change[1] >= CHANGEPOINT_SCORE:
        changepoint, changepoint_score = change[0], change[1]

    worse = (z > 0 and direction == "up") or (z < 0 and direction == "down")
    tripped = (abs(z) >= z_threshold and abs(rel) >= rel_threshold)
    if direction != "none" and worse and tripped:
        status = "regression"
    elif tripped:
        status = "drift"        # reported, never gated
    else:
        status = "ok"
    return SeriesVerdict(metric=metric, status=status, direction=direction,
                         n=len(values), latest=latest, median=center,
                         ewma=baseline, z=z, rel_change=rel,
                         changepoint=changepoint,
                         changepoint_score=changepoint_score)


def check_trajectories(directory: str | os.PathLike | None = None,
                       z_threshold: float = Z_THRESHOLD,
                       rel_threshold: float = REL_THRESHOLD,
                       benches: Iterable[str] | None = None
                       ) -> RegressionReport:
    """Run the gate over every (or the named) committed trajectories."""
    base = trajectory_dir(directory)
    names = sorted(benches) if benches is not None \
        else list_trajectories(base)
    report = RegressionReport(directory=str(base),
                              z_threshold=z_threshold,
                              rel_threshold=rel_threshold)
    for name in names:
        document = load_trajectory(name, base)
        verdict = TrajectoryVerdict(bench=name,
                                    entries=len(document["entries"]))
        series = _series_of(document)
        for metric in sorted(series):
            verdict.series.append(
                judge_series(metric, series[metric],
                             z_threshold=z_threshold,
                             rel_threshold=rel_threshold))
        report.benches.append(verdict)
    return report
