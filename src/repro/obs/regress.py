"""Perf-regression detection over the committed perfbench trajectories.

This module is the one bench store: ``benchmarks/trajectories/
<workload>.json`` holds one entry per recorded ``perfbench/run.py``
result of that workload, capped and evicted oldest-first.  ``python -m
repro bench record`` ingests the saved stdout of one ``--trace 0`` run
(the ``end_to_end`` block) and, optionally, one ``--trace 1`` run of the
same workload and seed (the ``per_layer`` block) as one entry, and
``python -m repro bench check`` gates the store.

Each document carries, per metric, the ``unit`` and ``better`` direction
``BENCHMARK.json`` declares, plus the ``bound`` of an end-to-end metric,
copied at record time.  The gate therefore judges a metric only in its
declared worse direction: an end-to-end metric at its benchmark bound,
a per-layer metric at :data:`REL_THRESHOLD`.

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
  is red" into "layer X regressed at seq N".
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.campaign.io import atomic_write

#: Default committed trajectory store, relative to the repo root.
DEFAULT_TRAJECTORY_DIR = "benchmarks/trajectories"

#: Default benchmark spec the metric directions and bounds come from.
DEFAULT_SPEC = "BENCHMARK.json"

#: The two metric blocks of a perfbench result, as ``BENCHMARK.json``
#: names them: ``--trace 0`` reports the first, ``--trace 1`` the second.
BLOCKS = ("end_to_end", "per_layer")

#: Trajectory length cap (entries, oldest evicted first).
MAX_ENTRIES = 150

#: History points (excluding the newest) required before the gate
#: judges a series; shorter series report ``insufficient-history``.
MIN_HISTORY = 4

#: Gate thresholds: the newest point must be ``Z_THRESHOLD`` robust
#: standard deviations *and* a relative change worse than its baseline
#: to fail the gate: the metric's benchmark bound for an end-to-end
#: metric, ``REL_THRESHOLD`` for a per-layer one.  Both must trip — z
#: alone fires on ultra-stable series where any wobble is "many MADs",
#: relative change alone fires on noisy-but-harmless series.
Z_THRESHOLD = 4.0
REL_THRESHOLD = 0.25

#: Changepoint scan: minimum points on each side of a candidate split
#: and the score a split must reach to be reported.
CHANGEPOINT_MIN_SEGMENT = 3
CHANGEPOINT_SCORE = 3.0

#: The header line ``perfbench/run.py`` prints before its metrics.
_HEADER = re.compile(
    r"^# (?P<workload>[\w-]+) seed=(?P<seed>-?\d+) "
    r"seconds=(?P<seconds>\S+) trace=(?P<trace>[01])$")


class RecordError(ValueError):
    """A perfbench result ``record`` refuses; the store is untouched."""


# ----------------------------------------------------------------------
# Ingest
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PerfbenchRun:
    """One saved ``perfbench/run.py`` stdout: its header and result."""

    workload: str
    seed: int
    seconds: float
    trace: int
    metrics: dict[str, float]


def _is_number(value: Any) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def parse_run(text: str, source: str = "run") -> PerfbenchRun:
    """Parse one run's stdout; refuse anything but a correct result."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    header = next((match for match in map(_HEADER.match, lines) if match),
                  None)
    if header is None:
        raise RecordError(f"{source}: no '# <workload> seed=... "
                          f"seconds=... trace=...' header line")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) \
            or not isinstance(result.get("metrics"), dict):
        raise RecordError(f"{source}: the last line is not a perfbench "
                          f"JSON result")
    if result.get("correct") is not True:
        raise RecordError(
            f"{source}: the run is not correct ({result.get('failed')} of "
            f"{result.get('attempted')} operations failed); not recorded")
    metrics = {}
    for name, metric in result["metrics"].items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if not _is_number(value):
            raise RecordError(f"{source}: metric {name!r} has no finite "
                              f"value")
        metrics[name] = value if isinstance(value, int) \
            else float(f"{value:.6g}")
    return PerfbenchRun(workload=header["workload"],
                        seed=int(header["seed"]),
                        seconds=float(header["seconds"]),
                        trace=int(header["trace"]), metrics=metrics)


def declared_metrics(spec: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Metric name -> ``{block, unit, better[, bound]}`` from a
    ``BENCHMARK.json`` document."""
    declared: dict[str, dict[str, Any]] = {}
    for block in BLOCKS:
        for metric in spec.get(block, []):
            entry = {"block": block, "unit": metric["unit"],
                     "better": metric["better"]}
            if "bound" in metric:
                entry["bound"] = metric["bound"]
            declared[metric["name"]] = entry
    return declared


def entry_from_runs(runs: list[PerfbenchRun],
                    declared: dict[str, dict[str, Any]]
                    ) -> tuple[str, dict[str, Any]]:
    """``(workload, entry)`` for one ``--trace 0`` run and at most one
    ``--trace 1`` run of the same workload and seed."""
    by_trace: dict[int, PerfbenchRun] = {}
    for run in runs:
        if run.trace in by_trace:
            raise RecordError(f"two --trace {run.trace} runs; record takes "
                              f"one --trace 0 run and at most one "
                              f"--trace 1 run")
        by_trace[run.trace] = run
    plain = by_trace.get(0)
    if plain is None:
        raise RecordError("no --trace 0 run: the end-to-end block is "
                          "required")
    traced = by_trace.get(1)
    if traced is not None and (traced.workload, traced.seed) \
            != (plain.workload, plain.seed):
        raise RecordError(
            f"the --trace 1 run ({traced.workload} seed={traced.seed}) is "
            f"not of the --trace 0 run's workload and seed "
            f"({plain.workload} seed={plain.seed})")
    entry: dict[str, Any] = {"seed": plain.seed, "seconds": plain.seconds}
    for block, run in zip(BLOCKS, (plain, traced)):
        if run is None:
            continue
        for name in run.metrics:
            if declared.get(name, {}).get("block") != block:
                raise RecordError(f"metric {name!r} is not in the "
                                  f"benchmark spec's {block} block")
        entry[block] = dict(sorted(run.metrics.items()))
    return plain.workload, entry


def record_runs(paths: Iterable[str | os.PathLike],
                spec_path: str | os.PathLike = DEFAULT_SPEC,
                directory: str | os.PathLike | None = None
                ) -> tuple[Path, dict[str, Any]]:
    """Validate saved perfbench runs and append them as one entry.

    Every check runs before the store is written, so a refused run
    leaves it byte-identical.  Returns the trajectory path and document.
    """
    try:
        spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
        runs = [parse_run(Path(path).read_text(encoding="utf-8"),
                          source=str(path)) for path in paths]
    except (OSError, json.JSONDecodeError) as exc:
        raise RecordError(str(exc)) from None
    declared = declared_metrics(spec)
    workload, entry = entry_from_runs(runs, declared)
    return append_trajectory(workload, entry, declared, directory)


# ----------------------------------------------------------------------
# Trajectory store
# ----------------------------------------------------------------------


def trajectory_dir(directory: str | os.PathLike | None = None) -> Path:
    return Path(directory or DEFAULT_TRAJECTORY_DIR)


def trajectory_path(name: str,
                    directory: str | os.PathLike | None = None) -> Path:
    return trajectory_dir(directory) / f"{name}.json"


def load_trajectory(name: str,
                    directory: str | os.PathLike | None = None
                    ) -> dict[str, Any]:
    """The trajectory document (empty skeleton when absent/corrupt)."""
    path = trajectory_path(name, directory)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if (isinstance(document, dict)
                and isinstance(document.get("entries"), list)):
            document["entries"] = [entry for entry in document["entries"]
                                   if isinstance(entry, dict)]
            if not isinstance(document.get("metrics"), dict):
                document["metrics"] = {}
            return document
    except (OSError, json.JSONDecodeError):
        pass
    return {"bench": name, "schema": 2, "metrics": {}, "entries": []}


def _evict_oldest(entries: list[dict[str, Any]],
                  cap: int = MAX_ENTRIES) -> list[dict[str, Any]]:
    """Deterministic oldest-first eviction: stable-sort by ``seq`` (a
    hand-merged or out-of-order file still evicts its genuinely oldest
    records), then keep the newest ``cap``."""
    ordered = sorted(entries, key=lambda entry: entry.get("seq", 0))
    return ordered[-cap:] if cap > 0 else ordered


def append_trajectory(name: str, entry: dict[str, Any],
                      declared: dict[str, dict[str, Any]],
                      directory: str | os.PathLike | None = None,
                      now: float | None = None
                      ) -> tuple[Path, dict[str, Any]]:
    """Atomically append one entry, copying the declared ``unit``,
    ``better`` and ``bound`` of each metric it holds into the document.
    Returns the path and the document; the new entry is the last."""
    document = load_trajectory(name, directory)
    entries = document["entries"]
    for block in BLOCKS:
        for metric in entry.get(block, {}):
            document["metrics"][metric] = {
                key: value for key, value in declared[metric].items()
                if key != "block"}
    entries.append({
        "seq": 1 + max((old.get("seq", 0) for old in entries), default=0),
        "unix_time": round(now if now is not None else time.time(), 3),
        **entry,
    })
    document["entries"] = _evict_oldest(entries)
    path = trajectory_path(name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path, document


def list_trajectories(directory: str | os.PathLike | None = None
                      ) -> list[str]:
    base = trajectory_dir(directory)
    if not base.is_dir():
        return []
    return sorted(path.stem for path in base.glob("*.json"))


@dataclass
class _Series:
    block: str
    seqs: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)


def _series_of(document: dict[str, Any]) -> dict[str, _Series]:
    """Numeric series per metric, in seq order.  A metric missing from
    some entries (no ``--trace 1`` run) contributes only where present."""
    series: dict[str, _Series] = {}
    for entry in sorted(document.get("entries", []),
                        key=lambda e: e.get("seq", 0)):
        for block in BLOCKS:
            values = entry.get(block)
            if not isinstance(values, dict):
                continue
            for key, value in values.items():
                if _is_number(value):
                    points = series.setdefault(key, _Series(block))
                    points.seqs.append(entry.get("seq", 0))
                    points.values.append(float(value))
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
    layer: str                     # core, serve, ... or end_to_end
    status: str                    # ok | regression | drift | insufficient-history
    better: str                    # lower | higher | none (never gated)
    threshold: float               # relative change that trips the gate
    n: int
    latest: float | None = None
    median: float | None = None
    ewma: float | None = None
    z: float | None = None
    rel_change: float | None = None
    changepoint_seq: int | None = None   # seq where the series shifted
    changepoint_score: float | None = None

    @property
    def gated(self) -> bool:
        return self.status == "regression"

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "layer": self.layer,
            "status": self.status,
            "better": self.better,
            "threshold": self.threshold,
            "n": self.n,
            "latest": self.latest,
            "median": self.median,
            "ewma": self.ewma,
            "z": self.z,
            "rel_change": self.rel_change,
            "changepoint_seq": self.changepoint_seq,
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
            "z_threshold": Z_THRESHOLD,
            "rel_threshold": REL_THRESHOLD,
            "regressed": self.regressed,
            "total_regressions": self.total_regressions,
            "benches": [bench.to_dict() for bench in self.benches],
        }

    def render(self) -> str:
        """The ASCII gate report (printed, and uploaded by CI)."""
        title = f"perf-regression gate: {self.directory}"
        lines = [title, "=" * len(title),
                 f"thresholds: robust z >= {Z_THRESHOLD:g} AND relative "
                 f"change >= the metric's bound (end-to-end, from "
                 f"BENCHMARK.json) or {REL_THRESHOLD:.0%} (per-layer), "
                 f"worse direction only", ""]
        if not self.benches:
            lines.append("no trajectories found — nothing to gate")
            return "\n".join(lines)
        header = (f"{'bench':<15} {'metric':<32} {'n':>4} {'median':>12} "
                  f"{'latest':>12} {'z':>8} {'delta':>8} {'bound':>6}  "
                  f"status")
        lines += [header, "-" * len(header)]
        red = []
        for bench in self.benches:
            for verdict in bench.series:
                head = f"{bench.bench:<15} {verdict.metric:<32} {verdict.n:>4}"
                if verdict.status == "insufficient-history":
                    lines.append(f"{head} {'-':>12} {'-':>12} {'-':>8} "
                                 f"{'-':>8} {'-':>6}  insufficient history")
                    continue
                marker = "REGRESSION" if verdict.gated else verdict.status
                lines.append(
                    f"{head} {verdict.median:>12.6g} {verdict.latest:>12.6g} "
                    f"{verdict.z:>8.2f} {verdict.rel_change:>+8.1%} "
                    f"{verdict.threshold:>6.0%}  {marker}")
                if verdict.gated:
                    red.append(
                        f"{bench.bench}: layer {verdict.layer} regressed "
                        f"at seq {verdict.changepoint_seq}: "
                        f"{verdict.metric} {verdict.rel_change:+.1%} "
                        f"(bound {verdict.threshold:.0%}, better "
                        f"{verdict.better})")
        lines.append("")
        if red:
            lines += red
            lines.append(f"GATE FAILED: {self.total_regressions} "
                         f"regressed series")
        else:
            lines.append("gate clean: no regression detected")
        return "\n".join(lines)


def judge_series(metric: str, values: list[float],
                 better: str | None = None,
                 threshold: float = REL_THRESHOLD,
                 seqs: list[int] | None = None,
                 layer: str = "end_to_end") -> SeriesVerdict:
    """Judge the newest point of one metric series against its history.

    ``better`` is the declared direction (``"lower"`` or ``"higher"``);
    a series without one is reported, never gated.  ``seqs`` are the
    entries' seq numbers (default ``1..n``); a regression names the seq
    of the changepoint scan's worse-direction shift, else the newest.
    """
    better = better if better in ("lower", "higher") else "none"
    common = {"metric": metric, "layer": layer, "better": better,
              "threshold": threshold, "n": len(values)}
    if len(values) < MIN_HISTORY + 1:
        return SeriesVerdict(status="insufficient-history", **common)
    seqs = seqs if seqs is not None else list(range(1, len(values) + 1))
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
    sign = {"lower": 1, "higher": -1}.get(better, 0)

    tripped = abs(z) >= Z_THRESHOLD and abs(rel) >= threshold
    changepoint_seq = changepoint_score = None
    if sign and sign * z > 0 and tripped:
        status = "regression"
        changepoint_seq = seqs[-1]
        change = changepoint_scan(values)
        if change is not None and change[1] >= CHANGEPOINT_SCORE:
            index, score = change
            shift = _median(values[index:]) - _median(values[:index])
            if sign * shift > 0:
                changepoint_seq, changepoint_score = seqs[index], score
    elif tripped:
        status = "drift"        # reported, never gated
    else:
        status = "ok"
    return SeriesVerdict(status=status, latest=latest, median=center,
                         ewma=baseline, z=z, rel_change=rel,
                         changepoint_seq=changepoint_seq,
                         changepoint_score=changepoint_score, **common)


def check_trajectories(directory: str | os.PathLike | None = None,
                       benches: Iterable[str] | None = None
                       ) -> RegressionReport:
    """Run the gate over every (or the named) committed trajectories,
    each metric in the direction and at the bound its document holds."""
    base = trajectory_dir(directory)
    names = sorted(benches) if benches is not None \
        else list_trajectories(base)
    report = RegressionReport(directory=str(base))
    for name in names:
        document = load_trajectory(name, base)
        verdict = TrajectoryVerdict(bench=name,
                                    entries=len(document["entries"]))
        series = _series_of(document)
        for metric in sorted(series, key=lambda key: (
                BLOCKS.index(series[key].block), key)):
            points = series[metric]
            declared = document["metrics"].get(metric, {})
            # A per-layer metric names its layer by prefix (core., ...).
            layer = metric.split(".", 1)[0] \
                if points.block == "per_layer" else points.block
            verdict.series.append(judge_series(
                metric, points.values, better=declared.get("better"),
                threshold=declared.get("bound", REL_THRESHOLD),
                seqs=points.seqs, layer=layer))
        report.benches.append(verdict)
    return report
