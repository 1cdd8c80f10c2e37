"""Trace-diff diagnosis: where did two runs start to disagree?

``python -m repro diff A B`` aligns two exported traces — the JSONL
event stream or the Chrome trace-event JSON that ``repro profile``
writes — and answers the question raw telemetry cannot: *which
scheduling decision diverged first, and what did each task pay for it*.
The canonical use is lock-based vs lock-free RUA at the same seed
(the paper's central comparison), or before/after a kernel change.

Both exported formats are lossless over the deterministic event model
(:mod:`repro.obs.events`), so the diff is exact and deterministic: the
same pair of traces always yields the same first divergence and the
same per-task deltas in retries, aborts, blocking time and accrued
utility.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

#: Lanes that carry kernel machinery, not per-task work.
_NON_TASK_TIDS = frozenset({"kernel"})


class TraceFormatError(ValueError):
    """The file is neither a JSONL event stream nor a Chrome trace."""


@dataclass
class TraceView:
    """A trace normalized back into the deterministic event model:
    plain dict rows with ``name``/``cat``/``tid`` and nanosecond
    timestamps, independent of which exporter wrote the file."""

    path: str
    spans: list[dict[str, Any]] = field(default_factory=list)
    instants: list[dict[str, Any]] = field(default_factory=list)
    counters: list[dict[str, Any]] = field(default_factory=list)

    def decisions(self) -> list[dict[str, Any]]:
        """Scheduler decisions in simulated-time order (ties broken by
        recording order, which both exporters preserve)."""
        rows = [span for span in self.spans
                if span["name"] == "sched.decision"]
        rows.sort(key=lambda span: span["start"])
        return rows

    def task_tids(self) -> list[str]:
        tids = {row["tid"] for row in (*self.spans, *self.instants)}
        return sorted(tids - _NON_TASK_TIDS)


def _from_jsonl(lines: list[str], path: str) -> TraceView:
    view = TraceView(path=path)
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{path}:{number}: not JSON ({exc})") from exc
        kind = row.get("type")
        if kind == "span":
            view.spans.append(row)
        elif kind == "instant":
            view.instants.append(row)
        elif kind == "counter":
            view.counters.append(row)
        else:
            raise TraceFormatError(
                f"{path}:{number}: unknown event type {kind!r}")
    return view


def _from_chrome(document: dict[str, Any], path: str) -> TraceView:
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise TraceFormatError(f"{path}: no traceEvents array")
    # Integer tid -> lane name, from the thread_name metadata records.
    lanes: dict[int, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            lanes[event.get("tid")] = event.get("args", {}).get("name", "")

    def lane(event: dict[str, Any]) -> str:
        return lanes.get(event.get("tid"), str(event.get("tid")))

    def to_ns(ts_us: float) -> int:
        return round(float(ts_us) * 1000.0)

    view = TraceView(path=path)
    for event in events:
        phase = event.get("ph")
        if phase == "X":
            view.spans.append({
                "type": "span", "name": event.get("name", ""),
                "cat": event.get("cat", ""), "tid": lane(event),
                "start": to_ns(event.get("ts", 0)),
                "duration": to_ns(event.get("dur", 0)),
                "args": dict(event.get("args", {})),
            })
        elif phase == "i":
            view.instants.append({
                "type": "instant", "name": event.get("name", ""),
                "cat": event.get("cat", ""), "tid": lane(event),
                "ts": to_ns(event.get("ts", 0)),
                "args": dict(event.get("args", {})),
            })
        elif phase == "C":
            view.counters.append({
                "type": "counter", "name": event.get("name", ""),
                "ts": to_ns(event.get("ts", 0)),
                "value": event.get("args", {}).get("value"),
            })
    return view


def load_trace(path: str | os.PathLike) -> TraceView:
    """Load either exported format; the Chrome document is detected by
    its ``traceEvents`` envelope, anything else parses as JSONL."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if not stripped:
        return TraceView(path=str(path))
    if stripped.startswith("{"):
        # One JSON document: the Chrome envelope.  A multi-line JSONL
        # stream also starts with "{" but fails the whole-file parse
        # and falls through to line-by-line parsing.
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            document = None
        if isinstance(document, dict):
            if "traceEvents" in document:
                return _from_chrome(document, str(path))
            if document.get("type") not in ("span", "instant", "counter"):
                raise TraceFormatError(
                    f"{path}: JSON document without traceEvents")
    return _from_jsonl(text.splitlines(), str(path))


# ----------------------------------------------------------------------
# Alignment & deltas
# ----------------------------------------------------------------------


def _decision_key(span: dict[str, Any]) -> tuple:
    args = span.get("args", {})
    return (span["start"], args.get("n"), args.get("chosen"),
            args.get("passes"))


def _decision_brief(span: dict[str, Any] | None) -> dict[str, Any] | None:
    if span is None:
        return None
    args = span.get("args", {})
    return {"t": span["start"], "n": args.get("n"),
            "chosen": args.get("chosen"), "passes": args.get("passes"),
            "cost": span.get("duration")}


@dataclass(frozen=True)
class Divergence:
    """The first scheduling decision the two traces disagree on."""

    index: int                      # 0-based decision number
    a: dict[str, Any] | None       # None = trace A ran out of decisions
    b: dict[str, Any] | None

    def to_dict(self) -> dict[str, Any]:
        return {"index": self.index, "a": self.a, "b": self.b}


@dataclass
class TaskDelta:
    """Per-task accounting difference (B minus A)."""

    tid: str
    retries: tuple[int, int] = (0, 0)
    aborts: tuple[int, int] = (0, 0)
    completions: tuple[int, int] = (0, 0)
    blocking_ns: tuple[int, int] = (0, 0)
    exec_ns: tuple[int, int] = (0, 0)
    utility: tuple[float, float] = (0.0, 0.0)

    def deltas(self) -> dict[str, float]:
        return {name: pair[1] - pair[0]
                for name, pair in self._pairs().items()}

    def _pairs(self) -> dict[str, tuple]:
        return {"retries": self.retries, "aborts": self.aborts,
                "completions": self.completions,
                "blocking_ns": self.blocking_ns, "exec_ns": self.exec_ns,
                "utility": self.utility}

    @property
    def changed(self) -> bool:
        return any(pair[0] != pair[1] for pair in self._pairs().values())

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"tid": self.tid, "changed": self.changed}
        for name, (in_a, in_b) in self._pairs().items():
            out[name] = {"a": in_a, "b": in_b, "delta": in_b - in_a}
        return out


def _task_stats(view: TraceView) -> dict[str, dict[str, float]]:
    stats: dict[str, dict[str, float]] = {}

    def row(tid: str) -> dict[str, float]:
        return stats.setdefault(tid, {
            "retries": 0, "aborts": 0, "completions": 0,
            "blocking_ns": 0, "exec_ns": 0, "utility": 0.0})

    for instant in view.instants:
        tid = instant["tid"]
        if tid in _NON_TASK_TIDS:
            continue
        name = instant["name"]
        if name == "retry":
            row(tid)["retries"] += 1
        elif name == "abort":
            row(tid)["aborts"] += 1
        elif name == "complete":
            entry = row(tid)
            entry["completions"] += 1
            utility = instant.get("args", {}).get("utility")
            if isinstance(utility, (int, float)):
                entry["utility"] += float(utility)
    for span in view.spans:
        tid = span["tid"]
        if tid in _NON_TASK_TIDS:
            continue
        if span["name"] == "exec":
            row(tid)["exec_ns"] += span["duration"]
        elif span["cat"] == "lock" or span["name"].startswith("blocked:"):
            row(tid)["blocking_ns"] += span["duration"]
    return stats


@dataclass
class TraceDiff:
    """The full diagnosis of a trace pair."""

    path_a: str
    path_b: str
    decisions_a: int
    decisions_b: int
    divergence: Divergence | None
    tasks: list[TaskDelta] = field(default_factory=list)

    @property
    def identical_schedule(self) -> bool:
        return self.divergence is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "a": self.path_a,
            "b": self.path_b,
            "decisions": {"a": self.decisions_a, "b": self.decisions_b},
            "identical_schedule": self.identical_schedule,
            "first_divergence": (None if self.divergence is None
                                 else self.divergence.to_dict()),
            "tasks": [task.to_dict() for task in self.tasks],
            "changed_tasks": sum(1 for task in self.tasks if task.changed),
        }

    def render(self) -> str:
        title = f"trace diff: {self.path_a} vs {self.path_b}"
        lines = [title, "=" * len(title)]
        lines.append(f"scheduling decisions: A={self.decisions_a} "
                     f"B={self.decisions_b}")
        if self.divergence is None:
            lines.append("schedules agree: every scheduling decision "
                         "is identical")
        else:
            div = self.divergence
            lines.append(f"first divergent scheduling decision: "
                         f"#{div.index}")
            for side, brief in (("A", div.a), ("B", div.b)):
                if brief is None:
                    lines.append(f"  {side}: (no further decisions)")
                else:
                    lines.append(
                        f"  {side}: t={brief['t']} n={brief['n']} "
                        f"chosen={brief['chosen'] or '(idle)'} "
                        f"passes={brief['passes']} cost={brief['cost']}")
        changed = [task for task in self.tasks if task.changed]
        lines.append("")
        lines.append(f"per-task deltas (B - A), {len(changed)} of "
                     f"{len(self.tasks)} tasks changed:")
        header = (f"  {'task':<12} {'retries':>12} {'aborts':>10} "
                  f"{'blocked_ns':>16} {'exec_ns':>16} {'utility':>14}")
        lines += [header, "  " + "-" * (len(header) - 2)]

        def cell(pair: tuple, width: int, floats: bool = False) -> str:
            in_a, in_b = pair
            if in_a == in_b:
                text = f"{in_a:.3f}" if floats else f"{in_a}"
                return f"{text:>{width}}"
            if floats:
                return f"{in_a:.3f}->{in_b:.3f}".rjust(width)
            return f"{in_a}->{in_b}".rjust(width)

        for task in self.tasks:
            lines.append(
                f"  {task.tid:<12} {cell(task.retries, 12)} "
                f"{cell(task.aborts, 10)} {cell(task.blocking_ns, 16)} "
                f"{cell(task.exec_ns, 16)} "
                f"{cell(task.utility, 14, floats=True)}")
        total_a = sum(task.utility[0] for task in self.tasks)
        total_b = sum(task.utility[1] for task in self.tasks)
        lines.append("")
        lines.append(f"accrued utility: A={total_a:.3f} B={total_b:.3f} "
                     f"(delta {total_b - total_a:+.3f})")
        return "\n".join(lines)


def diff_traces(view_a: TraceView, view_b: TraceView) -> TraceDiff:
    """Align two normalized traces and compute the diagnosis."""
    decisions_a = view_a.decisions()
    decisions_b = view_b.decisions()
    divergence: Divergence | None = None
    for index in range(max(len(decisions_a), len(decisions_b))):
        span_a = decisions_a[index] if index < len(decisions_a) else None
        span_b = decisions_b[index] if index < len(decisions_b) else None
        if (span_a is None or span_b is None
                or _decision_key(span_a) != _decision_key(span_b)):
            divergence = Divergence(index=index,
                                    a=_decision_brief(span_a),
                                    b=_decision_brief(span_b))
            break

    stats_a = _task_stats(view_a)
    stats_b = _task_stats(view_b)
    tasks: list[TaskDelta] = []
    for tid in sorted(set(stats_a) | set(stats_b)):
        in_a = stats_a.get(tid, {})
        in_b = stats_b.get(tid, {})

        def pair(key: str, cast=int) -> tuple:
            return (cast(in_a.get(key, 0)), cast(in_b.get(key, 0)))

        tasks.append(TaskDelta(
            tid=tid,
            retries=pair("retries"),
            aborts=pair("aborts"),
            completions=pair("completions"),
            blocking_ns=pair("blocking_ns"),
            exec_ns=pair("exec_ns"),
            utility=pair("utility", float),
        ))
    return TraceDiff(path_a=view_a.path, path_b=view_b.path,
                     decisions_a=len(decisions_a),
                     decisions_b=len(decisions_b),
                     divergence=divergence, tasks=tasks)


def diff_trace_files(path_a: str | os.PathLike,
                     path_b: str | os.PathLike) -> TraceDiff:
    return diff_traces(load_trace(path_a), load_trace(path_b))
