"""Trace and summary exporters.

Three formats, all written through the campaign layer's
:func:`~repro.campaign.io.atomic_write` so an interrupted export never
leaves a truncated artifact:

* **Chrome trace-event JSON** — loadable in ``chrome://tracing`` and
  Perfetto.  Spans become complete (``ph: "X"``) events, instants become
  ``ph: "i"``, cumulative counters become counter tracks (``ph: "C"``),
  and each ``tid`` lane gets a ``thread_name`` metadata record so
  Perfetto labels the rows.  Timestamps are simulated nanoseconds
  converted to the format's microseconds.
* **JSONL** — one event per line, in recording order; the streaming
  format for ad-hoc analysis (``jq``, pandas).
* **perf summary** — the compact ASCII table ``repro profile`` prints.

Only deterministic data enters the trace formats; wall-clock aggregates
appear solely in the summary table (see the determinism contract in
:mod:`repro.obs.observer`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.campaign.io import atomic_write
from repro.obs.observer import Observer

_PID = 1


def _tid_table(observer: Observer) -> dict[str, int]:
    """Stable string-lane → integer-tid mapping, in first-seen order
    (Chrome requires integer tids; insertion order keeps it
    deterministic)."""
    table: dict[str, int] = {}
    for event in (*observer.spans, *observer.instants):
        if event.tid not in table:
            table[event.tid] = len(table) + 1
    return table


def chrome_trace(observer: Observer) -> dict[str, Any]:
    """Build the trace-event JSON document (pure; no I/O)."""
    tids = _tid_table(observer)
    events: list[dict[str, Any]] = []
    for name, tid in tids.items():
        events.append({"ph": "M", "name": "thread_name", "pid": _PID,
                       "tid": tid, "args": {"name": name}})
    for span in observer.spans:
        events.append({
            "ph": "X", "name": span.name, "cat": span.cat, "pid": _PID,
            "tid": tids[span.tid], "ts": span.start / 1000.0,
            "dur": span.duration / 1000.0, "args": dict(span.args),
        })
    for inst in observer.instants:
        events.append({
            "ph": "i", "s": "t", "name": inst.name, "cat": inst.cat,
            "pid": _PID, "tid": tids[inst.tid], "ts": inst.ts / 1000.0,
            "args": dict(inst.args),
        })
    for sample in observer.counter_samples:
        events.append({
            "ph": "C", "name": sample.name, "pid": _PID, "tid": 0,
            "ts": sample.ts / 1000.0, "args": {"value": sample.value},
        })
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(path: str | os.PathLike, observer: Observer) -> Path:
    """Serialize and atomically write the Chrome trace to ``path``."""
    document = chrome_trace(observer)
    return atomic_write(path, json.dumps(document, sort_keys=True,
                                         separators=(",", ":")) + "\n")


def events_jsonl(observer: Observer) -> str:
    """All deterministic events, one JSON object per line."""
    lines = []
    for event in (*observer.spans, *observer.instants,
                  *observer.counter_samples):
        lines.append(json.dumps(event.to_dict(), sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(path: str | os.PathLike, observer: Observer) -> Path:
    return atomic_write(path, events_jsonl(observer))


def render_summary(summary: dict[str, Any], title: str = "perf summary") -> str:
    """Compact ASCII table of an :meth:`Observer.summary` payload."""
    lines = [title, "=" * len(title)]
    if not summary.get("enabled"):
        lines.append("observability disabled")
        return "\n".join(lines)
    counters = summary.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(k) for k in counters)
        for name, value in counters.items():
            lines.append(f"  {name.ljust(width)}  {value}")
    histograms = summary.get("histograms", {})
    if histograms:
        lines.append("histograms (count/min/mean/p90/max):")
        width = max(len(k) for k in histograms)
        for name, h in histograms.items():
            if not h.get("count"):
                lines.append(f"  {name.ljust(width)}  n=0")
                continue
            lines.append(
                f"  {name.ljust(width)}  n={h['count']}"
                f" min={h['min']:g} mean={h['mean']:.4g}"
                f" p90={h['p90']:g} max={h['max']:g}")
    sched = summary.get("scheduler", {})
    if sched.get("decisions"):
        wall = sched["wall_ns"]
        lines.append(
            f"scheduler decisions: {sched['decisions']} "
            f"(wall mean={wall.get('mean', 0.0):.0f} ns, "
            f"p90={wall.get('p90', 0.0):.0f} ns)")
        lines.append("  per ready-queue size n "
                     "(sim cost drives the O(n^2) claim):")
        for n, row in sched.get("by_n", {}).items():
            lines.append(
                f"    n={n:>3}  passes={row['count']:<6.0f}"
                f" sim_cost_mean={row['sim_cost_mean']:10.1f}"
                f" wall_ns_mean={row['wall_ns_mean']:10.1f}")
    lines.append(f"spans: {summary.get('spans', 0)}  "
                 f"instants: {summary.get('instants', 0)}")
    return "\n".join(lines)
