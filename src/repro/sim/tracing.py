"""Execution tracing.

The tracer records kernel-level happenings (dispatches, preemptions,
blockings, retries, aborts, completions) as a flat, append-only list of
:class:`TraceEvent`.  Tests use traces to assert fine-grained behaviour;
the experiment harness uses them to measure effective object access times
for Figure 8.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TraceKind(enum.Enum):
    ARRIVAL = "arrival"
    DISPATCH = "dispatch"
    PREEMPT = "preempt"
    BLOCK = "block"
    UNBLOCK = "unblock"
    LOCK_ACQUIRE = "lock_acquire"
    LOCK_RELEASE = "lock_release"
    ACCESS_BEGIN = "access_begin"
    ACCESS_COMMIT = "access_commit"
    RETRY = "retry"
    COMPLETE = "complete"
    ABORT = "abort"
    SCHED_PASS = "sched_pass"
    IDLE = "idle"
    # Fault-injection / graceful-degradation events.
    FAULT = "fault"          # an injected fault landed
    SHED = "shed"            # admission guard rejected an arrival
    DEFER = "defer"          # admission guard pushed an arrival back


@dataclass(frozen=True)
class TraceEvent:
    time: int
    kind: TraceKind
    job: str            # job name, or "" for kernel-level events
    detail: str = ""

    def __str__(self) -> str:
        suffix = f" {self.detail}" if self.detail else ""
        return f"[{self.time:>12}] {self.kind.value:<13} {self.job}{suffix}"

    def to_dict(self) -> dict:
        """JSON-ready form (the obs exporters embed trace events as an
        extra lane in the Chrome trace)."""
        return {"time": self.time, "kind": self.kind.value,
                "job": self.job, "detail": self.detail}


class Tracer:
    """Collects trace events; disabled tracers are near-free."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[TraceEvent] = []

    def emit(self, time: int, kind: TraceKind, job: str = "",
             detail: str = "") -> None:
        if self.enabled:
            self.events.append(TraceEvent(time, kind, job, detail))

    def of_kind(self, kind: TraceKind) -> list[TraceEvent]:
        return [e for e in self.events if e.kind is kind]

    def clear(self) -> None:
        """Drop recorded events (keeps ``enabled``); lets long-lived
        harnesses bound memory between instrumented runs."""
        self.events.clear()
