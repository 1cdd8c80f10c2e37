"""Kernel event taxonomy.

The paper's scheduling events are "job arrivals, job departures, lock and
unlock requests, expiration of job critical times" (Section 3).  In this
simulator, lock/unlock requests and job departures are *synchronous*
transitions — they happen when the running job's execution reaches a
segment boundary — so the queued event kinds reduce to:

* :class:`JobArrival` — a UAM release instant of some task;
* :class:`CriticalTimeExpiry` — the per-job abort timer (Section 3.5);
* :class:`Milestone` — the predicted instant at which the currently
  dispatched job finishes its current segment (internal bookkeeping; it
  carries a dispatch token so stale milestones from before a preemption
  are ignored).

The three are plain slotted records: the kernel builds one per queued
event (a milestone per dispatch), so they skip the frozen dataclass's
``object.__setattr__`` per field.  Nothing mutates a queued event.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.tasks.job import Job


class EventPriority(enum.IntEnum):
    """Tie-break classes for simultaneous events.

    At a shared instant the abort timer must fire before new arrivals are
    admitted (a job whose critical time is *now* accrues zero utility and
    must not be re-examined by the scheduler), and both must precede the
    running job's milestone processing.
    """

    TIMER = 0
    ARRIVAL = 1
    MILESTONE = 2


@dataclass(slots=True, eq=False)
class JobArrival:
    """Release of job ``jid`` of task index ``task_index``.

    ``injected`` marks arrivals synthesized by the fault layer (burst
    faults beyond the UAM budget); ``deferrals`` counts how many times
    the admission guard has already pushed this arrival back.
    """

    task_index: int
    jid: int
    injected: bool = False
    deferrals: int = 0


@dataclass(slots=True, eq=False)
class CriticalTimeExpiry:
    """One-shot abort timer armed at the job's release (Section 3.5)."""

    job: Job


@dataclass(slots=True, eq=False)
class Milestone:
    """The dispatched job reaches the end of its current segment.

    ``token`` snapshots ``job.dispatch_token`` at dispatch; the kernel
    drops milestones whose token no longer matches (the job was preempted,
    blocked, retried or aborted in the meantime).
    """

    job: Job
    token: int
