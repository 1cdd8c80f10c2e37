"""Tentative-schedule construction (Sections 3.4 and 3.4.1).

RUA examines jobs in non-increasing PUD order and inserts each job *with
its dependents* into a copy of the schedule, maintaining
earliest-critical-time-first (ECF) order while respecting dependency
order.  When the two orders conflict (a dependent's critical time is later
than its successor's), the dependent inherits the successor's critical
time and is placed immediately before it — the paper's Figure 4.  Jobs
already present in the schedule (inserted as someone else's dependent) may
need to be moved to restore dependency order — Figure 5.

The schedule is a plain Python list ordered by effective critical time;
``effective_ct`` carries the (possibly inherited) critical times used for
ordering and feasibility.
"""

from __future__ import annotations

from repro.core.feasibility import is_feasible
from repro.tasks.job import Job


def _insert_sorted(schedule: list[Job], effective_ct: dict[Job, int],
                   job: Job, before: Job | None = None) -> None:
    """Insert ``job`` at its ECF position; if ``before`` is given, never
    later than ``before`` (dependency order wins ties and conflicts)."""
    ct = effective_ct[job]
    limit = len(schedule)
    if before is not None:
        limit = schedule.index(before)
    position = 0
    while position < limit and effective_ct[schedule[position]] <= ct:
        position += 1
    schedule.insert(position, job)


def insert_chain(schedule: list[Job], effective_ct: dict[Job, int],
                 chain: list[Job]) -> None:
    """Insert a job and its dependents (``chain``, head first) into the
    tentative schedule, tail-to-head, per Section 3.4.1.

    Mutates ``schedule`` and ``effective_ct`` in place; callers pass
    copies and commit them only if the result is feasible.
    """
    successor: Job | None = None
    for job in reversed(chain):
        own_ct = effective_ct.get(job, job.critical_time_abs)
        if successor is None:
            # The tail (the job being examined).  It may already be in the
            # schedule as a previously inserted dependent; then there is
            # nothing to do (its position already respects every
            # constraint recorded so far).
            if job not in schedule:
                effective_ct[job] = own_ct
                _insert_sorted(schedule, effective_ct, job)
        else:
            successor_ct = effective_ct[successor]
            if job in schedule:
                # Figure 5: the dependent was inserted earlier (for some
                # other chain).  Ensure it still precedes `successor`.
                if own_ct > successor_ct:
                    # Case 2: remove, inherit, reinsert before successor.
                    schedule.remove(job)
                    effective_ct[job] = successor_ct
                    _insert_sorted(schedule, effective_ct, job,
                                   before=successor)
                elif schedule.index(job) > schedule.index(successor):
                    # Equal critical times can leave the dependent after
                    # its successor; reposition without inheritance.
                    schedule.remove(job)
                    _insert_sorted(schedule, effective_ct, job,
                                   before=successor)
            else:
                # Figure 4: fresh insertion of a dependent.
                if own_ct > successor_ct:
                    own_ct = successor_ct  # critical-time inheritance
                effective_ct[job] = own_ct
                _insert_sorted(schedule, effective_ct, job,
                               before=successor)
        successor = job


def build_rua_schedule(pud_order: list[Job],
                       chains: dict[Job, list[Job]],
                       now: int) -> list[Job]:
    """The full Section 3.4 construction.

    ``pud_order`` lists jobs by non-increasing PUD; ``chains`` maps each
    job to its dependency chain (head first).  Returns the feasible
    schedule in ECF order; rejected jobs are simply absent.
    """
    schedule: list[Job] = []
    effective_ct: dict[Job, int] = {}
    for job in pud_order:
        if job in schedule:
            # Already inserted as a dependent of a higher-PUD job.
            continue
        tentative = schedule.copy()
        tentative_ct = effective_ct.copy()
        insert_chain(tentative, tentative_ct, chains[job])
        if is_feasible(tentative, tentative_ct, now):
            schedule = tentative
            effective_ct = tentative_ct
    return schedule
