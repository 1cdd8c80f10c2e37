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

When every dependency chain is a singleton — always under lock-free
sharing, and under lock-based sharing whenever no job is blocked — the
construction simplifies drastically:

* critical-time inheritance never fires (no dependents), so each job's
  effective critical time is its own and the schedule is a plain ECF
  array;
* inserting a candidate at ECF position ``p`` leaves the completion
  times of positions ``< p`` untouched, so feasibility only needs the
  candidate itself plus an ``O(n - p)`` scan of the suffix, against a
  maintained completion-time array — no copies, no dict;
* a candidate that lands at the end of the array (about a third of
  them on dense overloaded sets) has no suffix at all: it is appended
  if it meets its own critical time.

:func:`singleton_pass` implements that fast path in one call: PUDs,
the examination sort and the construction.  It keeps no state between
passes: every fixed field is read from the ``Job`` and its
``TaskSpec``, so there is nothing to invalidate when the jobs change or
a checkpoint is restored.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.feasibility import is_feasible
from repro.core.interface import PassResult
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


def singleton_pass(jobs: list[Job], now: int, *, victims: int = 0,
                   chain_len_max: int = 0) -> PassResult:
    """Steps 2, 4 and 5 of RUA over singleton chains: inline PUDs, the
    non-increasing-PUD sort and the Section 3.4 construction specialized
    to singleton chains.

    The PUD is :func:`repro.core.pud.chain_pud` over a one-job chain,
    same arithmetic; the remaining demand is ``Job.remaining_time``
    inlined over the task's ``body_suffix`` and ``durations`` tables.
    Plain tuples sort on ``(-pud, critical time, name)``; the input
    position settles any tie left (task names are not checked for
    uniqueness) just as the reference's stable sort does, so two jobs
    are never compared.  The order produced is exactly the one
    :func:`build_rua_schedule` builds from that examination order with
    ``chains = {job: [job]}`` — hypothesis property tests pin it.
    ``victims`` and ``chain_len_max`` pass through to the result.
    """
    # One candidate: ``(-pud, ct, name, index, remaining, job)``.  The
    # leading fields are the examination sort key (non-increasing PUD,
    # then earlier absolute critical time ``ct``, then name, then
    # ``index``, the job's input position); ``remaining`` is the job's
    # remaining demand snapshot for this pass.
    entries = []
    append = entries.append
    index = 0
    for job in jobs:
        task = job.task
        segment = job.segment_index
        progress = job.segment_progress
        duration = task.durations[segment]
        # max(tail - progress, tail - duration): an injected overrun can
        # push progress past the declared duration.
        tail = task.body_suffix[segment]
        remaining = tail - (progress if progress < duration else duration)
        if remaining <= 0:
            pud = float("inf")
        else:
            utility = task.tuf.utility(now + remaining - job.release_time)
            pud = (0.0 + utility) / remaining
        append((-pud, job.critical_time_abs, job.name, index, remaining, job))
        index += 1
    entries.sort()
    schedule: list[Job] = []
    cts: list[int] = []
    completions: list[int] = []
    size = 0
    last_ct = 0        # cts[-1] once size > 0
    end = now          # completions[-1] once size > 0
    for _, ct, _, _, remaining, job in entries:
        if not size or ct >= last_ct:
            # End of the ECF array (where ``bisect_right`` would land):
            # no accepted job follows, so the candidate only has to
            # meet its own critical time.
            finish = end + remaining
            if finish <= ct:
                schedule.append(job)
                cts.append(ct)
                completions.append(finish)
                size += 1
                last_ct = ct
                end = finish
            continue
        # ECF position: after every job with effective ct <= ct (the
        # reference's ``_insert_sorted`` scan, as a bisect).
        position = bisect_right(cts, ct)
        finish = (completions[position - 1] if position else now) + remaining
        # Feasible iff the candidate itself meets its critical time and
        # pushing the suffix back by ``remaining`` breaks no
        # already-accepted job.  The prefix is untouched and was
        # feasible when accepted.
        if finish > ct:
            continue
        for i in range(position, size):
            if completions[i] + remaining > cts[i]:
                break
        else:
            schedule.insert(position, job)
            cts.insert(position, ct)
            completions.insert(position, finish)
            size += 1
            for i in range(position + 1, size):
                completions[i] += remaining
            end += remaining
    return PassResult(order=schedule, rejections=index - size,
                      victims=victims, chain_len_max=chain_len_max)
