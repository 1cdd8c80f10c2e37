"""Incremental tentative-schedule construction (the RUA hot loop).

``build_rua_schedule`` (the reference, Section 3.4) copies the whole
schedule and effective-critical-time map once per examined candidate.
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

:func:`build_singleton_schedule` implements that, and
:class:`ScheduleCache` adds cross-pass repair: the builder examines
candidates in PUD order and its accept/reject decision for candidate
``i`` is a pure function of ``now`` and the ``(remaining, critical
time)`` pairs of candidates ``0..i``.  If a new pass at the same ``now``
shares a prefix with the previous pass's candidate list (the common case
for same-instant rescheduling cascades: a burst arrival or a
retry-guard abort changes *one* entry), the prefix decisions are
replayed verbatim and only the suffix is recomputed.  A full rebuild is
the automatic fallback whenever the clock moved or the prefix is empty —
exactness never depends on the cache (DESIGN.md §12 states the
invariants).  The cache also keeps each live job's fixed scheduling
fields, so :func:`singleton_pass` computes only the remaining demand and
the PUD per job and pass.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable

from repro.core.interface import PassResult
from repro.tasks.job import Job

#: One candidate, in PUD-examination order: ``(-pud, ct, name, index,
#: remaining, job)``.  The leading fields are the examination sort key
#: (non-increasing PUD, then earlier absolute critical time ``ct``, then
#: name, then ``index``, the job's input position, so two jobs are never
#: compared); ``remaining`` is the job's remaining demand snapshot for
#: this pass.
Entry = tuple[float, int, str, int, int, Job]

#: Per-job fields that never change between passes: ``(ct, name,
#: release, utility, body_suffix, durations)``, where ``utility`` is the
#: bound TUF method and ``durations`` the segment durations with a
#: trailing 0 for the finished position.
_Fixed = tuple[int, str, int, Callable[[int], float], tuple[int, ...],
               tuple[int, ...]]


def _fixed_fields(job: Job) -> _Fixed:
    task = job.task
    return (job.critical_time_abs, job.name, job.release_time,
            task.tuf.utility, task.body_suffix,
            tuple(segment.duration for segment in task.body) + (0,))


class ScheduleCache:
    """Memo of the previous singleton-chain pass's accept/reject
    decisions, keyed by ``(now, candidate prefix)``, plus each live
    job's fixed scheduling fields.

    Purely an acceleration structure: its hits replay decisions that
    are provably identical, so it can be shared across reschedule
    cascades, deadlock-victim reruns and fault-injected timelines alike.
    It compares candidates by job identity, and the references it holds
    keep those identities from being reused while they are compared.
    """

    __slots__ = ("_now", "_entries", "_rejected", "_fixed")

    def __init__(self) -> None:
        self._now: int | None = None
        self._entries: list[Entry] = []
        self._rejected: list[Job] = []
        self._fixed: dict[Job, _Fixed] = {}

    def reusable_prefix(self, now: int, entries: list[Entry]) -> int:
        """Number of leading candidates whose accept/reject decision can
        be replayed from the previous pass (0 = full rebuild): the same
        job with the same remaining demand, at the same ``now``."""
        if now != self._now:
            return 0
        old = self._entries
        bound = min(len(old), len(entries))
        i = 0
        while (i < bound and old[i][5] is entries[i][5]
               and old[i][4] == entries[i][4]):
            i += 1
        return i

    def store(self, now: int, entries: list[Entry],
              rejected: list[Job]) -> None:
        self._now = now
        self._entries = entries
        self._rejected = rejected

    def fixed_fields(self, jobs: list[Job]) -> dict[Job, _Fixed]:
        """The per-job fixed-field table, filled lazily by the pass;
        entries of departed jobs are dropped once they outnumber the
        live ones."""
        fixed = self._fixed
        if len(fixed) > 2 * len(jobs) + 16:
            fixed = self._fixed = {job: fixed[job] for job in jobs
                                   if job in fixed}
        return fixed

    def invalidate(self) -> None:
        self._now = None
        self._entries = []
        self._rejected = []
        self._fixed = {}


def build_singleton_schedule(entries: list[Entry], now: int,
                             cache: ScheduleCache | None = None,
                             obs=None) -> list[Job]:
    """Section 3.4 construction specialized to singleton chains.

    ``entries`` lists the candidates in non-increasing PUD order (the
    sorted :data:`Entry` tuples).  Produces exactly the schedule
    :func:`repro.core.schedule_builder.build_rua_schedule` would for
    ``chains = {job: [job]}`` — the equivalence is pinned by a
    hypothesis property test.
    """
    prefix = 0
    replay_rejected: set[Job] = set()
    if cache is not None:
        prefix = cache.reusable_prefix(now, entries)
        if prefix:
            # The prefix's rejects, as jobs: a job occurs at most once.
            replay_rejected = set(cache._rejected)
    schedule: list[Job] = []
    cts: list[int] = []
    completions: list[int] = []
    rejected: list[Job] = []
    size = 0
    last_ct = 0        # cts[-1] once size > 0
    end = now          # completions[-1] once size > 0
    for index, (_, ct, _, _, remaining, job) in enumerate(entries):
        if not size or ct >= last_ct:
            # End of the ECF array (where ``bisect_right`` would land):
            # no accepted job follows, so the candidate only has to
            # meet its own critical time.
            finish = end + remaining
            if (job not in replay_rejected if index < prefix
                    else finish <= ct):
                schedule.append(job)
                cts.append(ct)
                completions.append(finish)
                size += 1
                last_ct = ct
                end = finish
            else:
                rejected.append(job)
            continue
        # ECF position: after every job with effective ct <= ct (the
        # reference's ``_insert_sorted`` scan, as a bisect).
        position = bisect_right(cts, ct)
        finish = (completions[position - 1] if position else now) + remaining
        if index < prefix:
            accepted = job not in replay_rejected
        else:
            # Feasible iff the candidate itself meets its critical time
            # and pushing the suffix back by ``remaining`` breaks no
            # already-accepted job.  The prefix is untouched and was
            # feasible when accepted.
            accepted = finish <= ct
            if accepted:
                for i in range(position, size):
                    if completions[i] + remaining > cts[i]:
                        accepted = False
                        break
        if accepted:
            schedule.insert(position, job)
            cts.insert(position, ct)
            completions.insert(position, finish)
            size += 1
            for i in range(position + 1, size):
                completions[i] += remaining
            end += remaining
        else:
            rejected.append(job)
    if cache is not None:
        cache.store(now, entries, rejected)
        if obs is not None and obs.enabled:
            if prefix:
                obs.counter("sched.repair.replayed", prefix)
            obs.counter("sched.repair.computed", len(entries) - prefix)
    return schedule


def singleton_pass(jobs: list[Job], now: int, cache: ScheduleCache,
                   obs=None, *, victims: int = 0,
                   chain_len_max: int = 0) -> PassResult:
    """Steps 2, 4 and 5 of RUA over singleton chains: inline PUDs, the
    non-increasing-PUD sort and :func:`build_singleton_schedule`.

    The PUD is :func:`repro.core.pud.chain_pud` over a one-job chain,
    same arithmetic; only it and the remaining demand (``Job.
    remaining_time``, inlined over the cached segment tables) are
    computed per pass, everything else comes from the cache's per-job
    fixed fields.  Plain tuples sort on ``(-pud, critical time, name)``;
    the input position settles any tie left (task names are not checked
    for uniqueness) just as the reference's stable sort does, so two
    jobs are never compared.  ``victims`` and ``chain_len_max`` pass
    through to the result.
    """
    fixed = cache.fixed_fields(jobs)
    entries = []
    append = entries.append
    index = 0
    for job in jobs:
        fields = fixed.get(job)
        if fields is None:
            fields = fixed[job] = _fixed_fields(job)
        ct, name, release, utility, suffix, durations = fields
        segment = job.segment_index
        progress = job.segment_progress
        duration = durations[segment]
        # max(tail - progress, tail - duration): an injected overrun can
        # push progress past the declared duration.
        remaining = suffix[segment] - (progress if progress < duration
                                       else duration)
        if remaining <= 0:
            pud = float("inf")
        else:
            pud = (0.0 + utility(now + remaining - release)) / remaining
        append((-pud, ct, name, index, remaining, job))
        index += 1
    entries.sort()
    order = build_singleton_schedule(entries, now, cache=cache, obs=obs)
    return PassResult(order=order, rejections=len(jobs) - len(order),
                      victims=victims, chain_len_max=chain_len_max)
