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
  maintained completion-time array — no copies, no dict.

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
invariants).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.interface import PassResult
from repro.tasks.job import Job

#: One candidate, in PUD-examination order: ``(job, remaining, ct)``.
#: ``remaining`` is the job's remaining demand snapshot for this pass and
#: ``ct`` its absolute critical time.
Entry = tuple[Job, int, int]


class ScheduleCache:
    """Memo of the previous singleton-chain pass's accept/reject
    decisions, keyed by ``(now, candidate prefix)``.

    Purely an acceleration structure: it stores no job references (only
    never-recycled serials) and its hits replay decisions that are
    provably identical, so it can be shared across reschedule cascades,
    deadlock-victim reruns and fault-injected timelines alike.
    """

    __slots__ = ("_now", "_keys", "_decisions")

    def __init__(self) -> None:
        self._now: int | None = None
        self._keys: list[tuple[int, int, int]] = []
        self._decisions: list[bool] = []

    def reusable_prefix(self, now: int,
                        keys: list[tuple[int, int, int]]) -> int:
        """Number of leading candidates whose accept/reject decision can
        be replayed from the previous pass (0 = full rebuild)."""
        if now != self._now or not self._keys:
            return 0
        old = self._keys
        bound = min(len(old), len(keys))
        i = 0
        while i < bound and old[i] == keys[i]:
            i += 1
        return i

    def store(self, now: int, keys: list[tuple[int, int, int]],
              decisions: list[bool]) -> None:
        self._now = now
        self._keys = keys
        self._decisions = decisions

    def invalidate(self) -> None:
        self._now = None
        self._keys = []
        self._decisions = []


def build_singleton_schedule(entries: list[Entry], now: int,
                             cache: ScheduleCache | None = None,
                             obs=None) -> list[Job]:
    """Section 3.4 construction specialized to singleton chains.

    ``entries`` lists the candidates in non-increasing PUD order.
    Produces exactly the schedule :func:`repro.core.schedule_builder.
    build_rua_schedule` would for ``chains = {job: [job]}`` — the
    equivalence is pinned by a hypothesis property test.
    """
    keys = [(job.serial, remaining, ct) for job, remaining, ct in entries]
    prefix = 0
    cached: list[bool] = []
    if cache is not None:
        prefix = cache.reusable_prefix(now, keys)
        cached = cache._decisions
    schedule: list[Job] = []
    cts: list[int] = []
    completions: list[int] = []
    decisions: list[bool] = []
    for index, (job, remaining, ct) in enumerate(entries):
        # ECF position: after every job with effective ct <= ct (the
        # reference's ``_insert_sorted`` scan, as a bisect).
        position = bisect_right(cts, ct)
        start = completions[position - 1] if position else now
        if index < prefix:
            accepted = cached[index]
        else:
            # Feasible iff the candidate itself meets its critical time
            # and pushing the suffix back by ``remaining`` breaks no
            # already-accepted job.  The prefix is untouched and was
            # feasible when accepted.
            accepted = start + remaining <= ct
            if accepted:
                for i in range(position, len(cts)):
                    if completions[i] + remaining > cts[i]:
                        accepted = False
                        break
        if accepted:
            schedule.insert(position, job)
            cts.insert(position, ct)
            completions.insert(position, start + remaining)
            for i in range(position + 1, len(completions)):
                completions[i] += remaining
        decisions.append(accepted)
    if cache is not None:
        recomputed = len(entries) - prefix
        cache.store(now, keys, decisions)
        if obs is not None and obs.enabled:
            if prefix:
                obs.counter("sched.repair.replayed", prefix)
            obs.counter("sched.repair.computed", recomputed)
    return schedule


def singleton_pass(jobs: list[Job], now: int, cache: ScheduleCache,
                   obs=None, *, victims: int = 0,
                   chain_len_max: int = 0) -> PassResult:
    """Steps 2, 4 and 5 of RUA over singleton chains: inline PUDs, the
    non-increasing-PUD sort and :func:`build_singleton_schedule`.

    The PUD is :func:`repro.core.pud.chain_pud` over a one-job chain,
    same arithmetic.  Plain tuples sort on ``(-pud, critical time,
    name)``; the input position settles any tie left (task names are
    not checked for uniqueness) just as the reference's stable sort
    does, so two jobs are never compared.  ``victims`` and
    ``chain_len_max`` pass through to the result.
    """
    entries = []
    for index, job in enumerate(jobs):
        remaining = job.remaining_time()
        if remaining <= 0:
            pud = float("inf")
        else:
            utility = 0.0 + job.task.tuf.utility(
                now + remaining - job.release_time)
            pud = utility / remaining
        entries.append((-pud, job.critical_time_abs, job.name, index,
                        remaining, job))
    entries.sort()
    order = build_singleton_schedule(
        [(job, remaining, ct) for _, ct, _, _, remaining, job in entries],
        now, cache=cache, obs=obs)
    return PassResult(order=order, rejections=len(jobs) - len(order),
                      victims=victims, chain_len_max=chain_len_max)
