"""Property tests for the singleton-chain fast builder and its cache.

1. ``build_singleton_schedule`` is decision-identical to the reference
   ``build_rua_schedule`` whenever every dependency chain is a singleton
   (always true under lock-free sharing).
2. The :class:`ScheduleCache` never changes the result: however the
   candidate list mutates between passes — and whatever stale state the
   cache holds — the schedule (and therefore the chosen job at its
   head) equals a fresh cache-free construction.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.arrivals import UAMSpec
from repro.core.schedule_builder import build_rua_schedule
from repro.core.schedule_cache import ScheduleCache, build_singleton_schedule
from repro.tasks import Compute, Job, TaskSpec
from repro.tuf import StepTUF


def _make_jobs(spec: list[tuple[int, int]]) -> list[Job]:
    """spec: (compute, critical) per job."""
    jobs = []
    for index, (compute, critical) in enumerate(spec):
        task = TaskSpec(
            name=f"J{index}",
            arrival=UAMSpec(1, 1, critical),
            tuf=StepTUF(critical_time=critical),
            body=(Compute(compute),),
        )
        jobs.append(Job(task=task, jid=0, release_time=0))
    return jobs


def _entries(jobs: list[Job]) -> list[tuple[Job, int, int]]:
    return [(job, job.remaining_time(), job.critical_time_abs)
            for job in jobs]


job_specs = st.lists(
    st.tuples(st.integers(min_value=1, max_value=500),
              st.integers(min_value=1, max_value=2000)),
    min_size=1, max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(spec=job_specs, order_seed=st.integers(0, 2**32 - 1))
def test_singleton_builder_matches_reference(spec, order_seed):
    jobs = _make_jobs(spec)
    random.Random(order_seed).shuffle(jobs)     # arbitrary PUD order
    reference = build_rua_schedule(jobs, {job: [job] for job in jobs},
                                   now=0)
    fast = build_singleton_schedule(_entries(jobs), now=0)
    assert fast == reference


@settings(max_examples=200, deadline=None)
@given(spec=job_specs, mutation_seed=st.integers(0, 2**32 - 1))
def test_cache_never_changes_the_schedule(spec, mutation_seed):
    """Drive one shared cache through a random sequence of candidate-list
    mutations (drop, reorder, clock advance, demand change); every pass
    must equal a fresh cache-free construction — in particular the
    chosen job at the schedule's head never depends on cache state."""
    rng = random.Random(mutation_seed)
    jobs = _make_jobs(spec)
    entries = _entries(jobs)
    cache = ScheduleCache()
    now = 0
    for _ in range(6):
        with_cache = build_singleton_schedule(list(entries), now,
                                              cache=cache)
        fresh = build_singleton_schedule(list(entries), now)
        assert with_cache == fresh
        if with_cache:
            assert with_cache[0] is fresh[0]
        mutation = rng.randrange(4)
        if mutation == 0 and len(entries) > 1:
            del entries[rng.randrange(len(entries))]
        elif mutation == 1:
            rng.shuffle(entries)
        elif mutation == 2:
            now += rng.randrange(0, 300)
        elif mutation == 3 and entries:
            index = rng.randrange(len(entries))
            job, remaining, ct = entries[index]
            entries[index] = (job, max(1, remaining - rng.randrange(0, 50)),
                              ct)


def test_cache_full_prefix_replay_is_exact():
    """Same clock, same candidates: the second pass replays every
    decision and still returns the identical schedule."""
    jobs = _make_jobs([(100, 150), (100, 220), (500, 260), (50, 400)])
    entries = _entries(jobs)
    cache = ScheduleCache()
    first = build_singleton_schedule(entries, now=0, cache=cache)
    assert cache.reusable_prefix(
        0, [(job.serial, remaining, ct)
            for job, remaining, ct in entries]) == len(entries)
    second = build_singleton_schedule(entries, now=0, cache=cache)
    assert second == first == build_singleton_schedule(entries, now=0)


def test_cache_invalidate_forces_full_rebuild():
    jobs = _make_jobs([(100, 150), (100, 220)])
    entries = _entries(jobs)
    cache = ScheduleCache()
    build_singleton_schedule(entries, now=0, cache=cache)
    cache.invalidate()
    keys = [(job.serial, remaining, ct) for job, remaining, ct in entries]
    assert cache.reusable_prefix(0, keys) == 0
    assert build_singleton_schedule(entries, now=0, cache=cache) == \
        build_singleton_schedule(entries, now=0)


def test_pud_ties_between_same_named_jobs_break_like_the_reference(
        monkeypatch):
    """Task names are not checked for uniqueness.  When two jobs tie on
    (PUD, critical time, name), the fast sort keeps their input order,
    as the reference's stable sort does, and never compares jobs."""
    from repro.core.rua_lockfree import LockFreeRUA

    def job(compute, height):
        task = TaskSpec(name="T", arrival=UAMSpec(1, 1, 1000),
                        tuf=StepTUF(critical_time=1000, height=height),
                        body=(Compute(compute),))
        return Job(task=task, jid=0, release_time=0)

    # Equal PUD (height / remaining), critical time and name; the
    # later-examined one lands after the other in the ECF schedule.
    jobs = [job(200, 2.0), job(100, 1.0), job(100, 1.0)]
    orders = []
    for reference in (False, True):
        if reference:
            monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        else:
            monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        orders.append(LockFreeRUA().schedule(jobs, None, now=0))
    assert orders[0] == orders[1] == jobs
