"""Property tests for the singleton-chain fast pass.

1. ``singleton_pass`` builds exactly the schedule the reference
   ``build_rua_schedule`` builds from the same examination order
   whenever every dependency chain is a singleton (always true under
   lock-free sharing) — for any examination order, including equal
   critical times, where examination order alone settles the ECF
   order, and candidates that all land at the end of the ECF array.
2. ``singleton_pass`` (PUDs over each job's own fields, the sort and
   the construction) orders exactly like the reference pass, including
   zero remaining demand (infinite PUD), a live set that changes
   between passes, and a pass over one job.
3. Lock-based RUA still builds real dependency chains when a lock is
   held and a job waits for it, on the fast and the reference path.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.arrivals import UAMSpec
from repro.core.pud import chain_pud
from repro.core.rua_lockbased import LockBasedRUA
from repro.core.schedule_builder import build_rua_schedule, singleton_pass
from repro.sim.locks import LockManager
from repro.tasks import Compute, Job, ObjectAccess, TaskSpec
from repro.tuf import LinearDecreasingTUF, StepTUF


def _make_jobs(spec: list[tuple[int, int]], release: int = 0,
               first: int = 0) -> list[Job]:
    """spec: (compute, critical) per job; a compute of 0 gives a job
    with no remaining demand."""
    jobs = []
    for index, (compute, critical) in enumerate(spec, start=first):
        task = TaskSpec(
            name=f"J{index}",
            arrival=UAMSpec(1, 1, critical),
            tuf=StepTUF(critical_time=critical),
            body=(Compute(compute),),
        )
        jobs.append(Job(task=task, jid=0, release_time=release))
    return jobs


def _ranked_jobs(spec: list[tuple[int, int]]) -> list[Job]:
    """spec: (compute >= 1, critical) per job, in the order the pass is
    to examine them.  The job at rank ``r`` gets a step TUF of height
    ``(len(spec) - r) * compute``: its PUD is ``len(spec) - r`` for as
    long as it can still accrue utility."""
    jobs = []
    for rank, (compute, critical) in enumerate(spec):
        task = TaskSpec(
            name=f"J{rank}",
            arrival=UAMSpec(1, 1, critical),
            tuf=StepTUF(critical_time=critical,
                        height=float((len(spec) - rank) * compute)),
            body=(Compute(compute),),
        )
        jobs.append(Job(task=task, jid=0, release_time=0))
    return jobs


def _pud_order(jobs: list[Job], now: int) -> list[Job]:
    """The reference examination order: chain PUDs, a stable sort."""
    puds = {job: chain_pud([job], now) for job in jobs}
    return sorted(jobs, key=lambda job: (-puds[job], job.critical_time_abs,
                                         job.name))


def _reference_schedule(order: list[Job], now: int) -> list[Job]:
    """The copying Section 3.4 builder over singleton chains, examining
    the jobs in ``order``."""
    return build_rua_schedule(order, {job: [job] for job in order}, now)


def _reference_pass(jobs: list[Job], now: int) -> list[Job]:
    """The lock-free reference pass: chain PUDs, a stable sort, the
    copying Section 3.4 builder."""
    return _reference_schedule(_pud_order(jobs, now), now)


def _ranked_pass_matches_reference(jobs: list[Job], now: int) -> None:
    """``singleton_pass`` over ``jobs`` in reverse input order equals the
    reference builder over the ranked examination order; every job that
    can still accrue utility is examined in rank order."""
    examined = _pud_order(jobs, now)
    accruing = [job for job in jobs if chain_pud([job], now) > 0]
    assert [job for job in examined if job in accruing] == accruing
    fast = singleton_pass(jobs[::-1], now)
    assert fast.order == _reference_schedule(examined, now)
    assert fast.rejections == len(jobs) - len(fast.order)


job_specs = st.lists(
    st.tuples(st.integers(min_value=1, max_value=500),
              st.integers(min_value=1, max_value=2000)),
    min_size=1, max_size=10,
)

#: Few distinct critical times and some zero demands: ties everywhere.
tied_specs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=300),
              st.sampled_from([200, 400, 600])),
    min_size=1, max_size=12,
)

#: Few distinct critical times and demands small enough that, up to
#: ``now = 49``, every job can still accrue utility: the ranked PUDs
#: alone set the examination order.
ranked_tied_specs = st.lists(
    st.tuples(st.integers(min_value=1, max_value=150),
              st.sampled_from([200, 400, 600])),
    min_size=1, max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(spec=job_specs, order_seed=st.integers(0, 2**32 - 1))
def test_singleton_builder_matches_reference(spec, order_seed):
    random.Random(order_seed).shuffle(spec)     # arbitrary PUD order
    _ranked_pass_matches_reference(_ranked_jobs(spec), now=0)


@settings(max_examples=200, deadline=None)
@given(spec=ranked_tied_specs, order_seed=st.integers(0, 2**32 - 1),
       now=st.integers(0, 49))
def test_equal_critical_times_keep_examination_order(spec, order_seed, now):
    """With equal critical times the ECF position of a job is decided
    by when it was examined: a later one lands after the earlier ones."""
    random.Random(order_seed).shuffle(spec)
    _ranked_pass_matches_reference(_ranked_jobs(spec), now)


@settings(max_examples=200, deadline=None)
@given(spec=ranked_tied_specs, now=st.integers(0, 49))
def test_end_of_array_path_matches_reference(spec, now):
    """Examined in ECF order, every candidate lands at the end of the
    array: only the short path runs."""
    spec.sort(key=lambda entry: entry[1])
    _ranked_pass_matches_reference(_ranked_jobs(spec), now)


@settings(max_examples=200, deadline=None)
@given(spec=tied_specs, now=st.integers(0, 100))
def test_singleton_pass_matches_reference_pass(spec, now):
    """Zero demand gives an infinite PUD: such jobs are examined first,
    and the order still equals the reference pass."""
    jobs = _make_jobs(spec)
    fast = singleton_pass(jobs, now).order
    assert fast == _reference_pass(jobs, now)


@settings(max_examples=100, deadline=None)
@given(spec=job_specs, mutation_seed=st.integers(0, 2**32 - 1))
def test_singleton_pass_tracks_a_changing_live_set(spec, mutation_seed):
    """Passes over one live set while the clock advances, jobs arrive,
    leave and make progress: every pass equals the reference pass."""
    rng = random.Random(mutation_seed)
    jobs = _make_jobs(spec)
    now = 0
    arrivals = len(jobs)
    for _ in range(12):
        order = singleton_pass(jobs, now).order
        assert order == _reference_pass(jobs, now)
        mutation = rng.randrange(5)
        if mutation == 0:
            now += rng.randrange(0, 300)
        elif mutation == 1:
            arrived = _make_jobs([(rng.randrange(1, 500),
                                   rng.randrange(1, 2000))],
                                 release=now, first=arrivals)
            arrivals += 1
            jobs.insert(rng.randrange(len(jobs) + 1), arrived[0])
        elif mutation == 2 and jobs:
            del jobs[rng.randrange(len(jobs))]
        elif mutation == 3 and order:
            # The head runs for a while: progress and the clock move.
            ran = min(order[0].segment_remaining(), rng.randrange(1, 200))
            order[0].advance(ran)
            now += ran
        # mutation 4: a same-instant rerun.


@settings(max_examples=300, deadline=None)
@given(durations=st.lists(st.integers(min_value=0, max_value=300),
                          min_size=1, max_size=3),
       critical=st.integers(min_value=1, max_value=1000),
       data=st.data())
def test_one_candidate_pass_matches_reference_pass(durations, critical,
                                                   data):
    """A pass over one job: the candidate takes the builder's
    end-of-array test, accepted iff it meets its own critical time from
    ``now``.  Covers zero demand, an injected
    overrun (progress past the declared duration, which the scheduler
    clamps) and a critical time already in the past (a dropped
    critical-time timer)."""
    task = TaskSpec(name="J", arrival=UAMSpec(1, 1, 1000),
                    tuf=StepTUF(critical_time=critical),
                    body=tuple(Compute(d) for d in durations))
    job = Job(task=task, jid=0, release_time=data.draw(
        st.integers(min_value=0, max_value=500), label="release"))
    job.segment_index = data.draw(
        st.integers(min_value=0, max_value=len(durations)), label="segment")
    if job.segment_index < len(durations):
        # Up to 200 ticks of injected overrun past the declared duration.
        job.segment_extra = data.draw(st.integers(0, 200), label="overrun")
        job.segment_progress = data.draw(st.integers(
            0, durations[job.segment_index] + job.segment_extra),
            label="progress")
    now = data.draw(st.integers(min_value=job.release_time,
                                max_value=job.critical_time_abs + 500),
                    label="now")
    result = singleton_pass([job], now)
    reference = _reference_pass([job], now)
    assert result.order == reference
    assert result.rejections == 1 - len(reference)


def test_linear_tuf_pud_changes_with_the_clock():
    """Non-step TUFs: each pass evaluates ``utility`` at its own
    clock, so orders follow the reference as time moves."""
    jobs = []
    for name, critical, initial in (("A", 900, 1.0), ("B", 1200, 3.0),
                                    ("C", 700, 2.0)):
        task = TaskSpec(name=name, arrival=UAMSpec(1, 1, critical),
                        tuf=LinearDecreasingTUF(critical_time=critical,
                                                initial=initial),
                        body=(Compute(150),))
        jobs.append(Job(task=task, jid=0, release_time=0))
    for now in (0, 200, 400, 600, 800):
        assert singleton_pass(jobs, now).order == _reference_pass(jobs, now)


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


@pytest.mark.parametrize("reference", [False, True])
def test_held_lock_with_a_waiter_still_builds_chains(monkeypatch, reference):
    """The no-owner skip must not hide a real dependency: with a lock
    held and a job waiting for it, the pass builds the two-job chain and
    the holder inherits the waiter's earlier critical time."""
    if reference:
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    else:
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)

    def job(name, critical):
        task = TaskSpec(name=name, arrival=UAMSpec(1, 1, 10_000),
                        tuf=StepTUF(critical_time=critical),
                        body=(ObjectAccess(obj="q", duration=300),
                              Compute(100)))
        return Job(task=task, jid=0, release_time=0)

    holder, waiter, other = job("H", 9_000), job("W", 1_000), job("O", 5_000)
    locks = LockManager()
    assert locks.try_acquire(holder, "q")
    holder.holds_lock = "q"
    holder.held_locks.add("q")
    assert locks.has_owners()
    policy = LockBasedRUA()
    result = policy._compute([waiter, other, holder], locks, now=0)
    assert result.chain_len_max == 2
    assert result.order.index(holder) < result.order.index(waiter)
    locks.release(holder, "q")
    assert not locks.has_owners()
    assert policy._compute([waiter, other, holder], locks,
                           now=0).chain_len_max == 1
