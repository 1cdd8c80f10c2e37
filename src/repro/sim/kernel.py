"""The simulated RTOS kernel.

Drives the discrete-event simulation: admits UAM job arrivals, invokes the
scheduler policy on every scheduling event (charging its cost model on the
simulated CPU), dispatches and preempts jobs, mediates lock-based and
lock-free object sharing, and enforces the paper's abortion model
(Section 3.5) through per-job critical-time timers.

Scheduling events, per the paper (Section 3): job arrivals, job
departures, lock and unlock requests, and critical-time expirations.
Under lock-free sharing the lock events do not exist — which is exactly
the cost advantage the paper quantifies.

Execution model
---------------
The kernel owns a single simulated CPU.  At every scheduling event it runs
the policy's ``schedule`` pass (cost charged = ``policy.cost_model(n)``),
walks the returned eligibility order to the first dispatchable job
(attempting lock acquisitions along the way; a failed acquisition blocks
that job and charges another activation), and dispatches it after the
charged overhead plus a context switch when the job changes.  The
dispatched job's next segment boundary is predicted exactly and queued as
a Milestone; any intervening event re-enters the scheduler and supersedes
the milestone through the job's dispatch token.
"""

from __future__ import annotations

import enum
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.faults.degradation import (
    AdmissionGuard,
    AdmissionPolicy,
    Decision,
    RetryGuard,
)
from repro.faults.injector import FaultInjector
from repro.faults.monitors import MonitorSuite
from repro.faults.plan import FaultPlan
from repro.faults.report import DegradationReport
from repro.obs.observer import NULL_OBSERVER, NullObserver
from repro.sim.checkpoint import (
    CheckpointPolicy,
    KernelCheckpoint,
    restore_kernel,
    snapshot_kernel,
)
from repro.sim.engine import EventQueue
from repro.sim.events import (
    CriticalTimeExpiry,
    EventPriority,
    JobArrival,
    Milestone,
)
from repro.sim.locks import LockManager
from repro.sim.metrics import SimulationResult, record_of
from repro.sim.objects import LockFreeObjectTable, RetryPolicy
from repro.sim.overheads import KernelCosts
from repro.tasks.job import Job, JobState
from repro.tasks.segments import Compute, ObjectAccess, ReleaseLock
from repro.tasks.task import TaskSpec

if TYPE_CHECKING:  # avoid an import cycle with repro.core
    from repro.core.interface import SchedulerPolicy


class SyncMode(enum.Enum):
    """How shared-object access segments are mediated."""

    #: Ideal objects: zero mechanism cost, no blocking, no retries
    #: (Section 6.1's "ideal RUA" baseline).
    NONE = "none"
    LOCK_BASED = "lock_based"
    LOCK_FREE = "lock_free"


@dataclass
class SimulationConfig:
    """Everything a run needs.  ``arrival_traces[i]`` lists the absolute
    release times of ``tasks[i]``'s jobs (UAM-conformant traces come from
    :mod:`repro.arrivals.generators`).

    The fault/degradation fields are all optional and default off:

    * ``fault_plan`` — deterministic perturbations to inject
      (:mod:`repro.faults.plan`);
    * ``admission`` — UAM admission guarding of out-of-spec arrivals
      (shed or defer instead of overloading downstream analysis);
    * ``retry_guard`` — bounded lock-free retries with backoff, aborting
      through the Section 3.5 abortion model when exhausted;
    * ``monitors`` — online invariant monitors (Theorem 2 retry bound,
      clock monotonicity, lock state, abort point) recording violations
      into the result's degradation report.

    ``observer`` attaches a recording :class:`repro.obs.Observer`; when
    None (the default) the shared no-op singleton is used and the
    instrumented hot paths cost one ``enabled`` attribute test each.
    """

    tasks: Sequence[TaskSpec]
    arrival_traces: Sequence[Sequence[int]]
    policy: "SchedulerPolicy"
    horizon: int
    sync: SyncMode = SyncMode.LOCK_FREE
    costs: KernelCosts = field(default_factory=KernelCosts)
    retry_policy: RetryPolicy = RetryPolicy.ON_CONFLICT
    allow_nesting: bool = False
    # --- fault injection & graceful degradation (all optional) ---------
    fault_plan: FaultPlan | None = None
    admission: AdmissionPolicy | None = None
    retry_guard: RetryGuard | None = None
    monitors: bool = False
    # --- observability (optional; see repro.obs) -----------------------
    observer: NullObserver | None = None
    # --- crash recovery (optional; see repro.sim.checkpoint) ------------
    #: When set, the kernel snapshots itself mid-run at the policy's
    #: cadence; each :class:`KernelCheckpoint` goes to ``checkpoint_sink``
    #: (a callable), or accumulates on ``Kernel.checkpoints`` when no
    #: sink is given.  Checkpointing never perturbs the simulation.
    checkpoints: CheckpointPolicy | None = None
    checkpoint_sink: "object | None" = None

    def __post_init__(self) -> None:
        if len(self.tasks) != len(self.arrival_traces):
            raise ValueError("one arrival trace per task is required")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        for task_index, trace in enumerate(self.arrival_traces):
            previous = None
            beyond = 0
            for release in trace:
                if release < 0:
                    raise ValueError(
                        f"arrival trace of task {task_index} has a "
                        f"negative release time {release}"
                    )
                if previous is not None and release < previous:
                    raise ValueError(
                        f"arrival trace of task {task_index} is not sorted"
                    )
                previous = release
                if release >= self.horizon:
                    beyond += 1
            if beyond:
                warnings.warn(
                    f"arrival trace of task {task_index} has {beyond} "
                    f"arrival(s) at or beyond the horizon "
                    f"{self.horizon}; they will never be released",
                    RuntimeWarning,
                    stacklevel=2,
                )


#: A checkpoint mark no event count or clock reaches.
_NEVER = float("inf")

#: Queue priorities of an arrival and a milestone, as the plain ints the
#: heap compares.
_ARRIVAL = int(EventPriority.ARRIVAL)
_MILESTONE = int(EventPriority.MILESTONE)
#: The dispatchable job states, tested by identity in the pass loop.
_READY = JobState.READY
_RUNNING = JobState.RUNNING


class Kernel:
    """One simulation run.  Create, :meth:`run`, inspect the result."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.obs = (config.observer if config.observer is not None
                    else NULL_OBSERVER)
        # The policy shares the kernel's sink (scheduler-internal hooks).
        config.policy.obs = self.obs
        # Lazy per-task Theorem 2 bounds for the live retry comparison
        # (only computed — per task, once — when a retry is observed).
        self._retry_bounds: dict[int, int | None] = {}
        #: Live-job count -> simulated pass cost (see ``_pass_cost``).
        self._pass_costs: dict[int, int] = {}
        self._task_index = {
            id(task): index for index, task in enumerate(config.tasks)
        }
        self._queue = EventQueue()
        self._clock = 0
        #: The live set, maintained incrementally: jobs append on arrival
        #: and are removed at their completion/abort transition, so every
        #: scheduling pass reads it as-is instead of re-filtering
        #: (arrival order is preserved, exactly as the filter did).
        self._live: list[Job] = []
        self._running: Job | None = None
        self._running_since = 0
        self._kernel_free_at = 0
        self._locks = LockManager(allow_nesting=config.allow_nesting)
        self._objects = LockFreeObjectTable(policy=config.retry_policy)
        self._result = SimulationResult(horizon=config.horizon)
        self._finished = False
        #: Segment-boundary tables of this run's sync mode.
        self._finish = self._FINISH[config.sync]
        self._next = self._NEXT[config.sync]
        #: Only lock-free sharing runs a protocol at the entry of a
        #: shared-object access (lock-based entry is the dispatch walk).
        self._lockfree = config.sync is SyncMode.LOCK_FREE
        # --- fault injection / graceful degradation -------------------
        degradation_active = (
            (config.fault_plan is not None and not config.fault_plan.empty)
            or config.admission is not None
            or config.retry_guard is not None
            or config.monitors
        )
        self._report = DegradationReport() if degradation_active else None
        self._injector = (
            FaultInjector(config.fault_plan, self._report)
            if config.fault_plan is not None and not config.fault_plan.empty
            else None
        )
        self._admission = (
            AdmissionGuard(config.tasks, config.admission, self._report)
            if config.admission is not None else None
        )
        self._monitors = (
            MonitorSuite(config.tasks, self._report, observer=self.obs)
            if config.monitors else None
        )
        # jid counters continue past each declared trace so injected
        # burst arrivals get unique job names.
        self._next_jid = [len(t) for t in config.arrival_traces]
        # Lazy arrivals: the queue holds each task's next trace release
        # only.  Release ``jid`` of task ``i`` (one of the
        # ``_trace_ends[i]`` below the horizon) is queued when release
        # ``jid - 1`` is handled, under sequence number
        # ``_trace_bases[i] + jid``: the number it would have drawn had
        # every release been queued up front, task by task.  Sequence
        # numbers for every other event start past the last of them, so
        # heap keys and the pop order are those of up-front priming.
        self._trace_ends = [bisect_left(trace, config.horizon)
                            for trace in config.arrival_traces]
        self._trace_bases = []
        base = self._queue.reserve(sum(self._trace_ends))
        for end in self._trace_ends:
            self._trace_bases.append(base)
            base += end
        #: The fixed kernel costs, read once.  The hot charge sites use
        #: them only while no injector runs; under one, every charge goes
        #: through ``_cost`` so jitter draws exactly as it always has.
        costs = config.costs
        self._switch_cost = costs.context_switch
        self._lock_cost = costs.lock_overhead
        self._cas_cost = costs.cas_overhead
        # --- crash recovery -------------------------------------------
        #: Snapshots collected when checkpointing is on but no sink is
        #: configured (tests and in-process consumers read this).
        self.checkpoints: list[KernelCheckpoint] = []
        self._events_handled = 0
        self._last_ckpt_event = 0
        self._last_ckpt_clock = 0
        #: True on a kernel rebuilt by :meth:`restore`: ``run`` must not
        #: re-prime arrivals (the queue already holds each task's next
        #: release).
        self._restored = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the simulation to the horizon and return the result."""
        # Re-entry is rejected before any side effect of this call is
        # observable (the queue, clock and result are untouched).
        if self._finished:
            raise RuntimeError(
                "a Kernel instance runs exactly once (this instance "
                f"already ran with horizon={self.config.horizon})"
            )
        self._finished = True
        if not self._restored:
            self._prime_arrivals()
        horizon = self.config.horizon
        monitors = self._monitors
        handlers = self._HANDLERS
        # Every handled event goes through EventQueue.pop (perfbench
        # counts those calls); the loop only peeks at the heap's head.
        pop = self._queue.pop
        heap = self._queue._heap
        obs = self.obs
        obs_enabled = obs.enabled
        # A checkpoint is due once either meter reaches its mark (no
        # call per event while an armed policy stays idle).
        ckpt_policy = self.config.checkpoints
        due_events = due_clock = _NEVER
        if ckpt_policy is not None:
            due_events, due_clock = self._checkpoint_marks(ckpt_policy)
        while heap and heap[0][0] <= horizon:
            time, event = pop()
            if monitors is not None:
                monitors.note_clock(time)
            # Advance the running job to the event's time.
            job = self._running
            if job is not None and time > self._running_since:
                since = self._running_since
                segment = job.task.segment_at[job.segment_index]
                if segment is not None:
                    # Clamped to the segment's remaining work, so
                    # Job.advance's overrun check holds by construction.
                    amount = (segment.duration + job.segment_extra
                              - job.segment_progress)
                    if time - since < amount:
                        amount = time - since
                    if amount > 0:
                        job.segment_progress += amount
                        if monitors is not None:
                            monitors.note_execution(job, since,
                                                    since + amount)
                        if obs_enabled:
                            obs.span("exec", "cpu", job.task.name, since,
                                     amount, {"job": job.name,
                                              "segment": job.segment_index})
                self._running_since = time
            self._clock = time
            handlers[type(event)](self, event)
            self._events_handled += 1
            if self._events_handled >= due_events or time >= due_clock:
                self._emit_checkpoint()
                due_events, due_clock = self._checkpoint_marks(ckpt_policy)
        # The live set contains exactly the unfinished jobs — completed
        # and aborted jobs are removed at their transition (previously
        # this re-scanned a stale list that could still carry departed
        # entries between passes).
        self._result.unfinished = len(self._live)
        self._result.degradation = self._report
        if obs_enabled:
            # The running job's last slice ends at the horizon, not at
            # an event, so the loop above never recorded it.
            job = self._running
            if job is not None and horizon > self._running_since:
                obs.span("exec", "cpu", job.task.name, self._running_since,
                         horizon - self._running_since,
                         {"job": job.name, "segment": job.segment_index})
            obs.close_open_spans(self._clock)
            self._result.obs = obs.summary()
        return self._result

    # ------------------------------------------------------------------
    # Checkpoint / restore (crash recovery; see repro.sim.checkpoint)
    # ------------------------------------------------------------------

    def snapshot(self) -> KernelCheckpoint:
        """Capture the complete current simulation state as a versioned,
        digest-stamped, JSON-serializable checkpoint."""
        return snapshot_kernel(self)

    @classmethod
    def restore(cls, config: SimulationConfig,
                checkpoint: KernelCheckpoint) -> "Kernel":
        """Rebuild a runnable kernel from a checkpoint taken by
        :meth:`snapshot` under an equivalent ``config``.  The returned
        kernel's :meth:`run` finishes the simulation byte-identically to
        the uninterrupted run."""
        return restore_kernel(config, checkpoint)

    def _checkpoint_marks(self, policy: CheckpointPolicy
                          ) -> tuple[int | float, int | float]:
        """The handled-event count and the clock at which the next
        checkpoint is due, counted from the last one (``_NEVER`` for a
        meter the policy does not use)."""
        return (
            _NEVER if policy.every_events is None
            else self._last_ckpt_event + policy.every_events,
            _NEVER if policy.every_ns is None
            else self._last_ckpt_clock + policy.every_ns,
        )

    def _emit_checkpoint(self) -> None:
        # Markers move *before* snapshotting so they are captured inside
        # the checkpoint: a restored run keeps the original cadence.
        self._last_ckpt_event = self._events_handled
        self._last_ckpt_clock = self._clock
        checkpoint = self.snapshot()
        sink = self.config.checkpoint_sink
        if sink is None:
            self.checkpoints.append(checkpoint)
        else:
            sink(checkpoint)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _prime_arrivals(self) -> None:
        """Queue each task's first trace release and every injected
        burst (bursts are not trace releases: they go in up front)."""
        for task_index, end in enumerate(self._trace_ends):
            if end:
                self._queue.push_reserved(
                    self.config.arrival_traces[task_index][0], _ARRIVAL,
                    self._trace_bases[task_index],
                    JobArrival(task_index=task_index, jid=0))
        if self._injector is not None:
            for release, task_index in self._injector.burst_arrivals(
                    self.config.horizon):
                jid = self._next_jid[task_index]
                self._next_jid[task_index] += 1
                self._queue.push(release, EventPriority.ARRIVAL,
                                 JobArrival(task_index=task_index, jid=jid,
                                            injected=True))

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------

    def _handle_arrival(self, event: JobArrival) -> None:
        task_index = event.task_index
        if not event.injected and not event.deferrals:
            # The task's next trace release, whatever admission decides
            # about this one (see ``_trace_bases``).
            jid = event.jid + 1
            if jid < self._trace_ends[task_index]:
                self._queue.push_reserved(
                    self.config.arrival_traces[task_index][jid], _ARRIVAL,
                    self._trace_bases[task_index] + jid,
                    JobArrival(task_index, jid))
        task = self.config.tasks[task_index]
        if self._admission is not None:
            decision, when = self._admission.decide(event.task_index,
                                                    self._clock)
            if decision is Decision.SHED:
                if self.obs.enabled:
                    self.obs.counter("kernel.shed")
                    self.obs.instant("shed", "job", task.name, self._clock,
                                     {"job": f"{task.name}#{event.jid}"})
                return
            if decision is Decision.DEFER:
                if self.obs.enabled:
                    self.obs.counter("kernel.deferrals")
                    self.obs.instant("defer", "job", task.name, self._clock,
                                     {"job": f"{task.name}#{event.jid}",
                                      "until": when})
                self._queue.push(when, EventPriority.ARRIVAL,
                                 JobArrival(task_index=event.task_index,
                                            jid=event.jid,
                                            injected=event.injected,
                                            deferrals=event.deferrals + 1))
                return
        job = Job(task=task, jid=event.jid, release_time=self._clock)
        self._live.append(job)
        self._arm_critical_timer(job)
        if self.obs.enabled:
            self.obs.counter("kernel.arrivals")
            self.obs.instant("arrival", "job", task.name, self._clock,
                             {"job": job.name})
        self._reschedule()

    def _arm_critical_timer(self, job: Job) -> None:
        """Queue the job's abort timer, subject to timer faults."""
        when = job.critical_time_abs
        if self._injector is not None:
            drop, delay = self._injector.timer_disposition(job)
            if drop:
                if self.obs.enabled:
                    self._note_fault(job, "critical-time timer dropped")
                return
            if delay:
                if self.obs.enabled:
                    self._note_fault(job, f"critical-time timer +{delay}")
                when += delay
        self._queue.push(when, EventPriority.TIMER,
                         CriticalTimeExpiry(job=job))

    def _handle_expiry(self, event: CriticalTimeExpiry) -> None:
        job = event.job
        if not job.is_live:
            return  # job already departed; stale timer
        self._abort(job)
        extra = self._cost("timer_overhead") + job.task.abort_handler_time
        self._reschedule(extra_overhead=extra)

    def _handle_milestone(self, event: Milestone) -> None:
        job = event.job
        if job is not self._running or event.token != job.dispatch_token:
            return  # superseded by a preemption/retry/abort
        segment = job.task.segment_at[job.segment_index]
        self._finish[type(segment)](self, job, segment)

    #: Event type -> handler, as plain functions called with the kernel.
    #: Class-level on purpose: a per-instance table of bound methods
    #: would make every kernel part of a reference cycle, freed only by
    #: the cyclic garbage collector.
    _HANDLERS = {
        JobArrival: _handle_arrival,
        CriticalTimeExpiry: _handle_expiry,
        Milestone: _handle_milestone,
    }

    # ------------------------------------------------------------------
    # Segment lifecycle
    #
    # What a segment boundary does depends on the segment's type and the
    # sync mode only, so each kernel picks its two tables (type -> plain
    # function, see ``_FINISH``/``_NEXT``) and its access entry once, and
    # a boundary is one dict lookup instead of an isinstance chain.
    # ``None`` (past the last segment) is a type here too.
    # ------------------------------------------------------------------

    # --- _FINISH: the running job completed ``segment`` at the clock ---

    def _finish_and_continue(self, job: Job, segment) -> None:
        """A compute segment, an access under ``SyncMode.NONE``, or a
        :class:`ReleaseLock` outside lock-based sharing (a no-op)."""
        job.finish_segment()
        self._continue_running(job)

    def _finish_past_end(self, job: Job, segment: None) -> None:
        """A job dispatched after its last segment (its final unlock was
        a scheduling event) completes at its milestone."""
        job.finish_segment()
        self._complete(job)

    def _commit_lockfree_access(self, job: Job,
                                segment: ObjectAccess) -> None:
        self._objects.commit(job)
        self._result.lockfree_access_commits += 1
        self._result.lockfree_attempts += 1
        job.finish_segment()
        self._continue_running(job)

    def _end_critical_section(self, job: Job, segment: ObjectAccess) -> None:
        self._result.lock_access_commits += 1
        if not segment.release_at_end:
            # Nested critical section: keep the lock across later
            # segments; no unlock request, no scheduling event.
            job.finish_segment()
            self._continue_running(job)
            return
        # End of critical section: unlock request — a scheduling event.
        self._unlock(job, segment)

    def _unlock(self, job: Job, segment: ObjectAccess | ReleaseLock) -> None:
        """Release ``segment``'s lock and move past the segment: an
        unlock request, so a scheduling event (lock-based sharing)."""
        self._release_lock(job, segment.obj)
        job.finish_segment()
        cost = (self._lock_cost if self._injector is None
                else self._cost("lock_overhead"))
        self._result.lock_mechanism_time += cost
        self._reschedule(extra_overhead=cost, lock_event=True)

    def _release_lock(self, job: Job, obj) -> None:
        """Release one lock, waking its waiters."""
        woken = self._locks.release(job, obj)
        job.held_locks.discard(obj)
        if job.holds_lock == obj:
            job.holds_lock = None
        self._wake(woken)
        if self.obs.enabled:
            self.obs.instant("lock_release", "lock", job.task.name,
                             self._clock, {"job": job.name, "obj": obj})

    def _wake(self, woken: list[Job]) -> None:
        """Unblock the waiters of a released lock."""
        obs_enabled = self.obs.enabled
        for waiter in woken:
            waiter.state = JobState.READY
            waiter.blocked_on = None
            if obs_enabled:
                self.obs.close_span(("block", waiter.name), self._clock)
                self.obs.instant("unblock", "lock", waiter.task.name,
                                 self._clock, {"job": waiter.name})

    # --- _NEXT: the running job reached ``segment`` with no pass -------

    def _continue_running(self, job: Job) -> None:
        """Advance the running job into its next segment (or completion)
        without an intervening scheduling event, unless the segment
        boundary itself is one (completion, lock request, unlock)."""
        segment = job.task.segment_at[job.segment_index]
        self._next[type(segment)](self, job, segment)

    def _reach_end(self, job: Job, segment: None) -> None:
        self._complete(job)

    def _request_lock(self, job: Job, segment: ObjectAccess) -> None:
        """Lock request: a scheduling event.  The job stops here; the
        acquisition is attempted during the dispatch walk."""
        cost = (self._lock_cost if self._injector is None
                else self._cost("lock_overhead"))
        self._result.lock_mechanism_time += cost
        self._reschedule(extra_overhead=cost, lock_event=True)

    def _keep_running(self, job: Job, segment) -> None:
        """A compute segment, or an access that needs no lock: keep
        running without a scheduler pass."""
        since = self._clock
        if type(segment) is ObjectAccess and self._lockfree:
            since += self._enter_lockfree_access(job, segment)
        elif self._injector is not None:
            self._inject_overrun(job)
        self._running_since = since
        self._queue.push(
            since + segment.duration + job.segment_extra
            - job.segment_progress,
            _MILESTONE, Milestone(job, job.dispatch_token))

    # --- Entry: prepare ``segment`` for execution.  A lock-free access
    # runs its protocol and returns the extra mechanism delay (CAS
    # attempt cost, retry backoff) before work starts; any other segment
    # only takes the fault plan's overrun, so with no injector there is
    # nothing to call.  Lock-based entry is the dispatch walk's
    # acquisition. ------------------------------------------------------

    def _enter_lockfree_access(self, job: Job, segment: ObjectAccess) -> int:
        """The lock-free begin/retry protocol."""
        if self._injector is not None:
            self._inject_overrun(job)
        if self._objects.open_access_of(job) is None:
            self._objects.begin(job, segment)
            cost = (self._cas_cost if self._injector is None
                    else self._cost("cas_overhead"))
            self._result.lockfree_mechanism_time += cost
            return cost
        if self._objects.must_retry(job):
            wasted = job.restart_access()
            self._objects.record_retry(job)
            self._result.lockfree_attempts += 1
            if self._monitors is not None:
                self._monitors.note_retry(self._clock, job)
            if self.obs.enabled:
                self._note_retry_obs(job, segment.obj, wasted)
            cost = (self._cas_cost if self._injector is None
                    else self._cost("cas_overhead"))
            self._result.lockfree_mechanism_time += cost + wasted
            if self.config.retry_guard is not None:
                backoff = self.config.retry_guard.backoff(
                    self._objects.retries_of(job))
                if backoff:
                    self._report.backoff_time += backoff
                    cost += backoff
            return cost
        return 0

    def _inject_overrun(self, job: Job) -> None:
        """Apply the fault plan's overrun to a segment the job enters
        fresh (no progress, no overrun yet)."""
        if job.segment_progress == 0 and job.segment_extra == 0:
            extra = self._injector.overrun_for(job)
            if extra:
                job.segment_extra = extra
                if self.obs.enabled:
                    self._note_fault(job, f"segment overrun +{extra}")

    def _note_fault(self, job: Job, detail: str) -> None:
        """An injected fault landed on ``job``."""
        self.obs.instant("fault", "fault", job.task.name, self._clock,
                         {"job": job.name, "detail": detail})

    #: Per sync mode: segment type -> boundary function.  Class-level
    #: tables of plain functions, like ``_HANDLERS``.
    _FINISH_ANY = {Compute: _finish_and_continue,
                   ObjectAccess: _finish_and_continue,
                   ReleaseLock: _finish_and_continue,
                   type(None): _finish_past_end}
    _FINISH = {
        SyncMode.NONE: _FINISH_ANY,
        SyncMode.LOCK_FREE: {**_FINISH_ANY,
                             ObjectAccess: _commit_lockfree_access},
        SyncMode.LOCK_BASED: {**_FINISH_ANY,
                              ObjectAccess: _end_critical_section,
                              ReleaseLock: _unlock},
    }
    _NEXT_ANY = {Compute: _keep_running,
                 ObjectAccess: _keep_running,
                 ReleaseLock: _finish_and_continue,
                 type(None): _reach_end}
    _NEXT = {
        SyncMode.NONE: _NEXT_ANY,
        SyncMode.LOCK_FREE: _NEXT_ANY,
        SyncMode.LOCK_BASED: {**_NEXT_ANY,
                              ObjectAccess: _request_lock,
                              ReleaseLock: _unlock},
    }
    del _FINISH_ANY, _NEXT_ANY

    def _note_retry_obs(self, job: Job, obj, wasted: int) -> None:
        """Per-object retry counter track, wasted-work histogram, and
        the live comparison of this job's retry count against its
        Theorem 2 bound (``theorem2.exceeded`` counts violations)."""
        obs = self.obs
        obs.tick_counter(f"retries.{obj}", self._clock)
        obs.histogram("retry.wasted_ns", wasted)
        obs.instant("retry", "lockfree", job.task.name, self._clock,
                    {"job": job.name, "obj": str(obj), "wasted": wasted})
        retries = self._objects.retries_of(job)
        bound = self._retry_bound_of(job)
        if bound is not None and retries > bound:
            obs.counter("theorem2.exceeded")
            obs.instant("retry_bound_exceeded", "lockfree", job.task.name,
                        self._clock, {"job": job.name, "retries": retries,
                                      "bound": bound})

    def _retry_bound_of(self, job: Job) -> int | None:
        """This task's Theorem 2 retry bound (lazily computed, cached;
        None when the bound does not apply, e.g. injected tasks)."""
        index = self._task_index.get(id(job.task))
        if index is None:
            return None
        if index not in self._retry_bounds:
            from repro.analysis.retry_bound import retry_bound_for_taskset

            try:
                self._retry_bounds[index] = retry_bound_for_taskset(
                    list(self.config.tasks), index)
            except (ValueError, ZeroDivisionError):
                self._retry_bounds[index] = None
        return self._retry_bounds[index]

    # ------------------------------------------------------------------
    # Scheduling and dispatch
    # ------------------------------------------------------------------

    def _reschedule(self, extra_overhead: int = 0,
                    lock_event: bool = False) -> None:
        """Run a scheduler pass and dispatch its choice.

        ``extra_overhead`` is kernel-busy time to charge in addition to
        the policy's own invocation cost (timer service, abort handlers,
        lock bookkeeping).  ``lock_event`` attributes the pass to the
        lock-based sharing mechanism for Figure 8 accounting.
        """
        now = self._clock
        cost = extra_overhead
        passes = 0
        chosen: Job | None = None
        blocked_any = False
        n = 0
        obs = self.obs
        config = self.config
        policy = config.policy
        result = self._result
        lock_based = config.sync is SyncMode.LOCK_BASED
        lock_view = self._locks if lock_based else None
        pass_costs = self._pass_costs
        wall_start = obs.clock() if obs.enabled else 0
        while True:
            # The live set is maintained incrementally (arrival append,
            # completion/abort removal), so a pass starts without the
            # former re-filtering scan.
            live = self._live
            n = len(live)
            pass_cost = pass_costs.get(n)
            if pass_cost is None:
                pass_cost = self._pass_cost(n)
            cost += pass_cost
            result.scheduler_invocations += 1
            passes += 1
            order = policy.schedule(live, lock_view, now)
            # Deadlock resolution (Section 3.3): the policy may request
            # aborts; each abort changes the dependency structure, so the
            # pass reruns (with its cost charged) until no victim remains.
            if policy.abort_requests:
                for victim in policy.consume_abort_requests():
                    if victim.is_live:
                        self._abort(victim)
                        cost += (self._cost("timer_overhead")
                                 + victim.task.abort_handler_time)
                continue
            if lock_based:
                chosen, blocked_any, walk_cost = self._walk(order, pass_cost,
                                                            now)
                cost += walk_cost
            else:
                # No lock to acquire: the first READY or RUNNING job.
                chosen = None
                for job in order:
                    state = job.state
                    if state is _READY or state is _RUNNING:
                        chosen = job
                        break
            # Bounded-retry graceful degradation: a job whose lock-free
            # access would retry past the guard's budget is aborted via
            # the Section 3.5 abortion model (handler charged, zero
            # utility) instead of spinning, and the pass reruns.
            if (chosen is not None
                    and config.retry_guard is not None
                    and config.sync is SyncMode.LOCK_FREE
                    and self._objects.open_access_of(chosen) is not None
                    and self._objects.must_retry(chosen)
                    and config.retry_guard.exhausted(
                        self._objects.retries_of(chosen))):
                if obs.enabled:
                    self._note_fault(chosen,
                                     "retry budget exhausted: aborting")
                self._abort(chosen)
                cost += (self._cost("timer_overhead")
                         + chosen.task.abort_handler_time)
                self._report.retry_aborts += 1
                continue
            # A blocking during the walk can have closed a dependency
            # cycle (with nesting): if nothing is dispatchable, rerun the
            # pass so detection sees the new blocked_on edges.  Bounded:
            # each rerun either aborts a victim or blocks new jobs.
            if (chosen is None and blocked_any
                    and passes <= len(live) + 1):
                continue
            break
        if self._monitors is not None and lock_based:
            self._monitors.audit_locks(
                now, list(self._live), self._locks)
        if obs.enabled:
            # Wall ns are summary-only (never exported into the trace);
            # the span carries the deterministic simulated cost.
            obs.decision(n, cost, obs.clock() - wall_start)
            obs.span("sched.decision", "sched", "kernel", now, cost,
                     {"n": n, "passes": passes,
                      "chosen": chosen.name if chosen is not None else ""})
            obs.histogram("sched.ready_queue", n)
        result.scheduler_overhead_time += cost
        if lock_event:
            result.lock_mechanism_time += pass_cost
        self._dispatch(chosen, cost)

    def _walk(self, order: list[Job], pass_cost: int,
              now: int) -> tuple[Job | None, bool, int]:
        """Walk the policy's eligibility order to the first dispatchable
        job, attempting lock acquisitions along the way (lock-based
        sharing); each failed acquisition charges another ``pass_cost``.
        Returns (chosen, whether any job newly blocked, extra cost
        charged)."""
        blocked_any = False
        extra_cost = 0
        for job in order:
            state = job.state
            if state is not _READY and state is not _RUNNING:
                continue
            # At the entry of an access it has not acquired yet?
            segment = job.task.segment_at[job.segment_index]
            if (type(segment) is not ObjectAccess
                    or segment.obj in job.held_locks):
                return job, blocked_any, extra_cost
            obj = segment.obj
            if self._locks.try_acquire(job, obj):
                job.holds_lock = obj
                job.held_locks.add(obj)
                if self.obs.enabled:
                    self.obs.instant("lock_acquire", "lock", job.task.name,
                                     now, {"job": job.name, "obj": obj})
                return job, blocked_any, extra_cost
            job.state = JobState.BLOCKED
            job.blocked_on = obj
            job.blockings += 1
            blocked_any = True
            if self.obs.enabled:
                self.obs.counter("kernel.blockings")
                self.obs.open_span(("block", job.name),
                                   f"blocked:{obj}", "lock",
                                   job.task.name, now)
            # The failed acquisition re-activates the scheduler.
            extra_cost += pass_cost
            self._result.lock_mechanism_time += pass_cost
            self._result.scheduler_invocations += 1
        return None, blocked_any, extra_cost

    def _dispatch(self, chosen: Job | None, cost: int) -> None:
        now = self._clock
        previous = self._running
        switching = chosen is not previous
        if previous is not None and switching and previous.is_live:
            previous.state = JobState.READY
            previous.preemptions += 1
            previous.dispatch_token += 1
            if (self.config.sync is SyncMode.LOCK_FREE
                    and previous.in_access):
                self._objects.note_preemption(previous)
                # Adversarial invalidation: the fault plan may spend one
                # spurious-retry budget unit to poison the preempted
                # access, forcing a retry at re-dispatch.
                if (self._injector is not None
                        and self._injector.spurious_invalidate(
                            previous, self._objects)):
                    if self.obs.enabled:
                        self._note_fault(previous,
                                         "spurious access invalidation")
            if self.obs.enabled:
                self.obs.counter("kernel.preemptions")
                self.obs.instant("preempt", "job", previous.task.name, now,
                                 {"job": previous.name})
        # Kernel work is serialized: overhead charged by an earlier pass
        # at this instant (abort handlers, timer service) delays this one.
        busy_from = self._kernel_free_at
        if busy_from < now:
            busy_from = now
        if chosen is None:
            self._running = None
            self._kernel_free_at = busy_from + cost
            if self.obs.enabled:
                self.obs.instant("idle", "sched", "kernel", now)
            return
        start = busy_from + cost
        if switching:
            start += (self._switch_cost if self._injector is None
                      else self._cost("context_switch"))
        self._kernel_free_at = start
        segment = chosen.task.segment_at[chosen.segment_index]
        if type(segment) is ObjectAccess and self._lockfree:
            start += self._enter_lockfree_access(chosen, segment)
        elif self._injector is not None and segment is not None:
            self._inject_overrun(chosen)
        chosen.state = JobState.RUNNING
        chosen.dispatch_token += 1
        self._running = chosen
        self._running_since = start
        # The milestone: the instant the job finishes its current
        # segment.  A job dispatched past its last segment (its final
        # unlock was a scheduling event) reaches it at once.
        if segment is not None:
            start += (segment.duration + chosen.segment_extra
                      - chosen.segment_progress)
        self._queue.push(start, _MILESTONE,
                         Milestone(chosen, chosen.dispatch_token))

    # ------------------------------------------------------------------
    # Job termination
    # ------------------------------------------------------------------

    def _complete(self, job: Job) -> None:
        job.state = JobState.COMPLETED
        self._live.remove(job)
        job.completion_time = self._clock
        job.accrued_utility = job.task.tuf.utility(job.sojourn_time())
        self._result.records.append(record_of(job))
        if self.obs.enabled:
            self.obs.counter("kernel.completions")
            self.obs.histogram("job.sojourn_ns", job.sojourn_time())
            self.obs.histogram("job.retries", job.retries)
            self.obs.histogram("job.utility", job.accrued_utility)
            self.obs.instant("complete", "job", job.task.name, self._clock,
                             {"job": job.name,
                              "utility": round(job.accrued_utility, 6)})
        if job is self._running:
            self._running = None
        # Departure is a scheduling event.
        self._reschedule()

    def _abort(self, job: Job) -> None:
        """Critical-time expiry (Section 3.5): raise the abort exception,
        run the handler, roll back held resources, depart with zero
        utility."""
        job.state = JobState.ABORTED
        self._live.remove(job)
        job.accrued_utility = 0.0
        if self.config.sync is SyncMode.LOCK_BASED:
            woken = self._locks.release_all(job)
            job.holds_lock = None
            job.held_locks.clear()
            self._wake(woken)
        elif self.config.sync is SyncMode.LOCK_FREE:
            self._objects.abandon(job)
        if job is self._running:
            self._running = None
        self._result.records.append(record_of(job))
        if self.obs.enabled:
            self.obs.close_span(("block", job.name), self._clock)
            self.obs.counter("kernel.aborts")
            self.obs.histogram("job.retries", job.retries)
            self.obs.instant("abort", "job", job.task.name, self._clock,
                             {"job": job.name})

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------

    def _pass_cost(self, n: int) -> int:
        """The policy's simulated cost of one pass over ``n`` live jobs,
        memoized per kernel (cost models are pure functions of ``n``)."""
        cost = self._pass_costs.get(n)
        if cost is None:
            cost = self._pass_costs[n] = self.config.policy.cost_model.cost(n)
        return cost

    def _cost(self, name: str) -> int:
        """One fixed kernel cost charge, fault-jittered when a plan with
        cost jitter is active."""
        base = getattr(self.config.costs, name)
        if self._injector is not None:
            return self._injector.cost(name, base)
        return base
