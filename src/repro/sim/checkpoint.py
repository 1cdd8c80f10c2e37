"""Kernel checkpoint/restore: crash-recoverable simulation state.

A :class:`KernelCheckpoint` is a *complete*, versioned, digest-stamped,
JSON-serializable snapshot of a mid-run :class:`repro.sim.kernel.Kernel`:
the event queue (raw heap order, so tie-breaking sequence numbers
survive), every job's segment progress and synchronization state, the
:class:`~repro.sim.locks.LockManager` and NBW
:class:`~repro.sim.objects.LockFreeObjectTable` tables, the UAM
admission-guard window counters, the fault injector's RNG stream and
one-shot bookkeeping, the monitor suite's dedup state and the
accumulated :class:`~repro.sim.metrics.SimulationResult`.

The restore contract is the same equivalence discipline PR 5 set for the
fast path: ``restore(config, snapshot).run()`` finishes to a
``SimulationResult`` **byte-identical** to the uninterrupted run — with
and without ``REPRO_NO_FASTPATH=1``.  Two deliberate properties make
that hold:

* restored jobs are new objects, and the policy keeps no state
  between passes beyond pending abort requests, which are dropped via
  ``SchedulerPolicy.clear_abort_requests()``, so a restored kernel
  decides from restored state alone;
* the observer is **not** checkpointed — observation is a side channel
  that must not perturb the simulation (DESIGN.md §10), so a resumed
  run's obs summary covers only the post-restore suffix.

Corruption is detected, never trusted: the envelope carries a SHA-256
digest of the canonical state encoding plus a format version, and
:func:`KernelCheckpoint.from_json` refuses anything torn, tampered or
from a different format generation with :class:`CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.faults.report import InvariantViolation
from repro.sim.engine import EventQueue
from repro.sim.events import CriticalTimeExpiry, JobArrival, Milestone
from repro.sim.metrics import JobRecord, SimulationResult
from repro.sim.objects import _ObjectState, _OpenAccess
from repro.tasks.job import Job, JobState
from repro.tasks.segments import AccessKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel, SimulationConfig

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointPolicy",
    "KernelCheckpoint",
    "fingerprint_result",
    "snapshot_kernel",
    "restore_kernel",
]

#: Format generation of the checkpoint wire encoding.  Bumped on any
#: incompatible change; restore refuses other generations outright
#: (recomputing from zero is always safe, resuming across formats never
#: is).  v2 stores jobs, queued events and result records as
#: fixed-order rows instead of keyed objects.
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """A checkpoint that cannot be trusted: torn, tampered, truncated,
    or written by an incompatible format generation."""


@dataclass(frozen=True)
class CheckpointPolicy:
    """When the kernel emits checkpoints during :meth:`Kernel.run`.

    ``every_events`` snapshots after every K handled events;
    ``every_ns`` snapshots when at least T simulated nanoseconds have
    elapsed since the previous snapshot.  Either may be used alone or
    both together (a snapshot is due when *either* trigger fires; firing
    resets both meters, so the cadence is identical before and after a
    restore).
    """

    every_events: int | None = None
    every_ns: int | None = None

    def __post_init__(self) -> None:
        if self.every_events is None and self.every_ns is None:
            raise ValueError(
                "CheckpointPolicy needs every_events and/or every_ns")
        if self.every_events is not None and self.every_events < 1:
            raise ValueError("every_events must be >= 1")
        if self.every_ns is not None and self.every_ns < 1:
            raise ValueError("every_ns must be >= 1")


def _canonical(state: dict[str, Any]) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def _digest(canonical_text: str) -> str:
    return hashlib.sha256(canonical_text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class KernelCheckpoint:
    """One digest-stamped snapshot of a mid-run kernel.

    ``state`` is plain JSON-compatible data; ``digest`` is the SHA-256
    of its canonical encoding, computed at snapshot time and re-verified
    on every decode, so a checkpoint that survives a round-trip is
    exactly the checkpoint that was written.

    A checkpoint made by :meth:`wrap` keeps the canonical text it
    hashed, and :meth:`to_json` writes that text instead of encoding
    the state a second time; the state must therefore not be mutated
    after wrapping.
    """

    version: int
    digest: str
    state: dict[str, Any]
    #: The canonical encoding of ``state`` the digest was computed
    #: over, or None for a decoded checkpoint.
    state_text: str | None = field(default=None, repr=False,
                                   compare=False)

    @classmethod
    def wrap(cls, state: dict[str, Any]) -> "KernelCheckpoint":
        text = _canonical(state)
        return cls(version=CHECKPOINT_VERSION, digest=_digest(text),
                   state=state, state_text=text)

    @property
    def clock(self) -> int:
        """Simulated time at which the snapshot was taken."""
        return self.state["clock"]

    @property
    def events_handled(self) -> int:
        return self.state["events_handled"]

    def verify(self) -> None:
        """Raise :class:`CheckpointError` unless this checkpoint is
        intact and of the supported format generation."""
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint format v{self.version} is not the supported "
                f"v{CHECKPOINT_VERSION}")
        actual = _digest(_canonical(self.state))
        if actual != self.digest:
            raise CheckpointError(
                f"checkpoint digest mismatch: stamped {self.digest[:12]}, "
                f"state hashes to {actual[:12]}")

    def to_json(self) -> str:
        """The envelope's canonical encoding: the bytes of
        ``_canonical({"version": ..., "digest": ..., "state": ...})``.
        A wrapped checkpoint splices its kept state text in (sorted keys
        put ``state`` between ``digest`` and ``version``; its digest is
        hex and its version an int, which encode as themselves)."""
        if self.state_text is None:
            return _canonical({"version": self.version,
                               "digest": self.digest, "state": self.state})
        return (f'{{"digest":"{self.digest}","state":{self.state_text},'
                f'"version":{self.version}}}')

    @classmethod
    def from_json(cls, text: str) -> "KernelCheckpoint":
        """Decode and verify; any defect raises :class:`CheckpointError`."""
        try:
            doc = json.loads(text)
            checkpoint = cls(version=doc["version"], digest=doc["digest"],
                             state=doc["state"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
        if not isinstance(checkpoint.state, dict):
            raise CheckpointError("checkpoint state is not an object")
        checkpoint.verify()
        return checkpoint


def fingerprint_result(result: SimulationResult) -> str:
    """Canonical byte encoding of everything deterministic in a
    :class:`SimulationResult` — the comparison key of the restore
    equivalence gate.  ``obs`` is excluded (observation is not
    checkpointed and carries wall-clock summaries)."""
    degradation = result.degradation
    doc = {
        "records": [_encode_record(record) for record in result.records],
        "horizon": result.horizon,
        "scheduler_invocations": result.scheduler_invocations,
        "scheduler_overhead_time": result.scheduler_overhead_time,
        "idle_time": result.idle_time,
        "unfinished": result.unfinished,
        "lock_mechanism_time": result.lock_mechanism_time,
        "lockfree_mechanism_time": result.lockfree_mechanism_time,
        "lock_access_commits": result.lock_access_commits,
        "lockfree_access_commits": result.lockfree_access_commits,
        "lockfree_attempts": result.lockfree_attempts,
        "degradation": (None if degradation is None
                        else degradation.to_dict()),
    }
    return _canonical(doc)


# ----------------------------------------------------------------------
# Encoding helpers
# ----------------------------------------------------------------------
# ObjectIds are ``int | str`` and JSON keeps the distinction, so they are
# stored as-is — but never as dict *keys* (JSON keys are strings);
# every ObjectId-keyed table is a list of ``[obj, value]`` pairs in
# insertion order, which also preserves dict iteration order exactly.
#
# Jobs, queued event payloads and result records are fixed-order rows
# (lists), not keyed objects: a checkpoint holds hundreds of them, and
# repeated key names would be most of its bytes and of its encode time.
# A job row follows ``Job``'s field order with the task replaced by its
# index; a record row follows ``JobRecord``'s; an event row starts with
# its kind: ``["arrival", task_index, jid, injected, deferrals]``,
# ``["expiry", job]`` or ``["milestone", job, token]``.


def _sorted_objs(objs) -> list:
    return sorted(objs, key=lambda obj: (isinstance(obj, str), obj))


def _encode_record(record: JobRecord) -> list:
    return list(record)


def _decode_record(row: list) -> JobRecord:
    return JobRecord(*row)


def _encode_job(job: Job, task_index: int) -> list:
    return [task_index, job.jid, job.release_time, job.state.value,
            job.segment_index, job.segment_progress, job.holds_lock,
            _sorted_objs(job.held_locks), job.blocked_on, job.access_dirty,
            job.segment_extra, job.retries, job.blockings, job.preemptions,
            job.completion_time, job.accrued_utility, job.dispatch_token]


def _decode_job(row: list, tasks) -> Job:
    # ``name`` and ``critical_time_abs`` are derived from the task, jid
    # and release time, so they come back as they were.  Unpacking
    # refuses a row of the wrong length.
    (task_index, jid, release_time, state, segment_index, segment_progress,
     holds_lock, held_locks, blocked_on, access_dirty, segment_extra,
     retries, blockings, preemptions, completion_time, accrued_utility,
     dispatch_token) = row
    return Job(task=tasks[task_index], jid=jid, release_time=release_time,
               state=JobState(state), segment_index=segment_index,
               segment_progress=segment_progress, holds_lock=holds_lock,
               held_locks=set(held_locks), blocked_on=blocked_on,
               access_dirty=access_dirty, segment_extra=segment_extra,
               retries=retries, blockings=blockings,
               preemptions=preemptions, completion_time=completion_time,
               accrued_utility=accrued_utility,
               dispatch_token=dispatch_token)


def _encode_event(payload, job_index) -> list:
    kind = type(payload)
    if kind is Milestone:
        return ["milestone", job_index[id(payload.job)], payload.token]
    if kind is JobArrival:
        return ["arrival", payload.task_index, payload.jid,
                payload.injected, payload.deferrals]
    if kind is CriticalTimeExpiry:
        return ["expiry", job_index[id(payload.job)]]
    raise CheckpointError(f"unknown event payload {payload!r}")


def _decode_event(row: list, jobs: list[Job]):
    kind = row[0]
    if kind == "milestone":
        _, job, token = row
        return Milestone(job=jobs[job], token=token)
    if kind == "arrival":
        _, task_index, jid, injected, deferrals = row
        return JobArrival(task_index=task_index, jid=jid,
                          injected=injected, deferrals=deferrals)
    if kind == "expiry":
        _, job = row
        return CriticalTimeExpiry(job=jobs[job])
    raise CheckpointError(f"unknown event kind {kind!r}")


# ----------------------------------------------------------------------
# Snapshot
# ----------------------------------------------------------------------

def snapshot_kernel(kernel: "Kernel") -> KernelCheckpoint:
    """Capture the kernel's complete mid-run state.

    Jobs are indexed canonically: the live set in arrival order first,
    then any departed jobs still referenced from queued events (stale
    abort timers, superseded milestones) in heap order.  Every other
    table refers to jobs by that index.
    """
    jobs: list[Job] = list(kernel._live)
    job_index: dict[int, int] = {id(job): i for i, job in enumerate(jobs)}

    def _index_job(job: Job) -> None:
        if id(job) not in job_index:
            job_index[id(job)] = len(jobs)
            jobs.append(job)

    # Heap jobs are indexed in heap order, each before its event row is
    # encoded, so one pass does both.
    heap = []
    for time, priority, sequence, payload in kernel._queue._heap:
        kind = type(payload)
        if kind is Milestone or kind is CriticalTimeExpiry:
            _index_job(payload.job)
        heap.append([time, int(priority), sequence,
                     _encode_event(payload, job_index)])
    locks = kernel._locks
    for owner in locks._owner.values():
        _index_job(owner)
    for waiters in locks._waiters.values():
        for waiter in waiters:
            _index_job(waiter)
    for holder in locks._held:
        _index_job(holder)
    for accessor in kernel._objects._open:
        _index_job(accessor)

    state: dict[str, Any] = {
        "clock": kernel._clock,
        "events_handled": kernel._events_handled,
        "last_ckpt_event": kernel._last_ckpt_event,
        "last_ckpt_clock": kernel._last_ckpt_clock,
        "next_jid": list(kernel._next_jid),
        "jobs": [
            _encode_job(job, kernel._task_index[id(job.task)])
            for job in jobs
        ],
        "live": [job_index[id(job)] for job in kernel._live],
        "running": (None if kernel._running is None
                    else job_index[id(kernel._running)]),
        "running_since": kernel._running_since,
        "kernel_free_at": kernel._kernel_free_at,
        "queue": {
            "sequence": kernel._queue._sequence,
            "heap": heap,
        },
        "locks": {
            "owner": [[obj, job_index[id(job)]]
                      for obj, job in locks._owner.items()],
            "waiters": [[obj, [job_index[id(w)] for w in waiters]]
                        for obj, waiters in locks._waiters.items()
                        if waiters],
            "held": [[job_index[id(job)], list(held)]
                     for job, held in locks._held.items() if held],
            "acquisitions": locks.acquisitions,
            "contentions": locks.contentions,
            "version": locks.version,
        },
        "objects": {
            "states": [[obj, {"write_version": st.write_version,
                              "any_version": st.any_version,
                              "commits": st.commits}]
                       for obj, st in kernel._objects._objects.items()],
            "open": [[job_index[id(job)],
                      {"obj": acc.obj, "kind": acc.kind.value,
                       "write_version_seen": acc.write_version_seen,
                       "any_version_seen": acc.any_version_seen,
                       "retries": acc.retries}]
                     for job, acc in kernel._objects._open.items()],
            "total_retries": kernel._objects.total_retries,
        },
        "result": {
            "records": [_encode_record(r) for r in kernel._result.records],
            "scheduler_invocations": kernel._result.scheduler_invocations,
            "scheduler_overhead_time":
                kernel._result.scheduler_overhead_time,
            "idle_time": kernel._result.idle_time,
            "lock_mechanism_time": kernel._result.lock_mechanism_time,
            "lockfree_mechanism_time":
                kernel._result.lockfree_mechanism_time,
            "lock_access_commits": kernel._result.lock_access_commits,
            "lockfree_access_commits":
                kernel._result.lockfree_access_commits,
            "lockfree_attempts": kernel._result.lockfree_attempts,
        },
    }

    report = kernel._report
    if report is not None:
        state["report"] = {
            "injected_arrivals": report.injected_arrivals,
            "injected_overruns": report.injected_overruns,
            "forced_retries": report.forced_retries,
            "jittered_charges": report.jittered_charges,
            "timer_faults": report.timer_faults,
            "shed_jobs": report.shed_jobs,
            "deferred_jobs": report.deferred_jobs,
            "deferred_delay_total": report.deferred_delay_total,
            "retry_aborts": report.retry_aborts,
            "backoff_time": report.backoff_time,
            "violations": [v.to_dict() for v in report.violations],
        }
    injector = kernel._injector
    if injector is not None:
        version, internal, gauss = injector._jitter_rng.getstate()
        state["injector"] = {
            "rng": [version, list(internal), gauss],
            "overruns_applied": sorted(
                list(key) for key in injector._overruns_applied),
            "retry_budgets": list(injector._retry_budgets),
            "timer_faults_fired": sorted(
                list(key) for key in injector._timer_faults_fired),
        }
    if kernel._admission is not None:
        state["admission"] = [
            {"admitted": list(counter._admitted), "left": counter._left}
            for counter in kernel._admission._counters
        ]
    if kernel._monitors is not None:
        state["monitors"] = {
            "last_clock": kernel._monitors._last_clock,
            "flagged": sorted(list(key)
                              for key in kernel._monitors._flagged),
        }

    return KernelCheckpoint.wrap(state)


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------

def restore_kernel(config: "SimulationConfig",
                   checkpoint: KernelCheckpoint) -> "Kernel":
    """Rebuild a runnable kernel from ``checkpoint``.

    ``config`` must be *equivalent* to the snapshotted run's config (same
    tasks, traces, sync, costs, fault plan, ...) — normally it is rebuilt
    deterministically from the same :class:`~repro.scenario.Scenario`.
    ``checkpoint`` must come from :meth:`KernelCheckpoint.wrap` or
    :meth:`KernelCheckpoint.from_json`; the latter is the gate that
    verifies bytes read back, so it is not verified a second time here.
    """
    from repro.sim.kernel import Kernel

    state = checkpoint.state
    kernel = Kernel(config)

    tasks = list(config.tasks)
    jobs = [_decode_job(doc, tasks) for doc in state["jobs"]]

    kernel._clock = state["clock"]
    kernel._events_handled = state["events_handled"]
    kernel._last_ckpt_event = state["last_ckpt_event"]
    kernel._last_ckpt_clock = state["last_ckpt_clock"]
    kernel._next_jid = list(state["next_jid"])
    kernel._live = [jobs[i] for i in state["live"]]
    kernel._running = (None if state["running"] is None
                       else jobs[state["running"]])
    kernel._running_since = state["running_since"]
    kernel._kernel_free_at = state["kernel_free_at"]

    queue = EventQueue()
    queue._sequence = state["queue"]["sequence"]
    queue._heap = [
        (time, priority, sequence, _decode_event(payload, jobs))
        for time, priority, sequence, payload in state["queue"]["heap"]
    ]
    kernel._queue = queue

    locks = kernel._locks
    locks._owner = {obj: jobs[i] for obj, i in state["locks"]["owner"]}
    locks._waiters = {obj: [jobs[i] for i in waiting]
                      for obj, waiting in state["locks"]["waiters"]}
    locks._held = {jobs[i]: list(held)
                   for i, held in state["locks"]["held"]}
    locks.acquisitions = state["locks"]["acquisitions"]
    locks.contentions = state["locks"]["contentions"]
    locks.version = state["locks"]["version"]

    table = kernel._objects
    table._objects = {
        obj: _ObjectState(write_version=doc["write_version"],
                          any_version=doc["any_version"],
                          commits=doc["commits"])
        for obj, doc in state["objects"]["states"]
    }
    table._open = {
        jobs[i]: _OpenAccess(
            obj=doc["obj"], kind=AccessKind(doc["kind"]),
            write_version_seen=doc["write_version_seen"],
            any_version_seen=doc["any_version_seen"],
            retries=doc["retries"])
        for i, doc in state["objects"]["open"]
    }
    table.total_retries = state["objects"]["total_retries"]

    result = kernel._result
    result.records = [_decode_record(doc)
                      for doc in state["result"]["records"]]
    result.scheduler_invocations = state["result"]["scheduler_invocations"]
    result.scheduler_overhead_time = \
        state["result"]["scheduler_overhead_time"]
    result.idle_time = state["result"]["idle_time"]
    result.lock_mechanism_time = state["result"]["lock_mechanism_time"]
    result.lockfree_mechanism_time = \
        state["result"]["lockfree_mechanism_time"]
    result.lock_access_commits = state["result"]["lock_access_commits"]
    result.lockfree_access_commits = \
        state["result"]["lockfree_access_commits"]
    result.lockfree_attempts = state["result"]["lockfree_attempts"]

    report = kernel._report
    if "report" in state:
        if report is None:
            raise CheckpointError(
                "checkpoint carries a degradation report but the config "
                "enables no fault/degradation layer")
        doc = state["report"]
        report.injected_arrivals = doc["injected_arrivals"]
        report.injected_overruns = doc["injected_overruns"]
        report.forced_retries = doc["forced_retries"]
        report.jittered_charges = doc["jittered_charges"]
        report.timer_faults = doc["timer_faults"]
        report.shed_jobs = doc["shed_jobs"]
        report.deferred_jobs = doc["deferred_jobs"]
        report.deferred_delay_total = doc["deferred_delay_total"]
        report.retry_aborts = doc["retry_aborts"]
        report.backoff_time = doc["backoff_time"]
        report.violations = [InvariantViolation(**v)
                             for v in doc["violations"]]
    elif report is not None:
        raise CheckpointError(
            "config enables the fault/degradation layer but the "
            "checkpoint carries no degradation report")

    if "injector" in state:
        injector = kernel._injector
        if injector is None:
            raise CheckpointError(
                "checkpoint carries injector state but the config has "
                "no active fault plan")
        doc = state["injector"]
        version, internal, gauss = doc["rng"]
        injector._jitter_rng.setstate((version, tuple(internal), gauss))
        injector._overruns_applied = {tuple(key)
                                      for key in doc["overruns_applied"]}
        injector._retry_budgets = list(doc["retry_budgets"])
        injector._timer_faults_fired = {
            tuple(key) for key in doc["timer_faults_fired"]}
    if "admission" in state:
        guard = kernel._admission
        if guard is None:
            raise CheckpointError(
                "checkpoint carries admission state but the config has "
                "no admission policy")
        if len(state["admission"]) != len(guard._counters):
            raise CheckpointError("admission counter count mismatch")
        for counter, doc in zip(guard._counters, state["admission"]):
            counter._admitted = list(doc["admitted"])
            counter._left = doc["left"]
    if "monitors" in state:
        monitors = kernel._monitors
        if monitors is None:
            raise CheckpointError(
                "checkpoint carries monitor state but the config does "
                "not enable monitors")
        monitors._last_clock = state["monitors"]["last_clock"]
        monitors._flagged = {tuple(key)
                             for key in state["monitors"]["flagged"]}
    # Older v2 checkpoints of traced runs also carry a ``trace`` key of
    # kernel events; nothing is restored from it.

    # An abort requested before the snapshot names a pre-restore job,
    # not one of the restored objects.
    config.policy.clear_abort_requests()
    kernel._restored = True
    return kernel
