"""Job runtime state.

The job is the basic scheduling entity (Section 2): one invocation of a
task, released at a UAM arrival instant, executing its task's segment
sequence, and either completing before its critical time (accruing
``U_i(sojourn)``) or being aborted when the critical time expires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.tasks.segments import ObjectAccess, Segment
from repro.tasks.task import TaskSpec


class JobState(Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"      # lock-based sharing only
    COMPLETED = "completed"
    ABORTED = "aborted"


@dataclass(slots=True, eq=False)
class Job:
    """One invocation ``J_{i,j}`` of task ``T_i``.

    Mutable runtime state owned by the kernel.  Progress is tracked as
    (current segment index, time ticks (ns) completed inside that segment);
    a lock-free retry resets the in-segment progress to zero.

    Jobs are mutable kernel entities, so ``eq=False`` keeps equality and
    hashing by identity (``object.__eq__``/``object.__hash__``): two jobs
    with the same task and jid are distinct.
    """

    task: TaskSpec
    jid: int                      # j-th invocation of the task
    release_time: int             # absolute, ticks
    state: JobState = JobState.READY
    segment_index: int = 0
    segment_progress: int = 0
    # --- synchronization state -------------------------------------------
    holds_lock: int | str | None = None      # most recently acquired lock
    held_locks: set = field(default_factory=set)  # all locks held (nesting)
    blocked_on: int | str | None = None      # object we wait for
    access_dirty: bool = False    # lock-free access must restart on resume
    #: Fault-injected execution overrun of the current segment: extra
    #: ticks beyond the declared WCET that must execute before the
    #: segment boundary.  Reset when the segment finishes.
    segment_extra: int = 0
    # --- statistics -------------------------------------------------------
    retries: int = 0
    blockings: int = 0
    preemptions: int = 0
    completion_time: int | None = None
    accrued_utility: float = 0.0

    # Monotonic token invalidating stale milestone events after preemption.
    dispatch_token: int = field(default=0, repr=False)

    #: ``"<task>#<jid>"``, derived once from the immutable task and jid
    #: (never serialized: a checkpoint-restored job derives the same name).
    name: str = field(init=False, repr=False)
    #: Absolute critical time: release + ``C_i``.  Derived once, like
    #: ``name``, from the immutable task and release time (never
    #: serialized).
    critical_time_abs: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.name = f"{self.task.name}#{self.jid}"
        self.critical_time_abs = self.release_time + self.task.critical_time

    @property
    def is_live(self) -> bool:
        return self.state in (JobState.READY, JobState.RUNNING, JobState.BLOCKED)

    @property
    def current_segment(self) -> Segment | None:
        """The segment the job is in, or None past its last one.  Hot
        paths read ``job.task.segment_at[job.segment_index]`` inline
        instead."""
        if self.segment_index >= len(self.task.body):
            return None
        return self.task.body[self.segment_index]

    @property
    def in_access(self) -> bool:
        """True while the current segment is a shared-object access with
        progress under way or about to start."""
        return isinstance(self.current_segment, ObjectAccess)

    def remaining_time(self) -> int:
        """Remaining nominal execution demand, as presented to the
        scheduler (intrinsic durations; mechanism costs are runtime
        phenomena the scheduler cannot predict)."""
        index = self.segment_index
        # Clamped at zero: with an injected overrun the progress can
        # legitimately exceed the declared duration — the scheduler still
        # sees the *declared* demand, which is the point of the fault.
        # Past the last segment both tables read 0.
        tail = self.task.body_suffix[index]
        return max(tail - self.segment_progress,
                   tail - self.task.durations[index])

    def advance(self, amount: int) -> None:
        """Credit ``amount`` ticks of execution to the current segment.

        The kernel guarantees ``amount`` never crosses a segment boundary:
        segment completion is an explicit kernel transition (it may
        involve lock release / access commit).
        """
        if amount < 0:
            raise ValueError("cannot advance by a negative amount")
        segment = self.task.segment_at[self.segment_index]
        if segment is None:
            raise RuntimeError(f"{self.name}: advancing a finished job")
        if self.segment_progress + amount > segment.duration + self.segment_extra:
            raise RuntimeError(
                f"{self.name}: advance {amount} overruns segment "
                f"({self.segment_progress}/{segment.duration}"
                f"+{self.segment_extra})"
            )
        self.segment_progress += amount

    def segment_remaining(self) -> int:
        segment = self.task.segment_at[self.segment_index]
        if segment is None:
            return 0
        return segment.duration + self.segment_extra - self.segment_progress

    def finish_segment(self) -> None:
        """Move past the current segment.  A job dispatched after its
        last segment (its final unlock was a scheduling event) calls
        this once more before it completes."""
        segment = self.task.segment_at[self.segment_index]
        if (segment is not None and self.segment_progress
                != segment.duration + self.segment_extra):
            raise RuntimeError(
                f"{self.name}: finishing an incomplete segment "
                f"({self.segment_progress}/{segment.duration})"
            )
        self.segment_index += 1
        self.segment_progress = 0
        self.segment_extra = 0
        self.access_dirty = False

    def restart_access(self) -> int:
        """Discard in-progress work on the current (lock-free) access
        segment — a retry.  Returns the number of ticks thrown away."""
        if not isinstance(self.current_segment, ObjectAccess):
            raise RuntimeError(f"{self.name}: retry outside an access segment")
        wasted = self.segment_progress
        self.segment_progress = 0
        self.access_dirty = False
        self.retries += 1
        return wasted

    def sojourn_time(self) -> int | None:
        """Completion time minus release time, or None if not completed."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.release_time

    def __repr__(self) -> str:  # keep simulator traces readable
        return (
            f"Job({self.name}, {self.state.value}, seg={self.segment_index}"
            f"+{self.segment_progress}, rel={self.release_time})"
        )

