"""Static task specification."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arrivals.spec import UAMSpec
from repro.tasks import segments as seg
from repro.tasks.segments import Segment
from repro.tuf.base import TimeUtilityFunction


@dataclass(frozen=True)
class TaskSpec:
    """A recurrent task ``T_i`` of the paper's model.

    Attributes mirror the paper's notation:

    * ``arrival`` — the UAM tuple ``<l_i, a_i, W_i>``;
    * ``tuf`` — the task's TUF ``U_i(.)`` with critical time ``C_i``
      (the model requires ``C_i <= W_i``, enforced here);
    * ``body`` — the job body as a segment sequence, from which the pure
      computation time ``u_i``, the access count ``m_i`` and the total
      execution estimate ``c_i`` derive;
    * ``abort_handler_time`` — execution time of the abort-exception
      handler run when the job's critical time expires (Section 3.5).
    """

    name: str
    arrival: UAMSpec
    tuf: TimeUtilityFunction
    body: tuple[Segment, ...]
    abort_handler_time: int = 0
    # Derived, filled in __post_init__.
    compute_time: int = field(init=False)
    access_count: int = field(init=False)
    access_time: int = field(init=False)
    #: ``body_suffix[i]`` = total declared duration of ``body[i:]``
    #: (``body_suffix[len(body)] == 0``).  Lets the scheduler hot path
    #: compute a job's remaining demand in O(1) instead of walking the
    #: segment tail on every PUD / feasibility evaluation.
    body_suffix: tuple[int, ...] = field(init=False, repr=False)
    #: ``durations[i]`` = ``body[i].duration``, with 0 at ``len(body)``
    #: (past the last segment), the other table the scheduler hot path
    #: reads a job's remaining demand from.
    durations: tuple[int, ...] = field(init=False, repr=False)
    #: ``segment_at[i]`` = ``body[i]``, with ``None`` at ``len(body)``
    #: (past the last segment): a job's current segment is
    #: ``task.segment_at[job.segment_index]``, with no bounds test and
    #: no call.
    segment_at: tuple[Segment | None, ...] = field(init=False, repr=False)
    #: ``tuf.max_utility``, read once: every finished job's record
    #: carries it.
    max_utility: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be non-empty")
        if self.tuf.critical_time > self.arrival.window:
            raise ValueError(
                f"task {self.name}: critical time {self.tuf.critical_time} "
                f"exceeds UAM window {self.arrival.window} (the model "
                "assumes C_i <= W_i)"
            )
        if self.abort_handler_time < 0:
            raise ValueError("abort handler time must be non-negative")
        if not self.body:
            raise ValueError("task body must have at least one segment")
        seg.validate_lock_structure(self.body)
        object.__setattr__(self, "compute_time", seg.compute_time(self.body))
        object.__setattr__(self, "access_count", seg.access_count(self.body))
        object.__setattr__(self, "access_time", seg.access_time(self.body))
        suffix = [0] * (len(self.body) + 1)
        for i in range(len(self.body) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + self.body[i].duration
        object.__setattr__(self, "body_suffix", tuple(suffix))
        object.__setattr__(self, "durations",
                           (*(segment.duration for segment in self.body), 0))
        object.__setattr__(self, "segment_at", (*self.body, None))
        object.__setattr__(self, "max_utility", self.tuf.max_utility)

    @property
    def critical_time(self) -> int:
        """The task's relative critical time ``C_i``."""
        return self.tuf.critical_time

    @property
    def execution_estimate(self) -> int:
        """Nominal execution demand ``c_i = u_i + sum of intrinsic access
        times`` (mechanism costs are added by the synchronization layer at
        run time)."""
        return self.compute_time + self.access_time

    @property
    def accessed_objects(self) -> frozenset[int | str]:
        return seg.accessed_objects(self.body)

    def utilization_bound(self) -> float:
        """Peak processor demand of this task: up to ``a_i`` jobs per
        window, each needing ``c_i``."""
        return self.arrival.max_arrivals * self.execution_estimate / self.arrival.window
