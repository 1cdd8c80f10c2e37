"""Lock manager for lock-based object sharing.

Implements mutual-exclusion locks in the style the paper's lock-based RUA
assumes: a lock request for a held object blocks the requester (creating a
resource dependency the scheduler must respect), and both lock and unlock
requests are scheduling events.

The resource model of the comparison (Section 5) excludes nested critical
sections, so a job holds at most one lock at a time; the manager supports
nesting anyway (``allow_nesting=True``) because lock-based RUA's deadlock
detection/resolution (Section 3.3) is part of the algorithm and is
exercised by dedicated tests.
"""

from __future__ import annotations

from repro.tasks.job import Job

ObjectId = int | str


class LockManager:
    """Tracks lock ownership, waiters, and the resulting dependencies."""

    def __init__(self, allow_nesting: bool = False) -> None:
        self._allow_nesting = allow_nesting
        self._owner: dict[ObjectId, Job] = {}
        self._waiters: dict[ObjectId, list[Job]] = {}
        self._held: dict[Job, list[ObjectId]] = {}
        #: Cumulative counters for metrics.
        self.acquisitions = 0
        self.contentions = 0
        #: Monotonic mutation counter: bumped by every operation that can
        #: change ownership or wait queues.  Part of the checkpointed lock
        #: state (``repro.sim.checkpoint``).
        self.version = 0

    # ------------------------------------------------------------------
    # Lock operations
    # ------------------------------------------------------------------

    def try_acquire(self, job: Job, obj: ObjectId) -> bool:
        """Acquire ``obj`` for ``job`` if free; otherwise enqueue ``job``
        as a waiter and return False."""
        holder = self._owner.get(obj)
        if holder is job:
            raise RuntimeError(f"{job.name}: re-acquiring held lock {obj!r}")
        self.version += 1
        if holder is None:
            held = self._held.setdefault(job, [])
            if held and not self._allow_nesting:
                raise RuntimeError(
                    f"{job.name}: nested critical section on {obj!r} while "
                    f"holding {held[-1]!r} (nesting disabled)"
                )
            self._owner[obj] = job
            held.append(obj)
            self.acquisitions += 1
            return True
        waiters = self._waiters.setdefault(obj, [])
        if job not in waiters:
            waiters.append(job)
        self.contentions += 1
        return False

    def release(self, job: Job, obj: ObjectId) -> list[Job]:
        """Release ``obj``; return the waiters that should be re-examined
        (they re-attempt acquisition when next dispatched)."""
        if self._owner.get(obj) is not job:
            raise RuntimeError(
                f"{job.name}: releasing lock {obj!r} it does not hold"
            )
        self.version += 1
        del self._owner[obj]
        self._held[job].remove(obj)
        woken = self._waiters.pop(obj, [])
        return woken

    def release_all(self, job: Job) -> list[Job]:
        """Roll back every lock ``job`` holds (abort path, Section 3.5).
        Returns all waiters to wake.  Also drops the job from any wait
        queues it sits in."""
        self.version += 1
        woken: list[Job] = []
        for obj in list(self._held.get(job, [])):
            woken.extend(self.release(job, obj))
        self._held.pop(job, None)
        for waiters in self._waiters.values():
            if job in waiters:
                waiters.remove(job)
        return woken

    def cancel_wait(self, job: Job) -> None:
        """Remove ``job`` from every wait queue (e.g. on abort)."""
        self.version += 1
        for waiters in self._waiters.values():
            if job in waiters:
                waiters.remove(job)

    # ------------------------------------------------------------------
    # Introspection used by the scheduler
    # ------------------------------------------------------------------

    def has_owners(self) -> bool:
        """True while any object is locked (else no job can depend on
        another)."""
        return bool(self._owner)

    def owner_of(self, obj: ObjectId) -> Job | None:
        return self._owner.get(obj)

    def held_by(self, job: Job) -> tuple[ObjectId, ...]:
        return tuple(self._held.get(job, ()))

    def waiters_on(self, obj: ObjectId) -> tuple[Job, ...]:
        return tuple(self._waiters.get(obj, ()))

    def blocking_job(self, job: Job) -> Job | None:
        """The job that ``job`` directly depends on (the owner of the
        object ``job`` waits for), or None."""
        if job.blocked_on is None:
            return None
        return self._owner.get(job.blocked_on)

    def consistency_anomalies(self) -> list[str]:
        """Self-audit of the manager's internal bookkeeping, for the
        runtime lock-state invariant monitor.  Returns human-readable
        anomaly descriptions (empty when consistent): every owned object
        appears in its owner's held list and vice versa, no job waits on
        an object it owns, and no completed/aborted job lingers as an
        owner or waiter."""
        anomalies: list[str] = []
        for obj, owner in self._owner.items():
            if obj not in self._held.get(owner, []):
                anomalies.append(
                    f"{owner.name} owns {obj!r} but it is missing from "
                    f"its held list")
            if not owner.is_live:
                anomalies.append(
                    f"dead job {owner.name} still owns {obj!r}")
        for job, held in self._held.items():
            for obj in held:
                if self._owner.get(obj) is not job:
                    anomalies.append(
                        f"{job.name} lists {obj!r} as held but does not "
                        f"own it")
        for obj, waiters in self._waiters.items():
            for waiter in waiters:
                if self._owner.get(obj) is waiter:
                    anomalies.append(
                        f"{waiter.name} waits on {obj!r} it owns")
                if not waiter.is_live:
                    anomalies.append(
                        f"dead job {waiter.name} still waits on {obj!r}")
        return anomalies

    def dependency_edges(self) -> dict[Job, Job]:
        """Direct dependency map: waiter -> owner, for every blocked job.

        This is the raw material from which RUA builds dependency chains
        (Section 3.1).
        """
        edges: dict[Job, Job] = {}
        for obj, waiters in self._waiters.items():
            owner = self._owner.get(obj)
            if owner is None:
                continue
            for waiter in waiters:
                edges[waiter] = owner
        return edges
