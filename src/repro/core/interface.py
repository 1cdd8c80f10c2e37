"""Scheduler policy interface.

A policy is a pure decision procedure: given the live jobs, the lock state
(None under lock-free or no sharing) and the current time, it returns the
jobs in execution-eligibility order.  The kernel dispatches the first
dispatchable job of that order and charges ``cost_model(n)`` of simulated
CPU time for the pass.

Jobs *absent* from the returned order are rejected for this scheduling
event (RUA drops infeasible jobs from its tentative schedule); they remain
live and will be reconsidered at the next event or aborted at their
critical times.

``schedule`` is a concrete template method: it validates the inputs,
short-circuits provably empty passes on the fast path (disabled by
``REPRO_NO_FASTPATH``), emits the policy's deterministic observability
counters identically on every path, and delegates the actual decision to
``_compute``.  The simulated cost model is charged by the kernel on every
pass, skipped or not, so fixed-seed results are byte-identical with the
fast path on or off (see DESIGN.md §12).
"""

from __future__ import annotations

import os
from abc import ABC
from dataclasses import dataclass

from repro.obs.observer import NULL_OBSERVER, NullObserver
from repro.sim.locks import LockManager
from repro.sim.overheads import CostModel
from repro.tasks.job import Job


def fastpath_enabled() -> bool:
    """True unless ``REPRO_NO_FASTPATH`` is set (to anything non-empty).

    The reference path runs the general Section 3.4 construction on every
    pass; the fast path short-circuits empty passes and specializes
    singleton chains.  Policies read it once, at construction
    (``SchedulerPolicy.fast``).  Both produce identical results by
    construction — the equivalence suite
    (``tests/core/test_fastpath_equivalence.py``) pins it.
    """
    return not os.environ.get("REPRO_NO_FASTPATH")


@dataclass(slots=True)
class PassResult:
    """Outcome of one scheduling pass, as produced by ``_compute``.

    Carries the eligibility order plus the deterministic counter material
    the base class emits, so every path reports exactly what the
    reference computation would have.
    """

    order: list[Job]
    #: Jobs examined but dropped as infeasible (RUA rejection).
    rejections: int = 0
    #: Deadlock victims selected during this pass (lock-based + nesting).
    victims: int = 0
    #: Length of the longest dependency chain seen (0 = no chains built).
    chain_len_max: int = 0


class SchedulerPolicy(ABC):
    """Base class for scheduling policies driven by the kernel."""

    #: Human-readable policy name (used in reports).
    name: str = "policy"
    #: Simulated cost charged per scheduling pass.
    cost_model: CostModel
    #: Observability sink (repro.obs).  The kernel replaces this with its
    #: configured observer; policies guard hooks with ``self.obs.enabled``.
    obs: NullObserver = NULL_OBSERVER
    #: Whether this policy reports the ``sched.*`` counter family (the
    #: RUA policies do; the EDF/LLF baselines never have).
    emits_counters: bool = False

    def __init__(self) -> None:
        #: Deadlock victims requested and not yet consumed.  The kernel
        #: tests this list after every pass and calls
        #: :meth:`consume_abort_requests` only when it is non-empty.
        self.abort_requests: list[Job] = []
        #: Whether this policy runs the fast path, resolved once here
        #: rather than read from the environment on every pass.
        self.fast = fastpath_enabled()

    def schedule(self, jobs: list[Job], locks: LockManager | None,
                 now: int) -> list[Job]:
        """Return jobs in eligibility order (head runs first)."""
        self._validate(jobs, locks)
        obs = self.obs
        if self.fast and not jobs:
            # Provably-empty pass: no candidates, the order is [] and no
            # policy state can change.  Emit the same counters a real
            # pass over zero jobs would.
            if obs.enabled:
                self._emit_counters(PassResult(order=[]))
                obs.counter("sched.pass.skipped")
            return []
        result = self._compute(jobs, locks, now)
        if obs.enabled:
            self._emit_counters(result)
        return result.order

    def _compute(self, jobs: list[Job], locks: LockManager | None,
                 now: int) -> PassResult:
        """The policy's decision procedure.  Must be a deterministic pure
        function of the jobs' scheduling state, the lock state and ``now``
        (plus the ``request_abort`` channel)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _compute() "
            "(or override schedule() entirely)")

    def _validate(self, jobs: list[Job], locks: LockManager | None) -> None:
        """Input validation hook; runs before any fast-path shortcut."""

    def clear_abort_requests(self) -> None:
        """Drop pending abort requests.

        Called on checkpoint restore: the restored jobs are new objects,
        so a victim requested before the snapshot must never reach the
        restored kernel.  Policies keep no other state between passes.
        """
        self.abort_requests = []

    def _emit_counters(self, result: PassResult) -> None:
        """Deterministic per-pass counters, identical on the computed and
        short-circuited paths."""
        if not self.emits_counters:
            return
        obs = self.obs
        obs.counter("sched.passes")
        obs.counter("sched.rejections", result.rejections)
        if result.victims:
            obs.counter("sched.deadlock_victims", result.victims)
        if result.chain_len_max:
            obs.histogram("sched.chain_len", result.chain_len_max)

    # ------------------------------------------------------------------
    # Deadlock resolution channel (lock-based RUA with nesting only)
    # ------------------------------------------------------------------

    def request_abort(self, job: Job) -> None:
        """Ask the kernel to abort ``job`` (deadlock resolution,
        Section 3.3).  The kernel collects requests after each pass."""
        self.abort_requests.append(job)

    def consume_abort_requests(self) -> list[Job]:
        """The victims requested since the last call."""
        victims = self.abort_requests
        self.abort_requests = []
        return victims
