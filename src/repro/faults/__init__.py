"""Fault injection, graceful degradation, and runtime invariant
monitoring for the simulated kernel.

The paper's value proposition is predictability *under misbehavior*; this
package supplies the misbehavior (deterministic, seed-driven
:class:`FaultPlan` injectors), the degradation machinery (UAM
:class:`AdmissionGuard` shedding/deferring out-of-spec arrivals, a
:class:`RetryGuard` bounding lock-free retries with backoff and
Section 3.5 aborts), and the :class:`MonitorSuite` of online invariant
checkers whose findings land in a structured :class:`DegradationReport`
on the :class:`~repro.sim.metrics.SimulationResult`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.faults.degradation": (
        "AdmissionGuard", "AdmissionPolicy", "Decision", "RetryGuard",
        "ShedMode",
    ),
    "repro.faults.injector": ("FaultInjector",),
    "repro.faults.monitors": ("MonitorSuite",),
    "repro.faults.plan": (
        "ArrivalBurst", "CostJitter", "FaultPlan", "SegmentOverrun",
        "SpuriousRetry", "TimerFault",
    ),
    "repro.faults.report": ("DegradationReport", "InvariantViolation"),
})
