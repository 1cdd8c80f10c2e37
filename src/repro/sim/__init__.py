"""Discrete-event uniprocessor RTOS simulator.

This package replaces the paper's QNX Neutrino 6.3 testbed.  It is a
deterministic discrete-event simulation of a single-processor real-time
kernel: UAM job arrivals, preemptive dispatch controlled by a pluggable
scheduler policy, critical-time timers with the paper's abort-exception
model, a lock manager for lock-based sharing, and a lock-free object layer
that restarts interfered accesses (Anderson's retry model).

All scheduler/synchronization mechanism costs are *charged on the
simulated CPU* through explicit cost models (:mod:`repro.sim.overheads`),
which is what lets the simulation reproduce the overhead-driven figures of
the paper (Figures 8 and 9) without measuring Python wall time.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sim.engine": ("EventQueue", "QueueEmpty"),
    "repro.sim.events": (
        "CriticalTimeExpiry", "EventPriority", "JobArrival", "Milestone",
    ),
    "repro.sim.overheads": (
        "ConstantCost", "CostModel", "LinearithmicCost", "QuadraticCost",
        "QuadraticLogCost", "ZeroCost", "KernelCosts",
    ),
    "repro.sim.locks": ("LockManager",),
    "repro.sim.objects": ("LockFreeObjectTable", "RetryPolicy"),
    "repro.sim.kernel": ("Kernel", "SimulationConfig", "SyncMode"),
    "repro.sim.metrics": ("JobRecord", "SimulationResult"),
    "repro.sim.gantt": ("render_gantt",),
})
