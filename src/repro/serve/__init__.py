"""Simulation-as-a-service (DESIGN.md §13).

A stdlib-only HTTP front end over :func:`repro.api.simulate`: bounded
admission with UAM-style shedding, a circuit breaker over crash-isolated
worker processes, a content-addressed result cache keyed by
``Scenario.digest()``, and graceful SIGTERM drain.  See
:mod:`repro.serve.app` for the pipeline overview.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.serve.admission": (
        "AdmissionDecision", "AdmissionQueue", "ServeRequest",
    ),
    "repro.serve.app": ("ServeApp", "ServeConfig"),
    "repro.serve.breaker": ("CLOSED", "HALF_OPEN", "OPEN", "CircuitBreaker"),
    "repro.serve.cache": ("ResultCache", "canonical_payload_json"),
    "repro.serve.drain": ("DrainController", "install_drain_signal"),
    "repro.serve.loadgen": ("LoadConfig", "run_load"),
    "repro.serve.pool": ("PoolFailure", "SimulationPool", "result_payload"),
    "repro.serve.wal": ("RequestLog",),
})
