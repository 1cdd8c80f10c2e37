"""Simulation-as-a-service (DESIGN.md §13).

A stdlib-only HTTP front end over :func:`repro.api.simulate`: bounded
admission with UAM-style shedding, a circuit breaker over crash-isolated
worker processes, a content-addressed result cache keyed by
``Scenario.digest()``, and graceful SIGTERM drain.  See
:mod:`repro.serve.app` for the pipeline overview.
"""

from repro.serve.admission import (
    AdmissionDecision,
    AdmissionQueue,
    ServeRequest,
)
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.cache import ResultCache, canonical_payload_json
from repro.serve.drain import DrainController, install_drain_signal
from repro.serve.loadgen import LoadConfig, run_load
from repro.serve.pool import PoolFailure, SimulationPool, result_payload
from repro.serve.wal import RequestLog

__all__ = [
    "AdmissionDecision",
    "AdmissionQueue",
    "ServeRequest",
    "ServeApp",
    "ServeConfig",
    "CircuitBreaker",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "ResultCache",
    "canonical_payload_json",
    "DrainController",
    "install_drain_signal",
    "LoadConfig",
    "run_load",
    "PoolFailure",
    "RequestLog",
    "SimulationPool",
    "result_payload",
]
