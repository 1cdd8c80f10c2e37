"""Seeded load generator for the serve layer (``repro load``).

Generates a *deterministic* request schedule — arrival times, scenario
parameters, priorities — entirely from one seed, so a load run is
reproducible: same seed, same requests in the same order per consumer.
The scenario pool is intentionally smaller than the request count
(``n_scenarios`` distinct scenarios, cycled), so a run exercises the
content-addressed cache: repeats of a scenario must come back as
``cached: true`` hits.

The report separates outcomes by the service's own contract — shed
(429) and unavailable (503) are *load signals*, not errors — and
records p50/p99/mean latency plus achieved throughput, which the serve
benchmark feeds into the perf-trajectory gate.  Latency runs from each
request's *scheduled* arrival, not from when a consumer got round to
sending it: a consumer stuck behind a slow response delays its next
request, and that wait is part of what the open-loop client sees (no
coordinated omission).  How late requests went out is reported on its
own as the send lag (``lag_s``).

Optionally (``verify=True``) every unique 200-payload is byte-compared
against a clean, local ``simulate(scenario)`` at the same seed: the
chaos acceptance criterion that crashes, retries and cache round-trips
never change a result.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Any
from urllib.parse import urlsplit

__all__ = ["LoadConfig", "run_load", "percentile"]

#: Fixed outcome vocabulary (stable ``--json`` schema keys).
OUTCOMES = ("ok", "shed", "unavailable", "failed", "deadline",
            "rejected", "transport_error", "other")

#: Socket timeout per request (seconds).
_TIMEOUT_S = 60.0

_STATUS_OUTCOME = {200: "ok", 429: "shed", 503: "unavailable",
                   500: "failed", 504: "deadline", 400: "rejected",
                   413: "rejected"}


@dataclass(frozen=True)
class LoadConfig:
    """One reproducible load run against a running serve instance."""

    url: str
    consumers: int = 4           # concurrent client threads
    rate: float = 50.0           # target arrivals per second (aggregate)
    duration_s: float = 5.0      # schedule length
    seed: int = 0                # seeds schedule + scenario pool
    n_scenarios: int = 8         # distinct scenarios cycled (cache reuse)
    n_tasks: int = 6             # scenario size knobs
    horizon_us: int = 20_000
    load: float = 0.6
    sync: str = "lockfree"
    deadline_s: float = 30.0     # per-request deadline sent to the server
    priority_levels: int = 3     # priorities drawn from 1..levels
    verify: bool = False         # byte-compare 200s against local runs

    def __post_init__(self) -> None:
        if self.consumers < 1:
            raise ValueError("consumers must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.n_scenarios < 1:
            raise ValueError("n_scenarios must be >= 1")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def _build_scenarios(config: LoadConfig) -> list[dict[str, Any]]:
    from repro.api import quick_scenario

    scenarios = []
    for index in range(config.n_scenarios):
        scenario = quick_scenario(
            n_tasks=config.n_tasks,
            sync=config.sync,
            load=config.load,
            horizon_us=config.horizon_us,
            seed=config.seed * 10_007 + index,
        )
        scenarios.append(scenario.to_dict())
    return scenarios


def _build_schedule(config: LoadConfig,
                    scenarios: list[dict[str, Any]]) -> list[list[dict]]:
    """Per-consumer arrival plans, fully determined by the seed.

    Arrival ``i`` fires at ``i/rate`` seconds with a small seeded jitter,
    uses scenario ``i % n_scenarios``, and goes to consumer
    ``i % consumers`` — a uniform open-loop arrival process.
    """
    rng = random.Random(config.seed)
    total = max(1, int(config.rate * config.duration_s))
    spacing = 1.0 / config.rate
    plans: list[list[dict]] = [[] for _ in range(config.consumers)]
    for index in range(total):
        jitter = rng.uniform(-0.25, 0.25) * spacing
        plans[index % config.consumers].append({
            "at": max(0.0, index * spacing + jitter),
            "scenario": scenarios[index % len(scenarios)],
            "priority": float(1 + rng.randrange(config.priority_levels)),
            "index": index,
        })
    return plans


class _Collector:
    """Thread-safe outcome sink for consumer threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.counts = {outcome: 0 for outcome in OUTCOMES}
        self.ok_latencies: list[float] = []
        self.lags: list[float] = []
        self.cache_hits = 0
        self.bodies: dict[str, str] = {}   # digest -> canonical payload
        self.mismatches: list[str] = []

    def record(self, outcome: str, latency: float, lag: float,
               body: dict[str, Any] | None) -> None:
        with self.lock:
            self.counts[outcome] = self.counts.get(outcome, 0) + 1
            self.lags.append(lag)
            if outcome != "ok" or body is None:
                return
            self.ok_latencies.append(latency)
            if body.get("cached"):
                self.cache_hits += 1
            digest = body.get("digest")
            result = body.get("result")
            if isinstance(digest, str) and isinstance(result, dict):
                canonical = json.dumps(result, sort_keys=True,
                                       separators=(",", ":"))
                previous = self.bodies.setdefault(digest, canonical)
                if previous != canonical:
                    self.mismatches.append(
                        f"digest {digest[:12]}: divergent 200 payloads")


def _consume(plan: list[dict], config: LoadConfig, start: float,
             host: str, port: int, base_path: str,
             collector: _Collector) -> None:
    connection = http.client.HTTPConnection(host, port,
                                            timeout=_TIMEOUT_S)
    try:
        for entry in plan:
            scheduled = start + entry["at"]
            delay = scheduled - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            body = json.dumps({
                "scenario": entry["scenario"],
                "priority": entry["priority"],
                "deadline_s": config.deadline_s,
            }).encode("utf-8")
            lag = time.monotonic() - scheduled
            try:
                connection.request(
                    "POST", base_path + "/simulate", body=body,
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                raw = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                collector.record("transport_error",
                                 time.monotonic() - scheduled, lag, None)
                connection.close()
                connection = http.client.HTTPConnection(
                    host, port, timeout=_TIMEOUT_S)
                continue
            latency = time.monotonic() - scheduled
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                payload = None
            collector.record(_STATUS_OUTCOME.get(status, "other"),
                             latency, lag, payload)
    finally:
        connection.close()


def _verify_against_local(collector: _Collector,
                          scenarios: list[dict[str, Any]]) -> dict[str, Any]:
    """Recompute every scenario locally; byte-compare with served 200s."""
    from repro.scenario import Scenario
    from repro.serve.cache import canonical_payload_json
    from repro.serve.pool import result_payload

    from repro.api import simulate

    checked = 0
    mismatches = list(collector.mismatches)
    for scenario_dict in scenarios:
        scenario = Scenario.from_dict(scenario_dict)
        digest = scenario.digest()
        served = collector.bodies.get(digest)
        if served is None:
            continue        # this scenario never got a 200
        local = canonical_payload_json(
            result_payload(scenario, simulate(scenario)))
        checked += 1
        if served != local:
            mismatches.append(
                f"digest {digest[:12]}: served payload differs from "
                f"local simulate()")
    return {"verified": checked, "mismatches": mismatches}


def run_load(config: LoadConfig) -> dict[str, Any]:
    """Run the load; return the report dict (the ``repro load --json``
    payload body)."""
    parts = urlsplit(config.url)
    if parts.scheme not in ("http", ""):
        raise ValueError(f"unsupported scheme {parts.scheme!r}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port or 80
    base_path = parts.path.rstrip("/")

    scenarios = _build_scenarios(config)
    plans = _build_schedule(config, scenarios)
    collector = _Collector()
    start = time.monotonic() + 0.05     # common epoch for all consumers
    threads = [
        threading.Thread(target=_consume,
                         args=(plan, config, start, host, port, base_path,
                               collector),
                         name=f"repro-load-{index}", daemon=True)
        for index, plan in enumerate(plans)
    ]
    began = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.monotonic() - began

    latencies = sorted(collector.ok_latencies)
    lags = sorted(collector.lags)
    sent = sum(collector.counts.values())
    report: dict[str, Any] = {
        "url": config.url,
        "seed": config.seed,
        "consumers": config.consumers,
        "rate": config.rate,
        "duration_s": config.duration_s,
        "n_scenarios": config.n_scenarios,
        "requests_sent": sent,
        "outcomes": {outcome: collector.counts.get(outcome, 0)
                     for outcome in OUTCOMES},
        "cache_hits": collector.cache_hits,
        "cache_hit_rate": (collector.cache_hits / len(latencies)
                           if latencies else 0.0),
        "latency_s": {
            "p50": percentile(latencies, 0.50),
            "p99": percentile(latencies, 0.99),
            "mean": (sum(latencies) / len(latencies)) if latencies else 0.0,
            "max": latencies[-1] if latencies else 0.0,
        },
        "lag_s": {
            "p50": percentile(lags, 0.50),
            "p99": percentile(lags, 0.99),
            "max": lags[-1] if lags else 0.0,
        },
        "throughput_rps": (len(latencies) / wall_s) if wall_s > 0 else 0.0,
        "wall_s": wall_s,
    }
    if config.verify:
        report["verification"] = _verify_against_local(collector, scenarios)
    elif collector.mismatches:
        report["verification"] = {"verified": 0,
                                  "mismatches": collector.mismatches}
    return report
