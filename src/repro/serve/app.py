"""Simulation-as-a-service: the HTTP front end (stdlib only).

``POST /simulate`` accepts a frozen :class:`~repro.scenario.Scenario`
as JSON and returns its canonical result payload.  The request path is
a pipeline of explicit robustness stages, each independently tested:

    handler ──► cache ──► admission queue ──► breaker ──► worker pool
                  ▲                                            │
                  └──────────── verified payload ◄─────────────┘

* **cache** (:mod:`repro.serve.cache`): content-addressed by
  ``Scenario.digest()``; hits are served immediately and re-verified on
  every read (corruption quarantines and recomputes);
* **admission** (:mod:`repro.serve.admission`): bounded queue with
  UAM-style utility-density shedding — overload answers 429 +
  ``Retry-After``, never an unbounded queue;
* **breaker** (:mod:`repro.serve.breaker`): consecutive pool failures
  trip it open (fast 503s), a timer half-opens it, one good probe
  re-closes it;
* **pool** (:mod:`repro.serve.pool`): crash-isolated worker processes
  with per-trial timeouts, kill-and-rebuild, and seeded backoff retry;
* **drain** (:mod:`repro.serve.drain`): SIGTERM stops admission,
  finishes what it can in a grace window, leaves the rest pending in
  the write-ahead request log, and exits 0.

``GET /metrics`` exposes the whole pipeline through the PR 4 metrics
registry: hit rate, queue depth, shed count, breaker state, per-worker
saturation, request latency.  ``GET /healthz`` and ``GET /stats`` serve
load balancers and the CLI/CI harness respectively.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.campaign.chaos import ChaosPlan
from repro.obs.events import Histogram
from repro.obs.metrics import (
    OPENMETRICS_CONTENT_TYPE,
    MetricsRegistry,
    snapshot_openmetrics,
)
from repro.obs.observer import Observer
from repro.scenario import Scenario
from repro.serve.admission import AdmissionQueue, ServeRequest
from repro.serve.breaker import CircuitBreaker, OPEN
from repro.serve.cache import ResultCache
from repro.serve.drain import DrainController
from repro.serve.pool import PoolFailure, SimulationPool, close_inherited_fd
from repro.serve.wal import RequestLog

__all__ = ["ServeConfig", "ServeApp"]

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Largest accepted request body; a scenario dict is a few hundred
#: bytes, so anything near this is a misbehaving client.
MAX_BODY_BYTES = 1 << 20
#: Oversized bodies up to this size are read and dropped so the client
#: gets its 413; a larger one just has its connection closed.
MAX_DRAIN_BYTES = 16 * MAX_BODY_BYTES
#: Retry-After hint (seconds) on a 429 or a non-breaker 503.
RETRY_AFTER_S = "1"


@dataclass(frozen=True)
class ServeConfig:
    """Everything that defines one service instance."""

    host: str = "127.0.0.1"
    port: int = 0                        # 0 = ephemeral
    workers: int = 2                     # simulation worker processes
    queue_capacity: int = 64             # hard admission bound
    queue_watermark: int | None = None   # shedding starts here (<= cap)
    trial_timeout: float | None = 30.0   # per-trial wall clock (seconds)
    max_attempts: int = 3                # tries per trial (1 = no retry)
    retry_seed: int = 0                  # seeds the backoff schedule
    default_deadline_s: float = 60.0     # per-request deadline default
    breaker_threshold: int = 3           # consecutive failures to trip
    breaker_reset_s: float = 2.0         # open -> half-open timer
    cache_dir: str = ".repro-serve-cache"
    drain_grace_s: float = 10.0          # finish window on SIGTERM
    #: Write-ahead request log (repro.serve.wal): admitted requests are
    #: journaled durably and replayed on warm restart after a kill -9 or
    #: a drain that left them unserved.
    request_log: str | None = None
    chaos: ChaosPlan | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.queue_watermark is not None and self.queue_watermark < 1:
            raise ValueError("queue_watermark must be >= 1")
        if self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be positive")

    def to_dict(self) -> dict[str, Any]:
        """The startup config echo (JSON-safe; chaos reduced to flags)."""
        return {
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "queue_capacity": self.queue_capacity,
            "queue_watermark": (self.queue_capacity
                                if self.queue_watermark is None
                                else self.queue_watermark),
            "trial_timeout_s": self.trial_timeout,
            "max_attempts": self.max_attempts,
            "default_deadline_s": self.default_deadline_s,
            "breaker_threshold": self.breaker_threshold,
            "breaker_reset_s": self.breaker_reset_s,
            "cache_dir": self.cache_dir,
            "drain_grace_s": self.drain_grace_s,
            "request_log": self.request_log,
            "chaos": self.chaos is not None,
        }


class ServeApp:
    """The service: owns the pipeline stages and the dispatcher threads.

    Usable without HTTP — tests call :meth:`handle_simulate` directly —
    or started as a real server with :meth:`start` /
    :meth:`shutdown`.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        #: Request telemetry; touched only under ``_lock`` (handler and
        #: dispatcher threads share it, and the observer does not lock).
        self.observer = Observer()
        self.cache = ResultCache(cfg.cache_dir)
        self.queue = AdmissionQueue(capacity=cfg.queue_capacity,
                                    watermark=cfg.queue_watermark)
        self.breaker = CircuitBreaker(threshold=cfg.breaker_threshold,
                                      reset_after=cfg.breaker_reset_s)
        self.pool = SimulationPool(workers=cfg.workers,
                                   trial_timeout=cfg.trial_timeout,
                                   max_attempts=cfg.max_attempts,
                                   retry_seed=cfg.retry_seed,
                                   chaos=cfg.chaos)
        self.drain = DrainController()
        self._clock = time.monotonic
        self._lock = threading.Lock()
        self._status_counts: dict[str, int] = {}
        self._active_dispatch = 0
        self._stop = threading.Event()
        self._dispatchers: list[threading.Thread] = []
        self._server: "_ServeHTTPServer | None" = None
        self._server_thread: threading.Thread | None = None
        self._started_at: float | None = None
        self.request_log = (RequestLog(cfg.request_log)
                            if cfg.request_log else None)
        self._recovered_total = 0
        #: Digests replayed from the request log whose results are not
        #: yet in the cache; recovery is complete when this drains.
        self._recovery_pending: set[str] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ServeApp":
        if self._server is not None:
            return self
        self._started_at = self._clock()
        # Bind before anything can fork a worker: every pool worker
        # (including respawns after a rebuild) closes the inherited
        # listener, so orphans of a SIGKILLed server cannot keep the
        # port bound against a warm restart.
        server = _ServeHTTPServer((self.config.host, self.config.port),
                                  _ServeHandler)
        server.app = self
        self._server = server
        self.pool.worker_init = functools.partial(
            close_inherited_fd, server.socket.fileno())
        self._recover()
        for index in range(self.config.workers):
            thread = threading.Thread(target=self._dispatch_loop,
                                      name=f"repro-serve-dispatch-{index}",
                                      daemon=True)
            thread.start()
            self._dispatchers.append(thread)
        self._server_thread = threading.Thread(
            target=server.serve_forever, name="repro-serve-http",
            daemon=True)
        self._server_thread.start()
        return self

    def _recover(self) -> None:
        """Warm restart: replay the write-ahead request log.

        Entries whose digest is already in the result cache were fully
        served before the crash (the atomic ``cache.put`` is the commit
        record); the rest — queued or in-flight when the server died —
        are re-enqueued as orphan requests and computed exactly once.
        The log is then compacted to the still-pending entries.
        """
        if self.request_log is None:
            return
        entries = self.request_log.load()
        if not entries:
            return
        pending = [entry for entry in entries
                   if self.cache.get(entry["digest"]) is None]
        for entry in pending:
            request = ServeRequest(
                entry["scenario"], entry["digest"],
                priority=float(entry.get("priority") or 1.0),
                cost=max(float(entry["scenario"].get("horizon", 1.0)), 1.0),
                # The original client is gone; recovered work keeps no
                # deadline so it always reaches the cache.
                deadline=None,
                enqueued_at=self._clock(),
            )
            self._recovery_pending.add(entry["digest"])
            self.queue.submit(request)
        self._recovered_total = len(pending)
        self.request_log.compact(pending)

    @property
    def recovery_status(self) -> dict[str, Any]:
        with self._lock:
            pending = len(self._recovery_pending)
        return {
            "enabled": self.request_log is not None,
            "recovered": self._recovered_total,
            "pending": pending,
            "complete": pending == 0,
        }

    @property
    def port(self) -> int | None:
        if self._server is None:
            return None
        return self._server.server_address[1]

    @property
    def url(self) -> str | None:
        if self._server is None:
            return None
        return f"http://{self.config.host}:{self.port}"

    def shutdown(self, grace_s: float | None = None,
                 reason: str = "shutdown") -> dict[str, Any]:
        """Graceful drain: stop admitting, give in-flight work ``grace_s``
        seconds to finish, 503 the rest, stop everything.  The rest stay
        pending in the request log (when one is configured), so the next
        start replays them.  Returns a drain report."""
        grace = self.config.drain_grace_s if grace_s is None else grace_s
        self.drain.begin(reason)
        deadline = self._clock() + max(0.0, grace)
        while self._clock() < deadline:
            with self._lock:
                active = self._active_dispatch
            if self.queue.depth() == 0 and active == 0:
                break
            time.sleep(0.02)
        leftover = self.queue.close()
        for request in leftover:
            self._answer(request, 503, {
                "error": "draining",
                "detail": "accepted but not served before drain",
                "digest": request.digest,
            })
        self._stop.set()
        for thread in self._dispatchers:
            thread.join(timeout=5.0)
        self._dispatchers.clear()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._server_thread is not None:
            self._server_thread.join(timeout=5.0)
            self._server_thread = None
        self.pool.shutdown()
        if self.request_log is not None:
            self.request_log.close()
        return {"reason": reason, "unfinished": len(leftover)}

    def close(self) -> None:
        self.shutdown(grace_s=0.0, reason="close")

    def __enter__(self) -> "ServeApp":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request path (handler threads)
    # ------------------------------------------------------------------

    def handle_simulate(self, body: bytes) -> tuple[int, dict[str, Any],
                                                    dict[str, str]]:
        """The full pipeline for one request; returns
        ``(status, body_dict, extra_headers)``."""
        started = self._clock()
        status, payload, headers = self._handle_simulate(body)
        reason = str(payload.get("reason", ""))
        key = f"{status}:{reason}" if reason else str(status)
        elapsed = self._clock() - started
        with self._lock:
            self._status_counts[key] = self._status_counts.get(key, 0) + 1
            self.observer.histogram("serve.request_s", elapsed)
        return status, payload, headers

    def _note(self, counter: str) -> None:
        with self._lock:
            self.observer.counter(counter)

    def _handle_simulate(self, body: bytes) -> tuple[int, dict[str, Any],
                                                     dict[str, str]]:
        cfg = self.config
        retry_after = {"Retry-After": RETRY_AFTER_S}
        if self.drain.draining:
            return 503, {"error": "draining", "reason": "draining"}, \
                retry_after
        try:
            document = json.loads(body.decode("utf-8"))
            if not isinstance(document, dict):
                raise ValueError("request body must be a JSON object")
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as exc:
            return 400, {"error": "bad_request",
                         "detail": f"unparseable body: {exc}"}, {}
        scenario_dict = document.get("scenario", document)
        try:
            if not isinstance(scenario_dict, dict):
                raise ValueError("scenario must be a JSON object")
            scenario = Scenario.from_dict(scenario_dict)
            digest = scenario.digest()
        except (ValueError, TypeError, KeyError) as exc:
            return 400, {"error": "bad_scenario", "detail": str(exc)}, {}
        try:
            priority = float(document.get("priority", 1.0))
            deadline_s = float(document.get("deadline_s",
                                            cfg.default_deadline_s))
            if deadline_s <= 0:
                raise ValueError("deadline_s must be positive")
        except (TypeError, ValueError) as exc:
            return 400, {"error": "bad_request", "detail": str(exc)}, {}

        cached = self.cache.get(digest)
        if cached is not None:
            return 200, {"digest": digest, "cached": True,
                         "result": cached}, {}

        # Nothing dispatches before start(): an admitted miss could only
        # wait out its deadline.
        if self._started_at is None:
            return 503, {"error": "not_started", "reason": "not_started"}, \
                retry_after

        # Fast-fail while the breaker is hard open: joining the queue
        # would only time the client out.  Half-open traffic still flows
        # (the dispatcher claims the probe slot).
        if self.breaker.state == OPEN:
            return 503, {"error": "breaker_open", "reason": "breaker",
                         "digest": digest}, \
                {"Retry-After": f"{max(self.breaker.retry_after(), 0.05):.3g}"}

        request = ServeRequest(
            scenario.to_dict(), digest,
            priority=priority,
            # UAM cost estimate: simulated horizon is the dominant term
            # of a trial's wall clock.
            cost=float(scenario.horizon),
            deadline=self._clock() + deadline_s,
            enqueued_at=self._clock(),
        )
        # Write-ahead: journal before the queue can accept, so no
        # admitted request is ever unlogged.  (A request logged but then
        # shed is re-checked against the cache on restart — recomputing
        # it is idempotent, losing it would not be.)
        if self.request_log is not None and not self.drain.draining:
            self.request_log.append(digest, request.scenario_dict,
                                    priority=priority,
                                    deadline_s=deadline_s)
        decision = self.queue.submit(request)
        if decision.shed is not None:
            self._answer(decision.shed, 429, {
                "error": "shed", "reason": "evicted",
                "detail": "evicted by a higher-density request",
                "digest": decision.shed.digest,
            }, headers=retry_after)
        if not decision.admitted:
            if decision.reason == "draining":
                return 503, {"error": "draining", "reason": "draining",
                             "digest": digest}, retry_after
            return 429, {"error": "shed", "reason": "queue_full",
                         "detail": "admission queue past watermark and "
                                   "request density too low",
                         "digest": digest}, retry_after

        if not request.wait(deadline_s):
            request.cancel()
            return 504, {"error": "deadline_exceeded", "reason": "deadline",
                         "digest": digest,
                         "deadline_s": deadline_s}, {}
        headers = dict(request.body.pop("_headers", {})) \
            if isinstance(request.body, dict) else {}
        return request.status, request.body, headers

    # ------------------------------------------------------------------
    # Dispatch path (dispatcher threads)
    # ------------------------------------------------------------------

    def _answer(self, request: ServeRequest, status: int,
                body: dict[str, Any],
                headers: dict[str, str] | None = None) -> None:
        if headers:
            body = {**body, "_headers": headers}
        request.finish(status, body)

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            request = self.queue.take(timeout=0.1)
            if request is None:
                continue
            with self._lock:
                self._active_dispatch += 1
            try:
                self._dispatch_one(request)
            except Exception as exc:  # pragma: no cover - last resort
                self._answer(request, 500,
                             {"error": "internal",
                              "detail": f"{type(exc).__name__}: {exc}",
                              "digest": request.digest})
            finally:
                with self._lock:
                    self._active_dispatch -= 1

    def _dispatch_one(self, request: ServeRequest) -> None:
        if request.cancelled:
            self._note("serve.abandoned_in_queue")
            return
        if request.deadline is not None and \
                self._clock() >= request.deadline:
            self._note("serve.abandoned_in_queue")
            self._answer(request, 504, {"error": "deadline_exceeded",
                                        "reason": "deadline",
                                        "digest": request.digest})
            return
        if not self.breaker.allow():
            self._answer(
                request, 503,
                {"error": "breaker_open", "reason": "breaker",
                 "digest": request.digest},
                headers={"Retry-After":
                         f"{max(self.breaker.retry_after(), 0.05):.3g}"})
            return
        try:
            payload = self.pool.execute(request.scenario_dict,
                                        deadline=request.deadline)
        except PoolFailure as failure:
            if failure.kind == "deadline":
                # The pool is not to blame for a client deadline; free
                # the probe slot without judging the pool's health.
                self.breaker.record_neutral()
                self._note("serve.deadline_cancelled")
                self._answer(request, 504,
                             {"error": "deadline_exceeded",
                              "reason": "deadline",
                              "digest": request.digest})
                return
            self.breaker.record_failure()
            self._answer(
                request, 500,
                {"error": "simulation_failed", "reason": failure.kind,
                 "kind": failure.kind, "attempts": failure.attempts,
                 "detail": str(failure), "digest": request.digest})
            return
        self.breaker.record_success()
        self.cache.put(request.digest, payload)
        with self._lock:
            self._recovery_pending.discard(request.digest)
        self._answer(request, 200, {"digest": request.digest,
                                    "cached": False, "result": payload})

    # ------------------------------------------------------------------
    # Introspection: /stats, /metrics
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            status_counts = dict(sorted(self._status_counts.items()))
            active = self._active_dispatch
        return {
            "draining": self.drain.draining,
            "uptime_s": (0.0 if self._started_at is None
                         else round(self._clock() - self._started_at, 3)),
            "responses": status_counts,
            "cache": self.cache.stats(),
            "queue": {
                "depth": self.queue.depth(),
                "capacity": self.queue.capacity,
                "watermark": self.queue.watermark,
                "admitted": self.queue.admitted_total,
                "shed": self.queue.shed_total,
                "evicted": self.queue.evicted_total,
            },
            "breaker": {
                "state": self.breaker.state,
                "transitions": self.breaker.transitions,
                "rejected": self.breaker.rejected_total,
            },
            "pool": {
                "workers": self.pool.workers,
                "busy": self.pool.busy,
                "active_dispatch": active,
                "executions": self.pool.executions,
                "retries": self.pool.retries,
                "rebuilds": self.pool.rebuilds,
                "failure_kinds": dict(sorted(
                    self.pool.failure_kinds.items())),
            },
            "recovery": self.recovery_status,
        }

    def _fill_metrics(self, registry: MetricsRegistry) -> None:
        """Project the pipeline state into the PR 4 metrics registry.
        Called per scrape on a fresh registry, so plain ``inc`` by the
        current totals yields correct counter samples."""
        cache = self.cache.stats()
        lookups = registry.counter(
            "repro_serve_cache_lookups",
            "Result-cache lookups by outcome", ("outcome",))
        for outcome in ("hits", "misses", "corrupt"):
            lookups.inc(cache[outcome], outcome=outcome.rstrip("s")
                        if outcome != "misses" else "miss")
        registry.gauge("repro_serve_cache_hit_rate",
                       "Result-cache hit rate since start"
                       ).set(cache["hit_rate"])
        registry.gauge("repro_serve_queue_depth",
                       "Admission queue depth").set(self.queue.depth())
        shed = registry.counter("repro_serve_shed",
                                "Requests shed by admission control",
                                ("reason",))
        shed.inc(self.queue.shed_total - self.queue.evicted_total,
                 reason="queue_full")
        shed.inc(self.queue.evicted_total, reason="evicted")
        registry.gauge(
            "repro_serve_breaker_state",
            "Circuit breaker state (0=closed 1=half-open 2=open)"
        ).set(self.breaker.state_code)
        registry.counter("repro_serve_breaker_transitions",
                         "Circuit breaker state transitions"
                         ).inc(self.breaker.transitions)
        registry.counter("repro_serve_breaker_rejections",
                         "Requests rejected by the open breaker"
                         ).inc(self.breaker.rejected_total)
        busy = self.pool.busy
        registry.gauge("repro_serve_workers",
                       "Configured simulation worker processes"
                       ).set(self.pool.workers)
        registry.gauge("repro_serve_workers_busy",
                       "Simulation workers currently executing a trial"
                       ).set(busy)
        saturation = registry.gauge(
            "repro_serve_worker_saturation",
            "Per-worker-slot busy flag (1 = executing a trial)",
            ("worker",))
        for slot in range(self.pool.workers):
            saturation.set(1.0 if slot < busy else 0.0, worker=str(slot))
        registry.counter("repro_serve_pool_rebuilds",
                         "Worker-pool kill-and-rebuild events"
                         ).inc(self.pool.rebuilds)
        registry.counter("repro_serve_trial_retries",
                         "Trials re-run after a retryable failure"
                         ).inc(self.pool.retries)
        failures = registry.counter("repro_serve_pool_failures",
                                    "Trial attempt failures by kind",
                                    ("kind",))
        for kind, count in sorted(self.pool.failure_kinds.items()):
            failures.inc(count, kind=kind)
        registry.counter(
            "repro_serve_recovered_requests",
            "Requests replayed from the write-ahead log on warm restart"
        ).inc(self._recovered_total)
        with self._lock:
            recovery_pending = len(self._recovery_pending)
        registry.gauge(
            "repro_serve_recovery_pending",
            "Replayed requests whose results are not yet cached"
        ).set(recovery_pending)
        if self.request_log is not None:
            registry.counter(
                "repro_serve_wal_appends",
                "Requests journaled to the write-ahead log"
            ).inc(self.request_log.appended)
        responses = registry.counter("repro_serve_responses",
                                     "HTTP responses by status", ("code",))
        with self._lock:
            counts = dict(self._status_counts)
        by_code: dict[str, int] = {}
        for key, count in counts.items():
            code = key.split(":", 1)[0]
            by_code[code] = by_code.get(code, 0) + count
        for code, count in sorted(by_code.items()):
            responses.inc(count, code=code)

    def render_metrics(self) -> str:
        # Render from a copy: handler and dispatcher threads keep
        # recording into the live observer while the scrape runs.
        copy = Observer()
        with self._lock:
            copy.counters = dict(self.observer.counters)
            copy.histograms = {name: Histogram(list(hist.values))
                               for name, hist
                               in self.observer.histograms.items()}
        return snapshot_openmetrics(observer=copy, extra=self._fill_metrics)


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    app: ServeApp


class _ServeHandler(BaseHTTPRequestHandler):
    """Thin translation between HTTP and :class:`ServeApp` methods."""

    server: _ServeHTTPServer
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a response goes out as headers then body, and on a
    # keep-alive connection Nagle would hold the body until the client's
    # delayed ACK (~40 ms) for the headers arrives.
    disable_nagle_algorithm = True

    # -- helpers -------------------------------------------------------

    def _respond_json(self, status: int, body: dict[str, Any],
                      headers: dict[str, str] | None = None) -> None:
        payload = (json.dumps(body, sort_keys=True,
                              separators=(",", ":")) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", JSON_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass    # client gave up; nothing to salvage

    # -- verbs ---------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path != "/simulate":
            self._respond_json(404, {"error": "not_found",
                                     "detail": "try POST /simulate"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # Read and drop a moderately oversized body before answering,
            # then close: left unread, it would be parsed as the next
            # request, and closing on unread bytes resets the connection
            # under a client still sending, which then never sees the 413.
            remaining = min(length, MAX_DRAIN_BYTES)
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 1 << 16))
                if not chunk:
                    break
                remaining -= len(chunk)
            self._respond_json(413, {"error": "body_too_large",
                                     "limit": MAX_BODY_BYTES},
                               {"Connection": "close"})
            return
        body = self.rfile.read(length) if length else b""
        status, payload, headers = self.server.app.handle_simulate(body)
        self._respond_json(status, payload, headers)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        app = self.server.app
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            try:
                body = app.render_metrics().encode("utf-8")
            except Exception as exc:  # pragma: no cover - defensive
                self._respond_json(500, {"error": "metrics_failed",
                                         "detail": str(exc)})
                return
            self.send_response(200)
            self.send_header("Content-Type", OPENMETRICS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif path == "/healthz":
            status = 503 if app.drain.draining else 200
            self._respond_json(status, {
                "status": "draining" if app.drain.draining else "ok",
                "breaker": app.breaker.state,
                "recovery": app.recovery_status,
            })
        elif path == "/stats":
            self._respond_json(200, app.stats())
        elif path.startswith("/result/"):
            digest = path[len("/result/"):]
            try:
                payload = app.cache.get(digest)
            except ValueError:
                self._respond_json(400, {"error": "bad_digest"})
                return
            if payload is None:
                self._respond_json(404, {"error": "not_cached",
                                         "digest": digest})
            else:
                self._respond_json(200, {"digest": digest, "cached": True,
                                         "result": payload})
        else:
            self._respond_json(404, {
                "error": "not_found",
                "detail": "try /simulate, /metrics, /healthz, /stats"})

    def log_message(self, *args: Any) -> None:  # noqa: D102
        pass
