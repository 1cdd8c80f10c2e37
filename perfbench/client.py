"""Open-loop HTTP client for ``POST /simulate``.

Requests follow a fixed schedule of send times.  Each of a few
keep-alive connections takes the next due request as soon as it is
free, so a stalled server delays later requests instead of thinning the
load.  Latency is measured from the *scheduled* send time, which counts
that delay; how late the request actually went out is reported
separately as the send lag (it is not subtracted from anything).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass


def encode_request(rid, scenario_dict):
    """Body of one request.  ``rid`` comes first so a tracer can read it
    without parsing; the service ignores fields it does not know."""
    return (b'{"rid":' + str(rid).encode() + b',"scenario":'
            + json.dumps(scenario_dict, sort_keys=True,
                         separators=(",", ":")).encode() + b"}")


def request_id(body):
    """The ``rid`` of a body built by :func:`encode_request`, or None."""
    if not body.startswith(b'{"rid":'):
        return None
    return int(body[7:body.index(b",", 7)])


@dataclass
class Sample:
    rid: int
    step: int
    kind: str            # "hit" or "miss"
    scheduled: float     # perf_counter seconds
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def latency(self):
        return self.done - self.scheduled

    @property
    def lag(self):
        return self.sent - self.scheduled


def run_schedule(host, port, plan, connections, start_delay=0.05,
                 timeout=60.0):
    """Send ``plan`` — a list of ``(offset_s, step, kind, body)`` sorted
    by offset — over ``connections`` keep-alive connections.  Returns one
    :class:`Sample` per planned request, in plan order."""
    samples = [None] * len(plan)
    cursor = iter(range(len(plan)))
    lock = threading.Lock()
    origin = time.perf_counter() + start_delay

    def worker():
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                offset, step, kind, body = plan[index]
                sample = Sample(rid=request_id(body), step=step, kind=kind,
                                scheduled=origin + offset)
                samples[index] = sample
                delay = sample.scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sample.sent = time.perf_counter()
                try:
                    conn.request("POST", "/simulate", body,
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    sample.body = response.read()
                    sample.status = response.status
                except (OSError, http.client.HTTPException) as exc:
                    sample.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(host, port,
                                                      timeout=timeout)
                sample.done = time.perf_counter()
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples
