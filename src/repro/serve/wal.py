"""Durable write-ahead request log for serve warm restart.

Admission durability: a ``kill -9`` gives the server no chance to write
anything — whatever sat in the admission queue or on a worker is simply
gone.  The :class:`RequestLog` closes that hole by journaling every
request *at admission time*, before the queue accepts it: one JSON line
per request (digest, scenario, QoS), flushed and fsynced before the
admit proceeds.  A graceful drain needs nothing more: the log is never
compacted on shutdown, so requests still queued when the grace expires
stay pending and the next start replays them.

On restart, :meth:`ServeApp.start` replays the log: entries are deduped
by ``Scenario.digest()``; digests already in the content-addressed
result cache are complete (the ``cache.put`` *is* the commit record —
no separate completion marker is needed or trusted); the rest are
re-enqueued as recovery work and computed exactly once, since the cache
write is atomic and the payload is a deterministic pure function of the
scenario.  The replayed log is then compacted down to the still-pending
entries so it cannot grow across restarts.

The file itself is a :class:`repro.campaign.io.AppendLog`: torn lines
are skipped on load, and a torn final line is terminated before the
next append so that append is not lost with it.
"""

from __future__ import annotations

import os
from typing import Any

from repro.campaign.io import AppendLog

__all__ = ["RequestLog"]


class RequestLog:
    """Append-side and replay-side of the serve write-ahead log."""

    def __init__(self, path: str | os.PathLike) -> None:
        self._log = AppendLog(path)
        self.path = self._log.path

    @property
    def appended(self) -> int:
        return self._log.appended

    def append(self, digest: str, scenario_dict: dict[str, Any], *,
               priority: float = 1.0, deadline_s: float | None = None
               ) -> None:
        """Durably journal one admitted request (flush + fsync before
        returning, so the admit is recoverable the instant it happens)."""
        self._log.append({"type": "request", "digest": digest,
                          "scenario": scenario_dict, "priority": priority,
                          "deadline_s": deadline_s})

    def close(self) -> None:
        self._log.close()

    def load(self) -> list[dict[str, Any]]:
        """Parse the log, last-write-wins per digest, torn lines skipped.

        Returns entries in first-seen order (so recovery re-enqueues in
        roughly the original arrival order).
        """
        try:
            records, _ = self._log.load()
        except (FileNotFoundError, NotADirectoryError):
            return []
        by_digest: dict[str, dict[str, Any]] = {}
        for entry in records:
            if (entry.get("type") != "request"
                    or not isinstance(entry.get("digest"), str)
                    or not isinstance(entry.get("scenario"), dict)):
                continue
            digest = entry["digest"]
            if digest in by_digest:
                by_digest[digest].update(entry)    # dedupe, keep order
            else:
                by_digest[digest] = entry
        return list(by_digest.values())

    def compact(self, pending: list[dict[str, Any]]) -> None:
        """Atomically rewrite the log to just the still-pending entries
        (everything else is committed in the result cache)."""
        self._log.compact(pending)
