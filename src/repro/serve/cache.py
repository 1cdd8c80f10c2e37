"""Content-addressed simulation-result store.

Results are keyed by :meth:`repro.scenario.Scenario.digest` — a stable
SHA-256 of the scenario's canonical encoding — so a cache hit *is* a
correctness claim: equal digests mean equal declarative scenarios mean
byte-identical ``simulate(scenario)`` output at a fixed code version.
The store therefore refuses to serve anything it cannot re-verify:

* every entry is an envelope ``{digest, payload, payload_sha256}`` in a
  :class:`repro.campaign.io.VerifiedStore` (written atomically: readers
  see either the old entry or the complete new one, never a torn
  hybrid);
* every read re-verifies both the addressed digest and the payload
  checksum; a torn, truncated, bit-flipped or mis-filed entry is
  **quarantined** (moved aside for post-mortem) and reported as a miss,
  so the service recomputes instead of serving garbage;
* the cache directory disappearing mid-run (operator ``rm -rf``, tmpfs
  reaped) degrades to recompute-and-rewrite — never to a failed request.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.campaign.io import VerifiedStore

__all__ = ["ResultCache", "canonical_payload_json", "payload_checksum"]


def canonical_payload_json(payload: dict[str, Any]) -> str:
    """Canonical JSON encoding of a result payload (sorted keys, no
    whitespace) — the byte form that is checksummed, cached and served,
    so every 200 response for a digest is byte-identical."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload: dict[str, Any]) -> str:
    return hashlib.sha256(
        canonical_payload_json(payload).encode("utf-8")).hexdigest()


class ResultCache(VerifiedStore):
    """Digest-addressed result store under one root directory.

    Layout: ``root/<digest[:2]>/<digest>.json`` (two-level fan-out keeps
    directory listings sane at millions of entries); quarantined entries
    land under ``root/quarantine/``.  All methods are thread-safe; the
    only shared mutable state is the stats counters.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        super().__init__(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def path_for(self, digest: str) -> Path:
        if len(digest) != 64 or set(digest) - set("0123456789abcdef"):
            raise ValueError(f"not a SHA-256 hex digest: {digest!r}")
        return self.root / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def get(self, digest: str) -> dict[str, Any] | None:
        """The verified payload for ``digest``, or ``None`` (miss).

        Any defect — unreadable file, bad JSON, digest mismatch,
        checksum mismatch — quarantines the entry and reports a miss:
        the caller recomputes and overwrites, so corruption degrades to
        extra work, never to a wrong or failed response.
        """
        def verify(raw: str) -> dict[str, Any]:
            envelope = json.loads(raw)
            payload = envelope["payload"]
            if envelope["digest"] != digest:
                raise ValueError("entry addressed under the wrong digest")
            if envelope["payload_sha256"] != payload_checksum(payload):
                raise ValueError("payload checksum mismatch")
            return payload

        payload = self.read(self.path_for(digest), verify)
        with self._lock:
            if payload is None:
                self.misses += 1
            else:
                self.hits += 1
        return payload

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def put(self, digest: str, payload: dict[str, Any]) -> Path | None:
        """Store ``payload`` under ``digest`` (atomic replace).

        Best-effort: a write that cannot land (disk gone, permissions)
        is swallowed — the service's answer was already computed and the
        next request simply recomputes.
        """
        path = self.path_for(digest)
        envelope = {
            "digest": digest,
            "payload": payload,
            "payload_sha256": payload_checksum(payload),
        }
        try:
            self.write(path, json.dumps(envelope, sort_keys=True,
                                        separators=(",", ":")) + "\n")
        except OSError:
            return None
        with self._lock:
            self.writes += 1
        return path

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        with self._lock:
            hits, misses = self.hits, self.misses
            stats = {
                "hits": hits,
                "misses": misses,
                "corrupt": self.corrupt,
                "writes": self.writes,
            }
        lookups = hits + misses
        stats["hit_rate"] = (hits / lookups) if lookups else 0.0
        return stats
