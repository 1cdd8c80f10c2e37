"""Write-ahead campaign journal: append-only JSONL checkpoints.

Every completed trial is recorded as one JSON line carrying the trial's
global index and its pickled value (base64, so the journal stays a text
file).  The header line pins a ``tag`` — a fingerprint of the campaign
(command, figure, base seed) — so a journal cannot silently be resumed
into a different campaign.

Durability model (the file is a :class:`repro.campaign.io.AppendLog`):

* the header is created atomically (:func:`repro.campaign.io.atomic_write`)
  and every open fsyncs the parent directory, so the journal's very
  existence survives a crash immediately after open;
* each record append is flushed and fsynced before the engine considers
  the trial checkpointed (write-ahead: the journal entry lands before
  the result is surfaced to aggregation);
* a torn trailing line — the signature of a mid-write kill — is
  terminated on open and ignored on load, so ``--resume`` after a crash
  just re-runs the trial whose record was cut short.

Because every trial's RNG stream depends only on ``(base_seed,
trial_index)`` (DESIGN.md §9), a resumed campaign reproduces the
uninterrupted campaign exactly: journaled trials are replayed from disk
and the rest are recomputed from their own seeds.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.campaign.io import AppendLog, atomic_write
from repro.campaign.spec import TrialFailure, TrialOutcome

_VERSION = 1


class JournalError(RuntimeError):
    """Unusable journal: bad header, or tag mismatch on resume."""


@dataclass
class JournalSnapshot:
    """Parsed journal contents: completed values plus failure records."""

    tag: str = ""
    values: dict[int, Any] = field(default_factory=dict)
    failed: dict[int, list[TrialFailure]] = field(default_factory=dict)
    torn_lines: int = 0

    @property
    def completed(self) -> int:
        return len(self.values)


def _encode_value(value: Any) -> str:
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _decode_value(payload: str) -> Any:
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


class CampaignJournal:
    """Append-side of the journal.  Open via :meth:`open`, feed it
    terminal :class:`TrialOutcome`\\ s via :meth:`record`."""

    def __init__(self, log: AppendLog) -> None:
        self.path = log.path
        self._log = log

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path: str | os.PathLike, tag: str) -> "CampaignJournal":
        """Open ``path`` for appending, creating it (atomically, header
        first) when absent.  An existing journal must carry the same
        ``tag``; appending to a journal from a different campaign is an
        error, not a silent corruption."""
        target = Path(path)
        header = {"type": "header", "version": _VERSION, "tag": tag}
        reheader = False
        if target.exists() and target.stat().st_size > 0:
            snapshot = load_journal(target)
            if snapshot.tag and snapshot.tag != tag:
                raise JournalError(
                    f"journal {target} belongs to campaign "
                    f"{snapshot.tag!r}, not {tag!r}")
            # A headerless journal (the tag line itself was lost to a
            # torn write) is re-pinned: append a fresh header so later
            # resumes get their tag check back.
            reheader = not snapshot.tag
        else:
            atomic_write(target, json.dumps(header, sort_keys=True) + "\n")
        log = AppendLog(target)
        log.open()
        if reheader:
            log.append(header)
        return cls(log)

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def record(self, outcome: TrialOutcome) -> None:
        """Append one terminal trial outcome, write-ahead durable."""
        entry: dict[str, Any] = {
            "type": "trial",
            "index": outcome.index,
            "ok": outcome.ok,
            "attempts": outcome.attempts,
            "failures": [f.to_dict() for f in outcome.failures],
        }
        if outcome.recovery is not None:
            entry["recovery"] = outcome.recovery
        if outcome.ok:
            entry["payload"] = _encode_value(outcome.value)
        self._log.append(entry)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------

def load_journal(path: str | os.PathLike) -> JournalSnapshot:
    """Parse a journal, tolerating torn lines.

    A torn trailing record — the signature of a mid-write kill — is
    counted and skipped.  A journal whose *header* line is also gone
    (killed during creation, before any record decoded) loads as an
    empty snapshot with ``tag == ""`` so ``--resume`` starts cleanly
    instead of raising.  Decodable trial records with no header are
    corruption, not interruption, and still raise
    :class:`JournalError` (the tag cannot be trusted).
    """
    target = Path(path)
    try:
        records, torn = AppendLog(target).load()
    except FileNotFoundError as exc:
        raise JournalError(f"journal {target} does not exist") from exc
    if not records and not torn:
        raise JournalError(f"journal {target} is empty")
    # A torn line is only legitimate where a mid-write kill cut it
    # (typically the tail — or the header itself, when the kill landed
    # during journal creation); just count it and move on.
    snapshot = JournalSnapshot(torn_lines=torn)
    have_header = False
    for entry in records:
        kind = entry.get("type")
        if kind == "header":
            if have_header:
                continue              # only the first header pins the tag
            if entry.get("version") != _VERSION:
                raise JournalError(
                    f"journal {target} has unsupported version "
                    f"{entry.get('version')!r}")
            snapshot.tag = entry.get("tag", "")
            have_header = True
            continue
        if kind != "trial":
            continue
        try:
            index = int(entry["index"])
            if entry.get("ok"):
                snapshot.values[index] = _decode_value(entry["payload"])
                snapshot.failed.pop(index, None)
            else:
                snapshot.failed[index] = [
                    TrialFailure(**f) for f in entry.get("failures", [])
                ]
        except (KeyError, ValueError, TypeError, pickle.UnpicklingError,
                EOFError):
            snapshot.torn_lines += 1
    if not have_header and (snapshot.values or snapshot.failed):
        # Decodable trial records but no header: that is corruption (or
        # a foreign file), not a torn write — refuse to guess the tag.
        raise JournalError(f"journal {target} has no valid header")
    return snapshot
