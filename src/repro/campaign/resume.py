"""Sub-trial resume: per-trial kernel checkpoints for campaign retries.

PR 2's retry path restarts a crashed, timed-out or transiently failed
trial *from seed zero*.  This module lets a resumable trial function
persist mid-run :class:`~repro.sim.checkpoint.KernelCheckpoint`\\ s under
a per-trial path, so the retry resumes from the last valid checkpoint
instead — with the PR 5 equivalence guarantee that the resumed result is
byte-identical to an uninterrupted run.

Pieces:

* :class:`CheckpointStore` — per-trial-index checkpoint files
  (``trial-<gidx>.ckpt.json``) in a
  :class:`~repro.campaign.io.VerifiedStore`, written by atomic rename
  without fsync, so a mid-write kill can never tear one and an OS crash
  costs at most a recomputation.  A corrupt, torn or tampered checkpoint
  is **quarantined** (moved into ``quarantine/`` for post-mortem, like
  the serve result cache) and reported as absent, so the retry falls
  back to from-zero instead of trusting it.
* *Lineage* — each attempt notes whether it resumed and from which
  simulated clock, and on completion how many checkpoints it wrote.
  The notes travel back beside the trial's value (:func:`run_attempt`)
  and the engine folds them into the journal record.  Only an attempt
  that resumes also writes its start note to the trial's fsynced
  lineage sidecar, so the record of a retry that later dies survives
  for the journal; a non-resumed attempt's note is fully determined by
  its attempt number (:func:`start_note`).
* :class:`TrialContext` — the frozen, picklable handle the engine
  injects (keyword ``_trial=``) into trial functions that declare
  ``wants_trial_context = True``.
* :func:`simulate_scenario_trial` — the canonical resumable trial: runs
  one wire-format :class:`~repro.scenario.Scenario` to the same
  canonical result payload the serve layer caches, checkpointing as it
  goes.  Its crash knobs (``crash_after_checkpoints``) let tests and the
  recovery harness kill a worker with real ``SIGKILL`` mid-trial.

Recovery metadata never enters the trial's *value* — the payload stays
a pure function of the scenario, so resumed and from-zero campaigns
byte-compare equal and the serve ``--verify`` contract holds.
"""

from __future__ import annotations

import json
import os
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.campaign.io import VerifiedStore
from repro.sim.checkpoint import CheckpointPolicy, KernelCheckpoint

__all__ = ["CheckpointStore", "TrialContext", "simulate_scenario_trial"]


@dataclass(frozen=True)
class TrialContext:
    """What a resumable trial needs to know about its execution slot."""

    index: int              # global trial index (stable across retries)
    attempt: int            # 0-based attempt number of this execution
    checkpoint_dir: str     # CheckpointStore root
    #: This attempt's lineage notes, filled in by the trial in its worker
    #: and returned beside its value by :func:`run_attempt`.
    notes: list[dict[str, Any]] = field(default_factory=list,
                                        compare=False, repr=False)


def run_attempt(context: TrialContext, fn: Callable[..., Any],
                args: tuple, kwargs: dict[str, Any]
                ) -> tuple[Any, list[dict[str, Any]]]:
    """One checkpointing attempt, run where the trial runs:
    ``(value, notes)``, so the lineage never enters the value."""
    value = fn(*args, _trial=context, **kwargs)
    return value, context.notes


def start_note(attempt: int,
               resume_from: KernelCheckpoint | None = None
               ) -> dict[str, Any]:
    """The lineage note that opens an attempt."""
    return {
        "attempt": attempt,
        "resumed": resume_from is not None,
        "resume_clock": None if resume_from is None else resume_from.clock,
        "resume_events": (None if resume_from is None
                          else resume_from.events_handled),
    }


class CheckpointStore(VerifiedStore):
    """Per-trial checkpoint files, and lineage sidecars for resumed
    attempts, under one directory."""

    def checkpoint_path(self, index: int) -> Path:
        return self.root / f"trial-{index}.ckpt.json"

    def lineage_path(self, index: int) -> Path:
        return self.root / f"trial-{index}.lineage.json"

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def save(self, index: int, checkpoint: KernelCheckpoint) -> None:
        """Persist the trial's latest checkpoint by atomic replace,
        without fsync: a ``kill -9`` leaves either the previous
        checkpoint or the complete new one, never a torn hybrid; a file
        an OS crash tears fails :meth:`load` and the trial restarts."""
        self.write(self.checkpoint_path(index), checkpoint.to_json() + "\n",
                   durable=False)

    def load(self, index: int) -> KernelCheckpoint | None:
        """The trial's last *valid* checkpoint, or None.

        A checkpoint that fails decode or digest verification is moved
        to ``quarantine/`` and reported as absent — the caller restarts
        from zero rather than resuming corrupt state.
        """
        return self.read(self.checkpoint_path(index),
                         KernelCheckpoint.from_json)

    def clear(self, index: int) -> None:
        """Drop the trial's checkpoint (called on success; a lineage
        sidecar is kept as the evidence trail of its resumes)."""
        try:
            self.checkpoint_path(index).unlink(missing_ok=True)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass

    # ------------------------------------------------------------------
    # Lineage
    # ------------------------------------------------------------------

    def note_attempt(self, index: int, entry: dict[str, Any]) -> None:
        """Durably append one attempt record to the trial's lineage
        sidecar."""
        lineage = self.lineage(index)
        lineage.append(entry)
        self.write(self.lineage_path(index),
                   json.dumps(lineage, sort_keys=True) + "\n")

    def lineage(self, index: int) -> list[dict[str, Any]]:
        """The trial's attempt records, oldest first.  A sidecar that is
        torn or not a JSON list is quarantined and read as empty, so the
        next attempt starts a fresh list beside the evidence."""
        return self.read(self.lineage_path(index), _decode_lineage) or []


def _decode_lineage(text: str) -> list[dict[str, Any]]:
    doc = json.loads(text)
    if not isinstance(doc, list):
        raise ValueError("lineage sidecar is not a JSON list")
    return doc


def simulate_scenario_trial(scenario_dict: dict[str, Any],
                            every_events: int = 200,
                            crash_after_checkpoints: int | None = None,
                            crash_on_attempt: int = 0,
                            _trial: TrialContext | None = None
                            ) -> dict[str, Any]:
    """Run one wire-format Scenario as a crash-recoverable trial.

    Returns the canonical result payload (the exact dict the serve layer
    caches), a pure function of the scenario — resumed or not.  When the
    engine injects a :class:`TrialContext` (``CampaignConfig
    .checkpoint_dir`` is set), the trial resumes from its last valid
    checkpoint and persists fresh checkpoints every ``every_events``
    kernel events.

    ``crash_after_checkpoints`` (test/harness hook): on attempt
    ``crash_on_attempt``, the process SIGKILLs itself after that many
    checkpoints have been written — a real, unhandled worker death
    mid-trial.
    """
    from repro.api import simulate
    from repro.scenario import Scenario
    from repro.serve.pool import result_payload

    scenario = Scenario.from_dict(scenario_dict)
    if _trial is None:
        return result_payload(scenario, simulate(scenario))

    store = CheckpointStore(_trial.checkpoint_dir)
    resume_from = store.load(_trial.index)
    note = start_note(_trial.attempt, resume_from)
    if resume_from is not None:
        store.note_attempt(_trial.index, note)
    _trial.notes.append(note)
    written = 0

    def sink(checkpoint: KernelCheckpoint) -> None:
        nonlocal written
        store.save(_trial.index, checkpoint)
        written += 1
        if (crash_after_checkpoints is not None
                and _trial.attempt == crash_on_attempt
                and written >= crash_after_checkpoints):
            os.kill(os.getpid(), signal.SIGKILL)

    summary = simulate(scenario,
                       checkpoints=CheckpointPolicy(
                           every_events=every_events),
                       checkpoint_sink=sink,
                       resume_from=resume_from)
    _trial.notes.append({
        "attempt": _trial.attempt,
        "completed": True,
        "checkpoints_written": written,
    })
    store.clear(_trial.index)
    return result_payload(scenario, summary)


#: The engine injects ``_trial=`` into functions carrying this marker.
simulate_scenario_trial.wants_trial_context = True
