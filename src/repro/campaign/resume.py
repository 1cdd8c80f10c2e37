"""Sub-trial resume: per-trial kernel checkpoints for campaign retries.

PR 2's retry path restarts a crashed, timed-out or transiently failed
trial *from seed zero*.  This module lets a resumable trial function
persist mid-run :class:`~repro.sim.checkpoint.KernelCheckpoint`\\ s under
a per-trial path, so the retry resumes from the last valid checkpoint
instead — with the PR 5 equivalence guarantee that the resumed result is
byte-identical to an uninterrupted run.

Pieces:

* :class:`CheckpointStore` — durable per-trial-index checkpoint files
  (``trial-<gidx>.ckpt.json``) in a
  :class:`~repro.campaign.io.VerifiedStore`, written atomically so a
  mid-write kill can never tear one.  A corrupt or tampered checkpoint
  is **quarantined** (moved into ``quarantine/`` for post-mortem, like
  the serve result cache) and reported as absent, so the retry falls
  back to from-zero instead of trusting it.
  The store also keeps a per-trial *lineage* sidecar recording every
  attempt — whether it resumed, from which simulated clock, how many
  checkpoints it wrote — which the engine folds into the journal.
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
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.campaign.io import VerifiedStore
from repro.sim.checkpoint import CheckpointPolicy, KernelCheckpoint

__all__ = ["CheckpointStore", "TrialContext", "simulate_scenario_trial"]


@dataclass(frozen=True)
class TrialContext:
    """What a resumable trial needs to know about its execution slot."""

    index: int              # global trial index (stable across retries)
    attempt: int            # 0-based attempt number of this execution
    checkpoint_dir: str     # CheckpointStore root


class CheckpointStore(VerifiedStore):
    """Per-trial checkpoint + lineage files under one directory."""

    def checkpoint_path(self, index: int) -> Path:
        return self.root / f"trial-{index}.ckpt.json"

    def lineage_path(self, index: int) -> Path:
        return self.root / f"trial-{index}.lineage.json"

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def save(self, index: int, checkpoint: KernelCheckpoint) -> None:
        """Durably persist the trial's latest checkpoint (atomic
        replace; a ``kill -9`` leaves either the previous checkpoint or
        the complete new one, never a torn hybrid)."""
        self.write(self.checkpoint_path(index), checkpoint.to_json() + "\n")

    def load(self, index: int) -> KernelCheckpoint | None:
        """The trial's last *valid* checkpoint, or None.

        A checkpoint that fails decode or digest verification is moved
        to ``quarantine/`` and reported as absent — the caller restarts
        from zero rather than resuming corrupt state.
        """
        return self.read(self.checkpoint_path(index),
                         KernelCheckpoint.from_json)

    def clear(self, index: int) -> None:
        """Drop the trial's checkpoint (called on success; the lineage
        sidecar is kept as the journal's evidence trail)."""
        try:
            self.checkpoint_path(index).unlink(missing_ok=True)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass

    # ------------------------------------------------------------------
    # Lineage
    # ------------------------------------------------------------------

    def note_attempt(self, index: int, entry: dict[str, Any]) -> None:
        """Append one attempt record to the trial's lineage sidecar."""
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
    checkpoints have been durably written — a real, unhandled worker
    death mid-trial.
    """
    from repro.api import simulate
    from repro.scenario import Scenario
    from repro.serve.pool import result_payload

    scenario = Scenario.from_dict(scenario_dict)
    if _trial is None:
        return result_payload(scenario, simulate(scenario))

    store = CheckpointStore(_trial.checkpoint_dir)
    resume_from = store.load(_trial.index)
    store.note_attempt(_trial.index, {
        "attempt": _trial.attempt,
        "resumed": resume_from is not None,
        "resume_clock": None if resume_from is None else resume_from.clock,
        "resume_events": (None if resume_from is None
                          else resume_from.events_handled),
    })
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
    store.note_attempt(_trial.index, {
        "attempt": _trial.attempt,
        "completed": True,
        "checkpoints_written": written,
    })
    store.clear(_trial.index)
    return result_payload(scenario, summary)


#: The engine injects ``_trial=`` into functions carrying this marker.
simulate_scenario_trial.wants_trial_context = True
