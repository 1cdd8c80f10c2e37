"""Campaign-layer fault injection.

PR 1 gave the simulated kernel a seeded fault plan; this is the same idea
one layer up.  A :class:`ChaosPlan` rides inside the (picklable)
:class:`repro.campaign.spec.CampaignConfig` and fires *inside the trial
wrapper*, before the real trial function runs:

* ``crash`` — the worker process dies via ``os._exit`` (serially, a
  :class:`~repro.campaign.spec.SimulatedWorkerCrash` is raised instead,
  since a real exit would not be isolated);
* ``kill9`` — the worker sends itself a real, unhandled ``SIGKILL``
  (the harshest death the OS offers: no atexit hooks, no buffered-IO
  flush; serially it degrades to the same simulated crash as ``crash``);
* ``hang`` — the wrapper sleeps past the campaign's per-trial timeout;
* ``transient`` — a :class:`~repro.campaign.spec.TransientTrialError`
  is raised.

Faults fire only on a trial's first attempt, so a retrying engine
recovers and the campaign's *results* stay identical to
a fault-free run — which is exactly the property the integration tests
assert.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from repro.campaign.spec import SimulatedWorkerCrash, TransientTrialError


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic campaign-layer faults, keyed by global trial index."""

    crash: tuple[int, ...] = ()
    kill9: tuple[int, ...] = ()
    hang: tuple[int, ...] = ()
    transient: tuple[int, ...] = ()
    hang_seconds: float = 60.0

    @property
    def empty(self) -> bool:
        return not (self.crash or self.kill9 or self.hang or self.transient)

    def fire(self, index: int, attempt: int, *, in_worker: bool) -> None:
        """Inject the planned fault for ``(index, attempt)``, if any."""
        if attempt != 0:
            return
        if index in self.kill9:
            if in_worker:
                os.kill(os.getpid(), signal.SIGKILL)
            raise SimulatedWorkerCrash(
                f"chaos: injected kill -9 in trial {index}")
        if index in self.crash:
            if in_worker:
                os._exit(13)     # simulate a hard worker death
            raise SimulatedWorkerCrash(
                f"chaos: injected crash in trial {index}")
        if index in self.transient:
            raise TransientTrialError(
                f"chaos: injected transient failure in trial {index}")
        if index in self.hang:
            # Sleep long enough for the engine's timeout to fire; the
            # trial then completes normally, but its abandoned result is
            # discarded with the killed worker pool.
            time.sleep(self.hang_seconds)
