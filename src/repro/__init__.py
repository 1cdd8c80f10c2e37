"""Reproduction of *Lock-Free Synchronization for Dynamic Embedded Real-Time
Systems* (Cho, Ravindran, Jensen — DATE 2006, extended June 2007).

The package implements, from scratch:

* the task model of the paper — Time/Utility Functions (:mod:`repro.tuf`),
  the Unimodal Arbitrary arrival Model (:mod:`repro.arrivals`), and the
  job/segment abstraction (:mod:`repro.tasks`);
* a deterministic discrete-event uniprocessor RTOS simulator that replaces
  the paper's QNX Neutrino testbed (:mod:`repro.sim`);
* the paper's core contribution, the Resource-constrained Utility Accrual
  scheduler in both lock-based and lock-free variants, plus EDF/LLF
  baselines (:mod:`repro.core`);
* real lock-free data structures (Michael–Scott queue, Treiber stack)
  executing over a cooperative-interleaving VM with genuine CAS semantics
  (:mod:`repro.lockfree`);
* the analytical results — the Theorem 2 retry bound, the Theorem 3 sojourn
  comparison and the Lemma 4/5 AUR bounds (:mod:`repro.analysis`);
* the experiment harness regenerating every figure of the paper's
  evaluation (:mod:`repro.experiments`).

Quickstart::

    from repro import quick_simulation

    result = quick_simulation(n_tasks=5, n_objects=3, sync="lockfree",
                              load=0.8, horizon_us=200_000, seed=42)
    print(result.aur, result.cmr)
"""

from repro._lazy import lazy_exports
from repro._version import __version__

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.scenario": ("Scenario",),
    "repro.api": ("simulate", "quick_scenario", "quick_simulation",
                  "SimulationSummary"),
    "repro.campaign.spec": ("CampaignConfig",),
    "repro.campaign.engine": ("CampaignEngine",),
    "repro.campaign.io": ("atomic_write",),
})
__all__.insert(0, "__version__")
