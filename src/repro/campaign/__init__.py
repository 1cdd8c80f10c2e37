"""Resilient parallel campaign engine (DESIGN.md §9).

Every experiment entry point — :func:`repro.experiments.runner.run_many`,
the figure campaigns, the fault campaign, the benchmark harness and the
CLI — routes its seeded trials through :class:`CampaignEngine`, which
adds, on top of the plain serial loop:

* **crash isolation** — trials run in worker processes (``workers > 1``);
  a worker exception, timeout or dead process becomes a structured
  :class:`TrialFailure` in the campaign result instead of an abort;
* **per-trial timeouts** with seeded-deterministic retry + exponential
  backoff and jitter for transient failures;
* **checkpointed resume** — a write-ahead JSONL journal of completed
  trials lets an interrupted campaign continue exactly where it died,
  reproducing the uninterrupted run bit-for-bit because trial RNG
  streams depend only on ``(base_seed, trial_index)``;
* **atomic artifacts** — :func:`atomic_write` (temp file + fsync +
  ``os.replace``) so interrupts never leave truncated outputs.

``workers=1`` with no journal is byte-identical to the pre-engine serial
code paths; the resilience machinery is pay-for-what-you-use.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.campaign.chaos": ("ChaosPlan",),
    "repro.campaign.engine": ("CampaignEngine",),
    "repro.campaign.io": ("atomic_write",),
    "repro.campaign.journal": ("CampaignJournal", "JournalError",
                               "load_journal"),
    "repro.campaign.resume": ("CheckpointStore", "TrialContext",
                              "simulate_scenario_trial"),
    "repro.campaign.seeding": ("backoff_delay", "derive_seed",
                               "derive_seeds"),
    "repro.campaign.spec": (
        "RETRYABLE_KINDS", "CampaignConfig", "CampaignResult",
        "CampaignStats", "SimulatedWorkerCrash", "TransientTrialError",
        "TrialFailure", "TrialOutcome", "TrialSpec",
    ),
})
__all__.append("as_engine")


def as_engine(campaign: "CampaignConfig | CampaignEngine | None",
              tag: str = "campaign") -> "CampaignEngine | None":
    """Normalize the ``campaign=`` argument the experiment entry points
    accept: ``None`` stays ``None`` (plain serial path), a config is
    wrapped in a fresh engine, an engine is passed through."""
    if campaign is None:
        return None
    from repro.campaign.engine import CampaignEngine
    from repro.campaign.spec import CampaignConfig

    if isinstance(campaign, CampaignEngine):
        return campaign
    if isinstance(campaign, CampaignConfig):
        return CampaignEngine(campaign, tag=tag)
    raise TypeError(
        f"campaign must be CampaignConfig, CampaignEngine or None, "
        f"not {type(campaign).__name__}")
