"""Version skew: a checkpoint of another format generation is refused.

Resuming across formats is never safe, so a checkpoint whose digest
matches but whose ``version`` is not :data:`CHECKPOINT_VERSION` raises
:class:`CheckpointError`, and a v1 file left in a campaign's
:class:`CheckpointStore` is quarantined: the trial restarts from zero
and returns the payload a clean run returns.
"""

import json

import pytest

from repro.api import simulate
from repro.campaign import (CampaignConfig, CampaignEngine, CheckpointStore,
                            TrialSpec, simulate_scenario_trial)
from repro.experiments.workloads import BuilderSpec
from repro.scenario import Scenario
from repro.sim.checkpoint import (CHECKPOINT_VERSION, CheckpointError,
                                  CheckpointPolicy, KernelCheckpoint)

EVERY_EVENTS = 50


def _scenario() -> Scenario:
    return Scenario(workload=BuilderSpec.make("paper", n_tasks=4),
                    sync="lockfree", seed=7, horizon=15_000_000)


def _v1_text(scenario: Scenario) -> str:
    """A mid-run checkpoint whose digest matches its state but whose
    envelope says format v1."""
    sink: list[KernelCheckpoint] = []
    simulate(scenario, checkpoints=CheckpointPolicy(every_events=EVERY_EVENTS),
             checkpoint_sink=sink.append)
    assert len(sink) > 2
    checkpoint = sink[len(sink) // 2]
    doc = json.loads(checkpoint.to_json())
    doc["version"] = 1
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_v1_checkpoint_with_matching_digest_is_refused():
    assert CHECKPOINT_VERSION == 2
    text = _v1_text(_scenario())
    doc = json.loads(text)
    assert doc["digest"] == KernelCheckpoint.wrap(doc["state"]).digest
    with pytest.raises(CheckpointError, match="v1"):
        KernelCheckpoint.from_json(text)


def test_v1_file_in_the_store_is_quarantined_and_the_trial_restarts(
        tmp_path):
    scenario = _scenario()
    store = CheckpointStore(tmp_path)
    store.checkpoint_path(0).write_text(_v1_text(scenario) + "\n",
                                        encoding="utf-8")
    spec = TrialSpec(index=0, fn=simulate_scenario_trial,
                     args=(scenario.to_dict(),),
                     kwargs=(("every_events", EVERY_EVENTS),))
    config = CampaignConfig(workers=1, checkpoint_dir=str(tmp_path))
    with CampaignEngine(config, tag="t") as engine:
        outcome = engine.run([spec]).outcomes[0]
    assert len(store.quarantined()) == 1
    # A clean attempt's lineage comes back beside its value.
    assert outcome.recovery["lineage"][0]["resumed"] is False
    assert outcome.recovery["lineage"][-1]["completed"] is True
    clean = simulate_scenario_trial(scenario.to_dict())
    assert json.dumps(outcome.value, sort_keys=True) == \
        json.dumps(clean, sort_keys=True)
