"""Version skew: a checkpoint of another format generation is refused.

Resuming across formats is never safe, so a checkpoint whose digest
matches but whose ``version`` is not :data:`CHECKPOINT_VERSION` raises
:class:`CheckpointError`, and a v1, v2 or v3 file left in a campaign's
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
OLD_VERSIONS = (1, 2, 3)


def _scenario() -> Scenario:
    return Scenario(workload=BuilderSpec.make("paper", n_tasks=4),
                    sync="lockfree", seed=7, horizon=15_000_000)


def _old_checkpoint(scenario: Scenario, version: int) -> str:
    """A mid-run checkpoint whose digest matches its state but whose
    envelope says format ``version``."""
    sink: list[KernelCheckpoint] = []
    simulate(scenario, checkpoints=CheckpointPolicy(every_events=EVERY_EVENTS),
             checkpoint_sink=sink.append)
    assert len(sink) > 2
    checkpoint = sink[len(sink) // 2]
    doc = json.loads(checkpoint.to_json())
    doc["version"] = version
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("version", OLD_VERSIONS)
def test_old_format_checkpoint_with_matching_digest_is_refused(version):
    assert CHECKPOINT_VERSION == 4
    text = _old_checkpoint(_scenario(), version)
    doc = json.loads(text)
    assert doc["digest"] == KernelCheckpoint.wrap(doc["state"]).digest
    with pytest.raises(CheckpointError, match=f"v{version}"):
        KernelCheckpoint.from_json(text)


@pytest.mark.parametrize("version", OLD_VERSIONS)
def test_old_format_file_in_the_store_is_quarantined_and_the_trial_restarts(
        tmp_path, version):
    scenario = _scenario()
    store = CheckpointStore(tmp_path)
    text = _old_checkpoint(scenario, version)
    # The name a v1, v2 or v3 writer gave the trial's one checkpoint file.
    legacy = tmp_path / "trial-0.ckpt.json"
    assert store.checkpoint_path(0) == legacy
    legacy.write_text(text + "\n", encoding="utf-8")
    spec = TrialSpec(index=0, fn=simulate_scenario_trial,
                     args=(scenario.to_dict(),),
                     kwargs=(("every_events", EVERY_EVENTS),))
    config = CampaignConfig(workers=1, checkpoint_dir=str(tmp_path))
    with CampaignEngine(config, tag="t") as engine:
        outcome = engine.run([spec]).outcomes[0]
    assert len(store.quarantined()) == 1
    assert not store.checkpoint_path(0).exists()
    # A clean attempt's lineage comes back beside its value.
    assert outcome.recovery["lineage"][0]["resumed"] is False
    assert outcome.recovery["lineage"][-1]["completed"] is True
    clean = simulate_scenario_trial(scenario.to_dict())
    assert json.dumps(outcome.value, sort_keys=True) == \
        json.dumps(clean, sort_keys=True)
