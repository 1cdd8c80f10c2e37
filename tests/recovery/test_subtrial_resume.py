"""Campaign sub-trial resume: checkpoint store, SIGKILL retry, lineage.

The parallel tests kill a real worker process with an unhandled
``SIGKILL`` mid-trial (via ``simulate_scenario_trial``'s crash hook) and
assert the PR 2 retry path resumes from the persisted checkpoint — same
value as an uninterrupted run, lineage recorded, journal annotated.
"""

import json

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignEngine,
    CheckpointStore,
    TrialSpec,
    load_journal,
    simulate_scenario_trial,
)
from repro.experiments.workloads import BuilderSpec
from repro.scenario import Scenario
from repro.sim.checkpoint import CheckpointPolicy, KernelCheckpoint


def _scenario(seed=7, sync="lockfree"):
    return Scenario(workload=BuilderSpec.make("paper", n_tasks=4),
                    sync=sync, seed=seed, horizon=15_000_000)


def _spec(scenario, index=0, **kwargs):
    return TrialSpec(index=index, fn=simulate_scenario_trial,
                     args=(scenario.to_dict(),),
                     kwargs=tuple(sorted({"every_events": 50,
                                          **kwargs}.items())))


def _baseline(scenario):
    with CampaignEngine(CampaignConfig(workers=1), tag="t") as eng:
        return eng.run([_spec(scenario)]).values[0]


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        sink: list = []
        from repro.api import simulate
        simulate(_scenario(), checkpoints=CheckpointPolicy(every_events=50),
                 checkpoint_sink=sink.append)
        store.save(3, sink[-1])
        loaded = store.load(3)
        assert isinstance(loaded, KernelCheckpoint)
        assert loaded.digest == sink[-1].digest

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.checkpoint_path(5).parent.mkdir(parents=True, exist_ok=True)
        store.checkpoint_path(5).write_text("{torn", encoding="utf-8")
        assert store.load(5) is None
        assert not store.checkpoint_path(5).exists()
        assert store.quarantined()
        # Repeated corruption does not collide on the quarantine name.
        store.checkpoint_path(5).write_text("also bad", encoding="utf-8")
        assert store.load(5) is None
        assert len(store.quarantined()) == 2

    def test_tampered_digest_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path)
        sink: list = []
        from repro.api import simulate
        simulate(_scenario(), checkpoints=CheckpointPolicy(every_events=50),
                 checkpoint_sink=sink.append)
        store.save(0, sink[-1])
        path = store.checkpoint_path(0)
        doc = json.loads(path.read_text())
        doc["state"]["clock"] += 1
        path.write_text(json.dumps(doc))
        assert store.load(0) is None
        assert store.quarantined()

    def test_lineage_appends(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.note_attempt(2, {"attempt": 0, "resumed": False})
        store.note_attempt(2, {"attempt": 1, "resumed": True})
        lineage = store.lineage(2)
        assert [e["attempt"] for e in lineage] == [0, 1]
        assert store.lineage(99) == []

    @pytest.mark.parametrize("text", ['[{"attempt": 0}, {"attem',
                                      '{"attempt": 0}'])
    def test_bad_lineage_quarantined_not_overwritten(self, tmp_path, text):
        """A torn or non-list sidecar is kept as evidence in
        ``quarantine/``; the next attempt starts a fresh list."""
        store = CheckpointStore(tmp_path)
        path = store.lineage_path(4)
        path.write_text(text, encoding="utf-8")
        store.note_attempt(4, {"attempt": 1})
        assert store.lineage(4) == [{"attempt": 1}]
        assert store.corrupt == 1
        [kept] = store.quarantined()
        assert kept.name.startswith(path.name)
        assert kept.read_text(encoding="utf-8") == text


class TestSerialResume:
    def test_checkpointed_value_matches_plain(self, tmp_path):
        scenario = _scenario()
        base = _baseline(scenario)
        cfg = CampaignConfig(workers=1, checkpoint_dir=str(tmp_path))
        with CampaignEngine(cfg, tag="t") as eng:
            result = eng.run([_spec(scenario)])
        outcome = result.outcomes[0]
        assert outcome.ok
        assert json.dumps(outcome.value, sort_keys=True) == \
            json.dumps(base, sort_keys=True)
        assert outcome.recovery["checkpoints_written"] > 0
        assert outcome.recovery["resumed_attempts"] == 0
        # The lineage travels with the value; success clears the
        # checkpoint, and a clean trial writes no sidecar.
        assert outcome.recovery["lineage"]
        assert list(tmp_path.iterdir()) == []

    def test_without_checkpoint_dir_no_recovery(self):
        scenario = _scenario()
        with CampaignEngine(CampaignConfig(workers=1), tag="t") as eng:
            outcome = eng.run([_spec(scenario)]).outcomes[0]
        assert outcome.ok
        assert outcome.recovery is None


class TestParallelSigkillResume:
    def test_sigkill_mid_trial_resumes_byte_identical(self, tmp_path):
        scenario = _scenario()
        base = _baseline(scenario)
        cfg = CampaignConfig(workers=2, max_attempts=3,
                             checkpoint_dir=str(tmp_path))
        with CampaignEngine(cfg, tag="t") as eng:
            result = eng.run([_spec(scenario, crash_after_checkpoints=2)])
        outcome = result.outcomes[0]
        assert outcome.ok, outcome.failures
        assert [f.kind for f in outcome.failures] == ["crash"]
        assert json.dumps(outcome.value, sort_keys=True) == \
            json.dumps(base, sort_keys=True)
        recovery = outcome.recovery
        assert recovery["resumed_attempts"] == 1
        assert recovery["resume_simns_saved"] > 0
        resumed_entries = [e for e in recovery["lineage"]
                           if e.get("resumed")]
        assert resumed_entries and \
            resumed_entries[0]["resume_clock"] > 0

    def test_journal_records_recovery(self, tmp_path):
        scenario = _scenario()
        journal = tmp_path / "journal.jsonl"
        cfg = CampaignConfig(workers=2, max_attempts=3,
                             checkpoint_dir=str(tmp_path / "ck"),
                             journal=str(journal))
        with CampaignEngine(cfg, tag="t") as eng:
            eng.run([_spec(scenario, crash_after_checkpoints=2)])
        lines = [json.loads(line) for line in
                 journal.read_text().splitlines()]
        trial = next(e for e in lines if e.get("type") == "trial")
        assert trial["recovery"]["resumed_attempts"] == 1
        # The loader still accepts the annotated journal.
        snapshot = load_journal(journal)
        assert snapshot.completed == 1

    def test_recovery_counters_projected(self, tmp_path):
        from repro.obs import Observer

        scenario = _scenario()
        obs = Observer()
        cfg = CampaignConfig(workers=2, max_attempts=3,
                             checkpoint_dir=str(tmp_path))
        with CampaignEngine(cfg, tag="t", observer=obs) as eng:
            eng.run([_spec(scenario, crash_after_checkpoints=2)])
        counters = obs.summary()["counters"]
        assert counters["campaign.resumed_trials"] == 1
        assert counters["campaign.checkpoints_written"] > 0
        assert counters["campaign.resume_simns_saved"] > 0

    def test_corrupt_checkpoint_falls_back_to_zero(self, tmp_path):
        scenario = _scenario()
        base = _baseline(scenario)
        store = CheckpointStore(tmp_path)
        store.checkpoint_path(0).parent.mkdir(parents=True, exist_ok=True)
        store.checkpoint_path(0).write_text("{torn mid-write",
                                            encoding="utf-8")
        cfg = CampaignConfig(workers=2, checkpoint_dir=str(tmp_path))
        with CampaignEngine(cfg, tag="t") as eng:
            outcome = eng.run([_spec(scenario)]).outcomes[0]
        assert outcome.ok
        assert json.dumps(outcome.value, sort_keys=True) == \
            json.dumps(base, sort_keys=True)
        assert store.quarantined()
        assert outcome.recovery["lineage"][0]["resumed"] is False


class TestChaosKill9:
    def test_kill9_plan_retries_to_success(self, tmp_path):
        from repro.campaign import ChaosPlan

        scenario = _scenario()
        base = _baseline(scenario)
        chaos = ChaosPlan(kill9=(0,))
        assert not chaos.empty
        cfg = CampaignConfig(workers=2, max_attempts=3, chaos=chaos,
                             checkpoint_dir=str(tmp_path))
        with CampaignEngine(cfg, tag="t") as eng:
            outcome = eng.run([_spec(scenario)]).outcomes[0]
        assert outcome.ok
        assert [f.kind for f in outcome.failures] == ["crash"]
        assert json.dumps(outcome.value, sort_keys=True) == \
            json.dumps(base, sort_keys=True)

    def test_cli_load_parses_chaos_kill9(self):
        from repro.cli import _build_parser, _chaos_from_args

        args = _build_parser().parse_args(
            ["load", "--duration", "0.1", "--chaos-kill9", "1,3"])
        chaos = _chaos_from_args(args)
        assert chaos is not None and chaos.kill9 == (1, 3)

    def test_kill9_serial_degrades_to_simulated_crash(self):
        from repro.campaign import ChaosPlan, SimulatedWorkerCrash

        with pytest.raises(SimulatedWorkerCrash):
            ChaosPlan(kill9=(4,)).fire(4, 0, in_worker=False)
        # Wrong attempt or index: no fault.
        ChaosPlan(kill9=(4,)).fire(4, 1, in_worker=False)
        ChaosPlan(kill9=(4,)).fire(5, 0, in_worker=False)
