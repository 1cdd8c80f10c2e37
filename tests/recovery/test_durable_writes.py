"""Which writes are durable: a clean trial fsyncs only its journal record.

A checkpoint is written by atomic rename without fsync (an OS crash can
only cost a recomputation), and a clean trial's lineage travels back
beside its value into the journal record, so a serial batch with a
journal and a checkpoint directory makes exactly the journal's fsyncs:
3 to create it (header file, its directory, the directory again on
open) and 1 per trial.  An attempt that resumes still writes its
lineage sidecar.  The serve write-ahead log and result cache keep their
fsyncs.
"""

import json
import os

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignEngine,
    CheckpointStore,
    TrialSpec,
    simulate_scenario_trial,
)
from repro.experiments.workloads import BuilderSpec
from repro.scenario import Scenario
from repro.serve.cache import ResultCache
from repro.serve.wal import RequestLog

JOURNAL_CREATE_FSYNCS = 3


@pytest.fixture
def fsyncs(monkeypatch):
    """Count every ``os.fsync`` this process makes."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


def _spec(index, seed, **kwargs):
    scenario = Scenario(workload=BuilderSpec.make("paper", n_tasks=4),
                        sync="lockfree" if index % 2 == 0 else "lockbased",
                        seed=seed, horizon=15_000_000)
    return TrialSpec(index=index, fn=simulate_scenario_trial,
                     args=(scenario.to_dict(),),
                     kwargs=tuple(sorted({"every_events": 50,
                                          **kwargs}.items())))


def _journal_trials(path):
    return [entry for entry in map(json.loads,
                                   path.read_text().splitlines())
            if entry.get("type") == "trial"]


def test_clean_serial_batch_fsyncs_only_the_journal(tmp_path, fsyncs):
    specs = [_spec(index, 40 + index) for index in range(3)]
    config = CampaignConfig(workers=1, journal=str(tmp_path / "j.jsonl"),
                            checkpoint_dir=str(tmp_path / "ck"))
    with CampaignEngine(config, tag="fsync-count") as engine:
        result = engine.run(specs)
    assert result.ok
    assert all(o.recovery["checkpoints_written"] > 0
               for o in result.outcomes)
    assert len(fsyncs) == JOURNAL_CREATE_FSYNCS + len(specs)
    # Every checkpoint was cleared and no sidecar was written.
    assert list((tmp_path / "ck").iterdir()) == []


def test_resumed_attempt_writes_its_sidecar_and_journal_lineage(tmp_path):
    journal = tmp_path / "journal.jsonl"
    config = CampaignConfig(workers=2, max_attempts=3,
                            journal=str(journal),
                            checkpoint_dir=str(tmp_path / "ck"))
    with CampaignEngine(config, tag="resume-lineage") as engine:
        outcome = engine.run([_spec(0, 7, crash_after_checkpoints=2)]
                             ).outcomes[0]
    assert outcome.ok, outcome.failures
    assert [f.kind for f in outcome.failures] == ["crash"]

    [sidecar] = CheckpointStore(tmp_path / "ck").lineage(0)
    assert sidecar["attempt"] == 1 and sidecar["resumed"] is True

    [trial] = _journal_trials(journal)
    recovery = trial["recovery"]
    assert recovery == outcome.recovery
    first, resumed, completed = recovery["lineage"]
    assert first == {"attempt": 0, "resumed": False, "resume_clock": None,
                     "resume_events": None}
    assert resumed == sidecar
    assert resumed["resume_clock"] > 0 and resumed["resume_events"] > 0
    assert completed["attempt"] == 1 and completed["completed"] is True
    assert completed["checkpoints_written"] == \
        recovery["checkpoints_written"] > 0
    assert recovery["resumed_attempts"] == 1
    assert recovery["resume_simns_saved"] == resumed["resume_clock"]


def test_serve_wal_append_and_cache_put_stay_durable(tmp_path, fsyncs):
    log = RequestLog(tmp_path / "wal.jsonl")
    log.append("ab" * 32, {"seed": 1})         # opens: directory + record
    opened = len(fsyncs)
    log.append("cd" * 32, {"seed": 2})
    log.close()
    assert len(fsyncs) - opened == 1

    before = len(fsyncs)
    assert ResultCache(tmp_path / "cache").put("ef" * 32, {"aur": 1.0})
    assert len(fsyncs) - before == 2           # the file and its directory
