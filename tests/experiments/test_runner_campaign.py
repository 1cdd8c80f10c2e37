"""Regression pin for the run_many seed-derivation contract.

Trial ``k`` consumes ``random.Random(seeds[k])`` and nothing else — not
shared-RNG draw order, not execution order, not worker identity.  That
contract (DESIGN.md §9) is what makes serial, parallel and resumed
campaigns interchangeable; these tests pin it against the real
simulation stack.
"""

import threading

import pytest

from repro.campaign import CampaignConfig, CampaignEngine
from repro.experiments.cml import measure_cml
from repro.experiments.runner import run_many, simulation_trial
from repro.experiments.workloads import BuilderSpec, LoadedBuilderSpec
from repro.units import MS

BUILD = BuilderSpec.make("paper", target_load=0.8)
SEEDS = [900, 901, 902]
HORIZON = 20 * MS


def _fingerprint(result):
    return (result.aur, result.cmr, result.total_retries,
            result.total_blockings, len(result.records))


class TestSeedDerivation:
    def test_each_trial_depends_only_on_its_own_seed(self):
        batch = run_many(BUILD, "lockfree", HORIZON, SEEDS)
        solo = [simulation_trial(BUILD, "lockfree", HORIZON, seed)
                for seed in SEEDS]
        assert [_fingerprint(r) for r in batch] == \
               [_fingerprint(r) for r in solo]

    def test_trial_is_insensitive_to_batch_position(self):
        forward = run_many(BUILD, "lockfree", HORIZON, SEEDS)
        backward = run_many(BUILD, "lockfree", HORIZON, SEEDS[::-1])
        assert [_fingerprint(r) for r in forward] == \
               [_fingerprint(r) for r in backward[::-1]]


class TestSerialParallelParity:
    def test_engine_serial_matches_plain_serial(self):
        plain = run_many(BUILD, "lockfree", HORIZON, SEEDS)
        engined = run_many(BUILD, "lockfree", HORIZON, SEEDS,
                           campaign=CampaignConfig(workers=1))
        assert [_fingerprint(r) for r in plain] == \
               [_fingerprint(r) for r in engined]

    def test_parallel_matches_serial(self):
        plain = run_many(BUILD, "lockfree", HORIZON, SEEDS)
        parallel = run_many(BUILD, "lockfree", HORIZON, SEEDS,
                            campaign=CampaignConfig(workers=3))
        assert [_fingerprint(r) for r in plain] == \
               [_fingerprint(r) for r in parallel]

    def test_parity_holds_for_bursty_lockbased_campaigns(self):
        kwargs = dict(arrival_style="bursty")
        plain = run_many(BUILD, "lockbased", HORIZON, SEEDS, **kwargs)
        parallel = run_many(BUILD, "lockbased", HORIZON, SEEDS,
                            campaign=CampaignConfig(workers=2), **kwargs)
        assert [_fingerprint(r) for r in plain] == \
               [_fingerprint(r) for r in parallel]


@pytest.fixture
def built_engines(monkeypatch):
    """Every CampaignEngine constructed while the test runs."""
    built = []
    init = CampaignEngine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(CampaignEngine, "__init__", recording_init)
    return built


def _metrics_threads():
    return [t for t in threading.enumerate()
            if t.name == "repro-metrics" and t.is_alive()]


class TestEngineOwnership:
    """An entry point that builds its engine from a config closes it
    (journal file and /metrics thread); a passed engine stays open."""

    def _config(self, tmp_path):
        return CampaignConfig(journal=str(tmp_path / "journal.jsonl"),
                              metrics_port=0)

    def _assert_closed(self, built):
        assert len(built) == 1
        assert built[0]._journal is None
        assert built[0]._metrics_server is None
        assert not _metrics_threads()

    def test_run_many_closes_the_engine_it_builds(self, tmp_path,
                                                  built_engines):
        run_many(BUILD, "lockfree", HORIZON, SEEDS[:1],
                 campaign=self._config(tmp_path))
        self._assert_closed(built_engines)

    def test_measure_cml_closes_the_engine_it_builds(self, tmp_path,
                                                     built_engines):
        measure_cml(LoadedBuilderSpec.make("paper"), "lockfree", HORIZON,
                    SEEDS[:1], iterations=1,
                    campaign=self._config(tmp_path))
        self._assert_closed(built_engines)

    def test_a_passed_engine_stays_open(self, tmp_path):
        with CampaignEngine(self._config(tmp_path), tag="t") as engine:
            run_many(BUILD, "lockfree", HORIZON, SEEDS[:1], campaign=engine)
            measure_cml(LoadedBuilderSpec.make("paper"), "lockfree",
                        HORIZON, SEEDS[:1], iterations=1, campaign=engine)
            assert engine._journal is not None
            assert engine._metrics_server is not None
        assert not _metrics_threads()
