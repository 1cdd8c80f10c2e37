"""The unified Scenario API: validation, serialization round-trip and
the wrapper equivalences."""

import dataclasses
import json
import random

import pytest

from repro import Scenario, quick_scenario, quick_simulation, simulate
from repro.experiments.runner import run_once
from repro.experiments.workloads import BuilderSpec, paper_taskset
from repro.faults.plan import FaultPlan
from repro.obs import Observer
from repro.sim.objects import RetryPolicy


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

def test_exactly_one_task_source_required():
    with pytest.raises(ValueError):
        Scenario()                                   # neither
    tasks = tuple(paper_taskset(random.Random(0), n_tasks=2))
    workload = BuilderSpec.make("paper", n_tasks=2)
    with pytest.raises(ValueError):
        Scenario(workload=workload, tasks=tasks)     # both


def test_invalid_fields_rejected():
    workload = BuilderSpec.make("paper", n_tasks=2)
    with pytest.raises(ValueError):
        Scenario(workload=workload, sync="spinlock")
    with pytest.raises(ValueError):
        Scenario(workload=workload, seeding="alternating")
    with pytest.raises(ValueError):
        Scenario(workload=workload, policy="rate-monotonic")
    with pytest.raises(ValueError):
        Scenario(workload=workload, horizon=0)


def test_arrival_traces_require_matching_tasks():
    tasks = tuple(paper_taskset(random.Random(0), n_tasks=2))
    workload = BuilderSpec.make("paper", n_tasks=2)
    with pytest.raises(ValueError):
        Scenario(workload=workload, arrival_traces=((0,), (0,)))
    with pytest.raises(ValueError):
        Scenario(tasks=tasks, arrival_traces=((0,),))   # length mismatch
    scenario = Scenario(tasks=tasks, arrival_traces=[[0, 10], [5]])
    assert scenario.arrival_traces == ((0, 10), (5,))   # normalized


def test_lists_normalized_and_strings_coerced():
    tasks = paper_taskset(random.Random(0), n_tasks=2)
    scenario = Scenario(tasks=tasks, retry_policy="on_preemption")
    assert isinstance(scenario.tasks, tuple)
    assert scenario.retry_policy is RetryPolicy.ON_PREEMPTION


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def test_to_dict_from_dict_round_trip_through_json():
    scenario = quick_scenario(n_tasks=4, n_objects=3, sync="lockbased",
                              load=1.1, horizon_us=20_000, seed=7,
                              tuf_class="hetero")
    wire = json.loads(json.dumps(scenario.to_dict()))
    assert Scenario.from_dict(wire) == scenario


def test_to_dict_rejects_runtime_objects():
    tasks = tuple(paper_taskset(random.Random(0), n_tasks=2))
    with pytest.raises(ValueError):
        Scenario(tasks=tasks).to_dict()
    workload = BuilderSpec.make("paper", n_tasks=2)
    with pytest.raises(ValueError):
        Scenario(workload=workload, faults=FaultPlan(seed=1)).to_dict()


def test_from_dict_rejects_unknown_keys():
    wire = quick_scenario().to_dict()
    wire["typo_field"] = 1
    with pytest.raises(ValueError):
        Scenario.from_dict(wire)


# ----------------------------------------------------------------------
# Wrapper equivalences
# ----------------------------------------------------------------------

def test_quick_simulation_equals_quick_scenario_run():
    direct = simulate(quick_scenario(n_tasks=4, horizon_us=20_000, seed=3))
    wrapped = quick_simulation(n_tasks=4, horizon_us=20_000, seed=3,
                               observer=Observer())
    assert wrapped.result.obs is not None
    assert wrapped.result.records == direct.result.records
    assert wrapped.aur == direct.aur and wrapped.cmr == direct.cmr


@pytest.mark.parametrize("retry_policy", list(RetryPolicy),
                         ids=lambda policy: policy.value)
def test_shared_seeding_scenario_equals_run_once(retry_policy):
    """An explicit-tasks Scenario with ``seeding="shared"`` draws its
    arrivals from ``Random(seed)`` exactly as ``run_once`` does from the
    RNG it is handed."""
    tasks = paper_taskset(random.Random(0), n_tasks=3, n_objects=2)
    scenario = Scenario(sync="lockfree", horizon=20_000_000, seed=5,
                        tasks=tuple(tasks), seeding="shared",
                        retry_policy=retry_policy)
    canonical = simulate(scenario).result
    direct = run_once(tasks, "lockfree", 20_000_000, random.Random(5),
                      retry_policy=retry_policy)
    assert canonical.records == direct.records
    assert canonical.scheduler_invocations == direct.scheduler_invocations


def test_scenario_call_rejects_extra_legacy_arguments():
    scenario = quick_scenario()
    with pytest.raises(TypeError):
        simulate(scenario, sync="lockfree")
    with pytest.raises(TypeError):
        simulate(scenario, monitors=True)
    tasks = paper_taskset(random.Random(0), n_tasks=2, n_objects=2)
    with pytest.raises(TypeError, match="Scenario"):
        simulate(tasks)


def test_run_once_is_deterministic_in_its_rng():
    tasks = paper_taskset(random.Random(0), n_tasks=3, n_objects=2)
    first = run_once(tasks, "lockbased", 20_000_000, random.Random(9))
    second = run_once(tasks, "lockbased", 20_000_000, random.Random(9))
    assert first.records == second.records
    assert first.scheduler_overhead_time == second.scheduler_overhead_time


# ----------------------------------------------------------------------
# Content digest (the serve-layer cache key)
# ----------------------------------------------------------------------

def test_digest_is_stable_and_canonical():
    scenario = quick_scenario(n_tasks=3, n_objects=2, seed=7)
    digest = scenario.digest()
    assert len(digest) == 64 and int(digest, 16) >= 0
    # Deterministic within a process...
    assert scenario.digest() == digest
    # ...and across dict-ordering: rebuilding from a key-reversed dict
    # must hash identically (JSON transports do not preserve order).
    shuffled = dict(reversed(list(scenario.to_dict().items())))
    shuffled["workload"] = dict(
        reversed(list(shuffled["workload"].items())))
    assert Scenario.from_dict(shuffled).digest() == digest
    # ...and through a JSON round-trip.
    rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert rebuilt.digest() == digest


def test_digest_survives_process_restart():
    """The digest is a pure content hash: a fresh interpreter (fresh
    PYTHONHASHSEED, fresh imports) computes the same value."""
    import subprocess
    import sys

    scenario = quick_scenario(n_tasks=3, n_objects=2, seed=11)
    code = (
        "import json, sys\n"
        "from repro import Scenario\n"
        "s = Scenario.from_dict(json.loads(sys.argv[1]))\n"
        "print(s.digest())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(scenario.to_dict())],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": "src", "PYTHONHASHSEED": "random"},
        cwd=str(__import__("pathlib").Path(__file__).parent.parent),
    )
    assert out.stdout.strip() == scenario.digest()


def test_digest_changes_under_any_field_change():
    base = quick_scenario(n_tasks=3, n_objects=2, seed=7)
    digests = {base.digest()}
    variants = [
        quick_scenario(n_tasks=3, n_objects=2, seed=8),
        quick_scenario(n_tasks=4, n_objects=2, seed=7),
        quick_scenario(n_tasks=3, n_objects=2, seed=7, sync="lockbased"),
        quick_scenario(n_tasks=3, n_objects=2, seed=7, load=0.9),
        quick_scenario(n_tasks=3, n_objects=2, seed=7, tuf_class="hetero"),
    ]
    variants += [
        dataclasses.replace(base, horizon=base.horizon + 1),
        dataclasses.replace(base, seeding="shared"),
        dataclasses.replace(base, policy="llf"),
        dataclasses.replace(base, retry_policy="on_preemption"),
        dataclasses.replace(base, trace=True),
        dataclasses.replace(base, monitors=True),
    ]
    for variant in variants:
        digests.add(variant.digest())
    assert len(digests) == len(variants) + 1, "digest collision"


@pytest.mark.parametrize("sync", ["lockfree", "lockbased"])
def test_trace_never_changes_a_result(sync):
    from repro.serve.pool import result_payload

    plain = quick_scenario(n_tasks=5, n_objects=3, sync=sync, load=1.1,
                           horizon_us=40_000, seed=11)
    traced = dataclasses.replace(plain, trace=True)
    plain_run, traced_run = simulate(plain), simulate(traced)
    plain_payload = result_payload(plain, plain_run)
    traced_payload = result_payload(traced, traced_run)
    assert (plain_payload.pop("scenario_digest")
            != traced_payload.pop("scenario_digest"))
    assert plain_payload == traced_payload
    assert plain_payload["jobs"] > 20
    assert plain_run.result.obs is None
    assert traced_run.result.obs["enabled"] is True


def test_digest_rejects_runtime_scenarios():
    tasks = tuple(paper_taskset(random.Random(0), n_tasks=2))
    with pytest.raises(ValueError):
        Scenario(tasks=tasks).digest()
