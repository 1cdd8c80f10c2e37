"""Equivalence suite: the incremental fast path is a pure optimization.

At a fixed seed, running with the fast path on versus with
``REPRO_NO_FASTPATH=1`` (the from-scratch reference path) must produce
identical observable output: job records, scheduler/mechanism overhead
accounting, AUR/CMR, and the deterministic ``sched.*`` observability
counters.  Only the fast path's own meta-counter (empty-pass skips)
may differ — it exists only when the fast path is on, and is excluded
from the comparison.
"""

from dataclasses import replace

import pytest

from repro.api import quick_scenario, simulate
from repro.obs import Observer

#: Counters that exist only to report what the fast path did; everything
#: else must match the reference path exactly.
FASTPATH_META_PREFIXES = ("sched.pass.skipped",)

SEEDS = range(50)


def _comparable_counters(result) -> dict:
    counters = (result.obs or {}).get("counters", {})
    return {
        name: value for name, value in counters.items()
        if not name.startswith(FASTPATH_META_PREFIXES)
    }


def _fingerprint(summary) -> dict:
    result = summary.result
    return {
        "policy": summary.policy,
        "load": summary.load,
        "aur": summary.aur,
        "cmr": summary.cmr,
        "records": tuple(result.records),
        "horizon": result.horizon,
        "scheduler_invocations": result.scheduler_invocations,
        "scheduler_overhead_time": result.scheduler_overhead_time,
        "idle_time": result.idle_time,
        "unfinished": result.unfinished,
        "lock_mechanism_time": result.lock_mechanism_time,
        "lockfree_mechanism_time": result.lockfree_mechanism_time,
        "lock_access_commits": result.lock_access_commits,
        "lockfree_access_commits": result.lockfree_access_commits,
        "lockfree_attempts": result.lockfree_attempts,
        "counters": _comparable_counters(result),
        "histograms": (result.obs or {}).get("histograms", {}),
    }


def _run(scenario, monkeypatch, *, reference: bool) -> dict:
    if reference:
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    else:
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    return _fingerprint(simulate(scenario, observer=Observer()))


@pytest.mark.parametrize("sync", ["lockfree", "lockbased"])
@pytest.mark.parametrize("policy", [None, "edf", "llf"])
def test_fastpath_matches_reference(sync, policy, monkeypatch):
    """50 fixed seeds per (sync, policy) cell, overloaded enough that
    RUA actually rejects and (lock-based) builds dependency chains."""
    for seed in SEEDS:
        scenario = replace(
            quick_scenario(n_tasks=6, n_objects=4, sync=sync, load=1.2,
                           horizon_us=30_000, seed=seed),
            policy=policy)
        fast = _run(scenario, monkeypatch, reference=False)
        slow = _run(scenario, monkeypatch, reference=True)
        assert fast == slow, (
            f"fast path diverged from reference at seed={seed}, "
            f"sync={sync}, policy={policy}")


def test_reference_emits_no_fastpath_meta_counters(monkeypatch):
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    summary = simulate(quick_scenario(horizon_us=30_000, seed=1),
                       observer=Observer())
    counters = (summary.result.obs or {}).get("counters", {})
    meta = [name for name in counters
            if name.startswith(FASTPATH_META_PREFIXES)]
    assert meta == []


def test_fastpath_actually_engages(monkeypatch):
    """Guard against the equivalence suite silently comparing the
    reference path against itself."""
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    summary = simulate(quick_scenario(horizon_us=30_000, seed=1),
                       observer=Observer())
    counters = (summary.result.obs or {}).get("counters", {})
    assert any(name.startswith(FASTPATH_META_PREFIXES)
               for name in counters)
