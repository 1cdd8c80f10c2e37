"""The restore equivalence gate (DESIGN.md §15).

For a sweep of seeds × sync styles × policy overrides, a simulation
restored from a mid-run checkpoint must finish **byte-identical** to the
uninterrupted run — compared via
:func:`repro.sim.checkpoint.fingerprint_result`, the canonical encoding
of every deterministic field of a :class:`SimulationResult`.

The whole gate runs in both scheduler modes (PR 5 fast path on and off,
via ``REPRO_NO_FASTPATH``), because restore deliberately drops every
cached scheduling artifact: the restored run must replay the exact
same decisions whether or not it gets to rebuild its caches.
"""

import dataclasses

import pytest

from repro.api import quick_scenario, simulate
from repro.sim.checkpoint import CheckpointPolicy, fingerprint_result

SEEDS = tuple(range(25))
SYNCS = ("lockfree", "lockbased")
POLICIES = (None, "edf", "llf")
#: Small but non-trivial: a few dozen jobs, real contention.
HORIZON_US = 6_000


def _scenario(seed: int, sync: str, policy: str | None):
    scenario = quick_scenario(n_tasks=4, n_objects=3, sync=sync,
                              load=1.0, horizon_us=HORIZON_US, seed=seed)
    return dataclasses.replace(scenario, policy=policy)


def _fingerprint(summary) -> str:
    return fingerprint_result(summary.result)


@pytest.fixture(params=["fastpath", "no_fastpath"])
def scheduler_mode(request, monkeypatch):
    if request.param == "no_fastpath":
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    else:
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    return request.param


@pytest.mark.parametrize("sync", SYNCS)
@pytest.mark.parametrize("policy", POLICIES)
def test_restore_is_byte_identical(sync, policy, scheduler_mode):
    for seed in SEEDS:
        scenario = _scenario(seed, sync, policy)
        checkpoints = []
        clean = simulate(scenario,
                         checkpoints=CheckpointPolicy(every_events=20),
                         checkpoint_sink=checkpoints.append)
        assert checkpoints, f"no checkpoints fired for seed {seed}"
        want = _fingerprint(clean)
        # Restore from the middle checkpoint and from the last one —
        # the deepest state the run ever persisted.
        picks = sorted({len(checkpoints) // 2, len(checkpoints) - 1})
        for ckpt in (checkpoints[i] for i in picks):
            resumed = simulate(scenario, resume_from=ckpt)
            assert _fingerprint(resumed) == want, (
                f"restore diverged: seed={seed} sync={sync} "
                f"policy={policy} mode={scheduler_mode} "
                f"ckpt@{ckpt.clock}")


@pytest.mark.parametrize("sync", SYNCS)
def test_checkpointing_does_not_perturb_results(sync, scheduler_mode):
    """Enabling checkpoints must be observationally free: the run with a
    checkpoint policy equals the run without one, byte for byte."""
    for seed in SEEDS[:5]:
        scenario = _scenario(seed, sync, None)
        plain = simulate(scenario)
        sink: list = []
        with_ckpt = simulate(scenario,
                             checkpoints=CheckpointPolicy(every_events=10),
                             checkpoint_sink=sink.append)
        assert _fingerprint(with_ckpt) == _fingerprint(plain)
        assert sink


def test_restore_crosses_scheduler_modes(monkeypatch):
    """A checkpoint taken under one scheduler mode restores identically
    under the other: checkpoints never capture cache state."""
    scenario = _scenario(3, "lockfree", None)
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    sink: list = []
    clean = simulate(scenario,
                     checkpoints=CheckpointPolicy(every_events=25),
                     checkpoint_sink=sink.append)
    want = _fingerprint(clean)
    ckpt = sink[len(sink) // 2]
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    assert _fingerprint(simulate(scenario, resume_from=ckpt)) == want
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    assert _fingerprint(simulate(scenario, resume_from=ckpt)) == want


def test_tampered_checkpoint_is_rejected():
    from repro.sim.checkpoint import CheckpointError, KernelCheckpoint

    scenario = _scenario(0, "lockfree", None)
    sink: list = []
    simulate(scenario, checkpoints=CheckpointPolicy(every_events=25),
             checkpoint_sink=sink.append)
    doc = sink[-1].to_json()
    tampered = doc.replace('"clock":', '"clock_":', 1)
    with pytest.raises(CheckpointError):
        KernelCheckpoint.from_json(tampered)


def test_a_file_resume_encodes_its_checkpoint_state_once(monkeypatch):
    """Decoding a checkpoint file verifies it; restoring from the decoded
    checkpoint does not encode and hash the state a second time."""
    import json

    from repro.sim.checkpoint import KernelCheckpoint

    scenario = _scenario(0, "lockfree", None)
    sink: list = []
    clean = simulate(scenario, checkpoints=CheckpointPolicy(every_events=25),
                     checkpoint_sink=sink.append)
    text = sink[len(sink) // 2].to_json()
    dumps, calls = json.dumps, []

    def counting_dumps(*args, **kwargs):
        calls.append(1)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    resumed = simulate(scenario,
                       resume_from=KernelCheckpoint.from_json(text))
    monkeypatch.undo()
    assert len(calls) == 1
    assert _fingerprint(resumed) == _fingerprint(clean)
