"""Checkpoint encoding: one canonical encode per snapshot-and-save.

``KernelCheckpoint.wrap`` keeps the canonical state text it hashed and
``to_json`` splices it into the envelope.  These tests pin that the
spliced bytes equal the generic ``json.dumps(..., sort_keys=True)``
encoding — also for task names with quotes and non-ASCII characters —
that a decoded checkpoint re-encodes to the text it came from, and that
a snapshot written through the campaign's checkpoint store encodes the
state exactly once.
"""

import json

from repro.api import simulate
from repro.arrivals import UAMSpec
from repro.campaign.resume import CheckpointStore
from repro.scenario import Scenario
from repro.sim import checkpoint as checkpoint_module
from repro.sim.checkpoint import CheckpointPolicy, KernelCheckpoint
from repro.tasks import Compute, ObjectAccess, TaskSpec
from repro.tuf import StepTUF

#: Names JSON must escape: quotes, backslashes, control and non-ASCII
#: characters (``ensure_ascii`` turns the last into ``\\u`` escapes).
NAMES = ('say "hi"', "back\\slash", "tab\tnewline\n", "naïve→☃", "日本")


def _generic(checkpoint: KernelCheckpoint) -> str:
    return json.dumps({"version": checkpoint.version,
                       "digest": checkpoint.digest,
                       "state": checkpoint.state},
                      sort_keys=True, separators=(",", ":"))


def _scenario(sync: str = "lockfree") -> Scenario:
    tasks = tuple(
        TaskSpec(name=name, arrival=UAMSpec(1, 1, 400_000),
                 tuf=StepTUF(critical_time=300_000),
                 body=(Compute(40_000),
                       ObjectAccess(obj=index % 2, duration=5_000),
                       Compute(20_000)))
        for index, name in enumerate(NAMES))
    return Scenario(sync=sync, horizon=3_000_000, seed=5, tasks=tasks)


def _snapshots(sync: str = "lockfree") -> list[KernelCheckpoint]:
    sink: list[KernelCheckpoint] = []
    simulate(_scenario(sync), checkpoints=CheckpointPolicy(every_events=7),
             checkpoint_sink=sink.append)
    assert len(sink) > 3
    return sink


def test_wrapped_encoding_equals_the_generic_encoding():
    for sync in ("lockfree", "lockbased"):
        with_records = 0
        for checkpoint in _snapshots(sync):
            text = checkpoint.to_json()
            assert checkpoint.state_text is not None
            assert text == _generic(checkpoint)
            # The hostile names are really in the encoded state: each
            # result record carries its task's name.
            if checkpoint.state["result"]["records"]:
                with_records += 1
                assert any(json.dumps(name)[1:-1] in text
                           for name in NAMES)
        assert with_records > 3


def test_wrap_of_a_hand_made_state_with_hostile_strings():
    state = {"clock": 3, "events_handled": 1, "names": list(NAMES),
             "nested": {"z": [1.5, None, True], "a": {NAMES[0]: NAMES[3]}}}
    checkpoint = KernelCheckpoint.wrap(state)
    assert checkpoint.to_json() == _generic(checkpoint)


def test_decoded_checkpoint_reencodes_to_its_text():
    for checkpoint in _snapshots():
        text = checkpoint.to_json()
        decoded = KernelCheckpoint.from_json(text)
        assert decoded.state_text is None        # generic encode path
        assert decoded.to_json() == text
        assert decoded == checkpoint


class _CountingJson:
    """Stands in for the ``json`` module inside ``repro.sim.checkpoint``
    and counts its encodes."""

    def __init__(self) -> None:
        self.dumps_calls = 0
        self.loads = json.loads
        self.JSONDecodeError = json.JSONDecodeError

    def dumps(self, obj, **kwargs):
        self.dumps_calls += 1
        return json.dumps(obj, **kwargs)


def test_one_canonical_encode_per_snapshot_and_save(tmp_path, monkeypatch):
    counting = _CountingJson()
    monkeypatch.setattr(checkpoint_module, "json", counting)
    store = CheckpointStore(tmp_path)
    saved = []

    def save(checkpoint: KernelCheckpoint) -> None:
        store.save(0, checkpoint)
        saved.append(checkpoint)

    simulate(_scenario(), checkpoints=CheckpointPolicy(every_events=7),
             checkpoint_sink=save)
    assert len(saved) > 3
    assert counting.dumps_calls == len(saved)
    on_disk = store.checkpoint_path(0).read_text(encoding="utf-8")
    assert on_disk == _generic(saved[-1]) + "\n"
