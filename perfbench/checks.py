"""Output correctness.

Simulated outputs are checked, never scored.  Every payload a workload
produces must equal the first one produced for the same scenario in the
run; the batch as a whole must then match the digest pinned in
``pinned.json`` (at :data:`~perfbench.common.DEFAULT_SEED`) or, on any
other seed, the reference path (``REPRO_NO_FASTPATH=1``), computed after
the timed region.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from perfbench.common import DEFAULT_SEED, sha256_lines

PINNED = Path(__file__).with_name("pinned.json")


def payload_json(scenario, summary):
    """The canonical bytes the service would cache for this result."""
    from repro.serve.cache import canonical_payload_json
    from repro.serve.pool import result_payload

    return canonical_payload_json(result_payload(scenario, summary))


def expect(outcome, expected, index, payload):
    """Record the first payload for ``index``; count a later one that
    differs as a failed operation."""
    first = expected.setdefault(index, [payload, 0])
    first[1] += 1
    if first[0] != payload:
        outcome.fail(f"scenario {index}: payload changed between calls")


@contextmanager
def reference_path():
    """Run the block with the scheduler fast path disabled."""
    previous = os.environ.get("REPRO_NO_FASTPATH")
    os.environ["REPRO_NO_FASTPATH"] = "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_NO_FASTPATH"]
        else:
            os.environ["REPRO_NO_FASTPATH"] = previous


def simulate_serially(batch):
    from repro.api import simulate

    return [payload_json(scenario, simulate(scenario)) for scenario in batch]


def against_reference(outcome, batch, expected, seed, workload,
                      reference=simulate_serially):
    """Compare the run's payloads with the pinned digest or the
    reference path; every call of a mismatching scenario counts as
    failed."""
    produced = [expected[index][0] for index in range(len(batch))]
    if seed == DEFAULT_SEED:
        pinned = json.loads(PINNED.read_text())[workload]
        if sha256_lines(produced) != pinned:
            outcome.fail(f"{workload}: batch digest differs from the "
                         f"pinned digest", sum(c for _, c in
                                               expected.values()))
        return
    with reference_path():
        wanted = reference(batch)
    for index, (got, want) in enumerate(zip(produced, wanted)):
        if got != want:
            outcome.fail(f"{workload} scenario {index}: differs from the "
                         f"reference path", expected[index][1])
