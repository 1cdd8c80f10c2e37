"""Recompute ``pinned.json``: the digests of the canonical result
payloads of the ``sim-long`` and ``campaign-dense`` batches at the
default seed, computed on the reference path (``REPRO_NO_FASTPATH=1``).

    python3 perfbench/pin.py

Run it only when a change is *meant* to alter simulated results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks
    from perfbench.common import DEFAULT_SEED, sha256_lines
    from perfbench.inputs import campaign_batch, sim_long_batch

    pinned = {}
    with checks.reference_path():
        for name, batch in (("sim-long", sim_long_batch(DEFAULT_SEED)),
                            ("campaign-dense",
                             campaign_batch(DEFAULT_SEED))):
            pinned[name] = sha256_lines(checks.simulate_serially(batch))
    checks.PINNED.write_text(json.dumps(pinned, indent=2) + "\n")
    print(json.dumps(pinned, indent=2))


if __name__ == "__main__":
    main()
