"""Repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sim-long --seed 0 --seconds 15 \
        --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``sim-long``       — serial in-process ``simulate`` of small, long runs;
* ``campaign-dense`` — ``CampaignEngine(workers=2)`` with journal and
  checkpoints over large overloaded task sets;
* ``serve-mix``      — a ``repro serve`` child driven open-loop over
  keep-alive connections with cache hits and misses.

Human-readable lines name every metric with its unit; the last line of
standard output is one JSON object with the ``end_to_end`` metrics of
``BENCHMARK.json`` (``--trace 0``) or its ``per_layer`` metrics
(``--trace 1``, a separate run that wraps each layer's public functions
with timers and writes a Chrome trace under ``.perfbench/``).  Outputs
are checked for correctness; any wrong output makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim-long", "campaign-dense", "serve-mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _format(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from "
              f"the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import campaign_dense, serve_mix, sim_long
    from perfbench.common import WORK_DIR, Outcome

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    module = {"sim-long": sim_long, "campaign-dense": campaign_dense,
              "serve-mix": serve_mix}[args.workload]

    work_dir = ROOT / WORK_DIR
    run_dir = work_dir / f"run-{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    outcome = Outcome()
    try:
        module.run(args.seed, args.seconds, bool(args.trace), outcome,
                   run_dir)
    finally:
        for leftover in run_dir.iterdir():
            if leftover.is_dir():
                shutil.rmtree(leftover, ignore_errors=True)

    attempted = max(outcome.attempted, 1)
    failed = min(outcome.failed, attempted)
    outcome.report["ops_failed_ratio"] = (
        failed / attempted, "ratio", f"{failed} of {attempted} operations")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (value, unit, note) in outcome.report.items():
        unit = unit or units.get(name, "")
        suffix = f"  ({note})" if note else ""
        print(f"{name} = {_format(value)} {unit}{suffix}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")

    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if args.trace:
            value = outcome.report.get(name, (0, unit, ""))[0]
        else:
            value = outcome.metrics[name][0]
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
