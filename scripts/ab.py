"""Paired A/B comparison of two checkouts on one perfbench workload.

    python scripts/ab.py PARENT CHANGE --workload campaign-dense \
        --seed 0 --pairs 10 [--out FILE]

``PARENT`` and ``CHANGE`` are the roots of two checkouts of this
repository; name each after its commit (``git archive`` into a
directory such as ``b480ffa/``), since the report identifies the trees
by their directory names.  Both are byte-compiled the same way
(``compileall``, so neither side pays for compiling its modules in the
runs it is timed by), then ``perfbench/run.py --trace 0`` runs
``--pairs`` times in each, as a subprocess from that checkout's root,
for the run length ``BENCHMARK.json`` sets (``run_seconds``).  Pair
``i`` runs the parent first when ``i`` is even and the change first
when it is odd, so a drift of the host weighs on both sides alike.  A
run that exits non-zero or reads ``correct: false`` stops the
comparison: a fast wrong answer is not a measurement.

For each end-to-end metric of the parent's ``BENCHMARK.json`` the
report gives both medians, the parent's interquartile range, how many
pairs the change won (ties count for neither side), and a verdict:

* ``unresolved`` — the parent's IQR, relative to its median, exceeds
  the metric's bound, so the host's spread is too wide to judge the
  metric, and the two sides' runs overlap (when every change run reads
  better than every parent run, the rules below still apply);
* ``improved``   — the change won at least 9 in 10 pairs and its median
  is better by more than the parent's IQR;
* ``worse``      — the change's median is worse by more than the bound;
* ``within bound`` — none of these.

The report is printed and written to ``FILE`` (default
``benchmarks/trajectories/ab-<workload>-seed<S>-<PARENT>-<CHANGE>.txt``,
named by the two directories).  An existing report is never
overwritten, so every round stays on record, and the reports under
``benchmarks/trajectories/`` are the repository's perf history.  The
script changes nothing under either checkout's ``perfbench/`` or
``BENCHMARK.json``.  Exit code: 0, 1 when a run failed or read
incorrect, 2 on bad arguments or an existing report.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The change must win at least this share of the pairs to be improved.
WIN_SHARE = 0.9


class RunFailed(RuntimeError):
    """A benchmark run that exited non-zero or read ``correct: false``."""


def compile_tree(tree: pathlib.Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "perfbench"], cwd=tree, check=True,
                   stdout=subprocess.DEVNULL)


def run_once(tree: pathlib.Path, workload: str, seed: int,
             seconds: float) -> dict[str, float]:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = {}
    if proc.returncode != 0 or report.get("correct") is not True:
        tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-20:])
        raise RunFailed(f"{tree.name}: run exited {proc.returncode}, "
                        f"correct={report.get('correct')!r}\n{tail}")
    return {name: entry["value"]
            for name, entry in report["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(metric: dict, parent: list[float],
            change: list[float]) -> dict:
    """Compare one metric's paired runs (the module docstring's rules)."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (c_med - p_med)      # > 0: the change is better
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_med and iqr / abs(p_med) > metric["bound"] and not separated:
        word = "unresolved"
    elif wins >= math.ceil(WIN_SHARE * len(parent)) and gain > iqr:
        word = "improved"
    elif p_med and -gain / abs(p_med) > metric["bound"]:
        word = "worse"
    else:
        word = "within bound"
    return {"parent": p_med, "change": c_med, "iqr": iqr, "wins": wins,
            "parent_q": (q1, q3), "change_q": quartiles(change),
            "delta_pct": 100.0 * (c_med - p_med) / p_med if p_med else 0.0,
            "verdict": word}


def _cell(median: float, q: tuple[float, float]) -> str:
    return f"{median:.4g} [{q[0]:.4g}, {q[1]:.4g}]"


def report_lines(args, seconds, metrics, runs, order) -> list[str]:
    lines = [f"Paired A/B: perfbench/run.py --workload {args.workload} "
             f"--seed {args.seed} --seconds {seconds:g} --trace 0, "
             f"{args.pairs} pairs",
             f"parent: {args.parent.name}",
             f"change: {args.change.name}",
             "",
             "Medians, with quartiles in brackets; delta is the change's "
             "median against the parent's.",
             "",
             f"{'metric':<18}{'parent':>34}{'change':>34}{'delta':>9}"
             f"{'parent IQR':>12}{'wins':>7}{'bound':>7}  verdict"]
    for metric in metrics:
        name = metric["name"]
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        row = verdict(metric, parent, change)
        lines.append(
            f"{name:<18}{_cell(row['parent'], row['parent_q']):>34}"
            f"{_cell(row['change'], row['change_q']):>34}"
            f"{row['delta_pct']:>+8.1f}%{row['iqr']:>12.4g}"
            f"{row['wins']:>4}/{len(parent):<2}{metric['bound']:>7.0%}"
            f"  {row['verdict']}")
    lines += ["", "Runs (first side of each pair marked *):"]
    for pair, first in enumerate(order):
        cells = []
        for side in ("parent", "change"):
            values = runs[side][pair]
            star = "*" if side == first else " "
            cells.append(f"{side}{star} " + " ".join(
                f"{metric['name']}={values[metric['name']]:.4g}"
                for metric in metrics))
        lines.append(f"pair {pair:>2}: " + " | ".join(cells))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    args.parent, args.change = args.parent.resolve(), args.change.resolve()
    for tree in (args.parent, args.change):
        if not (tree / "BENCHMARK.json").is_file():
            parser.error(f"{tree} is not a checkout: no BENCHMARK.json")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = float(spec["run_seconds"])
    out = args.out or (ROOT / "benchmarks" / "trajectories"
                       / f"ab-{args.workload}-seed{args.seed}"
                         f"-{args.parent.name}-{args.change.name}.txt")
    if out.exists():
        parser.error(f"{out} exists; a report is never overwritten")

    trees = {"parent": args.parent, "change": args.change}
    for tree in trees.values():
        compile_tree(tree)
    runs: dict[str, list] = {"parent": [], "change": []}
    order = []
    try:
        for pair in range(args.pairs):
            sides = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            order.append(sides[0])
            for side in sides:
                runs[side].append(run_once(trees[side], args.workload,
                                           args.seed, seconds))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    except RunFailed as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    text = "\n".join(report_lines(args, seconds, spec["end_to_end"],
                                  runs, order)) + "\n"
    print(text, end="")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "x", encoding="utf-8") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
