"""Shared helpers for the benchmark harness.

Each bench regenerates one figure/table of the paper (see DESIGN.md's
per-experiment index): it runs the campaign once under pytest-benchmark's
timer, prints the ASCII series table (the paper-shape artifact), and
saves it under ``benchmarks/out/`` — atomically, so an interrupted bench
never leaves a truncated table behind.

The figure campaigns route through the resilient campaign engine when
the environment opts in:

* ``REPRO_BENCH_WORKERS=N``  — crash-isolated parallel trials;
* ``REPRO_BENCH_TIMEOUT=S``  — per-trial wall-clock budget (seconds);
* ``REPRO_BENCH_JOURNAL=P``  — per-bench checkpoint journals written to
  directory ``P`` (resumable with ``--resume`` via the CLI).

Unset (the default), benches keep the byte-identical serial path.
"""

from __future__ import annotations

import os
import pathlib

from repro.campaign import CampaignConfig, atomic_write

OUT_DIR = pathlib.Path(__file__).parent / "out"


def save_figure(name: str, text: str) -> None:
    """Print and persist a rendered figure table (atomic replace)."""
    atomic_write(OUT_DIR / f"{name}.txt", text + "\n")
    print()
    print(text)


def campaign_config(bench_name: str) -> CampaignConfig | None:
    """Campaign policy for one bench, from the environment (None =
    classic serial execution)."""
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0") or "0")
    timeout = float(os.environ.get("REPRO_BENCH_TIMEOUT", "0") or "0")
    journal_dir = os.environ.get("REPRO_BENCH_JOURNAL", "")
    if workers <= 0 and timeout <= 0 and not journal_dir:
        return None
    journal = None
    if journal_dir:
        pathlib.Path(journal_dir).mkdir(parents=True, exist_ok=True)
        journal = str(pathlib.Path(journal_dir) / f"{bench_name}.jsonl")
    return CampaignConfig(
        workers=max(1, workers),
        timeout=timeout if timeout > 0 else None,
        journal=journal,
    )


def run_once_benchmark(benchmark, fn):
    """Run a campaign exactly once under the benchmark timer (campaigns
    are seconds-long simulations; statistical timing repeats are not
    meaningful and would multiply runtime)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)

