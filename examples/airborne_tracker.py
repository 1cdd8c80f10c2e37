"""AWACS-style airborne tracker — the paper's Figure 1(a)/(b) scenario.

An adaptive airborne tracking system (Clark et al. 1999) runs, per radar
scan, a pipeline of activities with heterogeneous time constraints:

* plot correlation   — parabolically decaying TUF (early correlation is
  far more valuable);
* track association  — hard step TUF (useless after the gate closes);
* track maintenance  — linearly decaying TUF.

All three share track-database queues.  Under threat-dense conditions the
sensor produces bursts of plots — a textbook UAM arrival pattern — and
the system overloads; the interesting question is how much utility each
synchronization discipline salvages.

Run:  python examples/airborne_tracker.py
"""

import random

from repro.arrivals import UAMSpec
from repro.api import Scenario, simulate
from repro.tasks import make_task
from repro.tuf.catalog import (
    awacs_association_tuf,
    awacs_plot_correlation_tuf,
    awacs_track_maintenance_tuf,
)
from repro.units import MS, US


def build_tracker_taskset():
    """Three tracker activities plus a radar-burst interferer, sharing
    two track-database queues (objects 0 and 1)."""
    scan = 50 * MS   # radar scan period
    return [
        make_task(
            "plot-correlation",
            arrival=UAMSpec(1, 3, scan),    # bursts of up to 3 plot batches
            tuf=awacs_plot_correlation_tuf(critical_time=20 * MS,
                                           importance=5.0),
            compute=2 * MS,
            accesses=[(0, 100 * US), (1, 100 * US)],
        ),
        make_task(
            "track-association",
            arrival=UAMSpec(1, 1, scan),
            tuf=awacs_association_tuf(critical_time=30 * MS,
                                      importance=10.0),
            compute=4 * MS,
            accesses=[(0, 150 * US)],
        ),
        make_task(
            "track-maintenance",
            arrival=UAMSpec(1, 1, scan),
            tuf=awacs_track_maintenance_tuf(critical_time=45 * MS,
                                            importance=2.0),
            compute=6 * MS,
            accesses=[(1, 200 * US)],
        ),
        make_task(
            "sensor-io",
            arrival=UAMSpec(1, 4, 10 * MS),  # bursty interrupt-driven IO
            tuf=awacs_association_tuf(critical_time=3 * MS,
                                      importance=1.0),
            compute=400 * US,
            accesses=[(0, 50 * US)],
        ),
    ]


def main() -> None:
    tasks = build_tracker_taskset()
    print("AWACS tracker scenario: 4 activities, 2 shared track queues")
    print(f"{'style':<10} {'AUR':>6} {'CMR':>6} "
          f"{'mean sojourn [ms]':>18} {'aborts':>7}")
    for sync in ("lockbased", "lockfree"):
        summary = simulate(Scenario(
            tasks=tuple(tasks), sync=sync, horizon=2_000 * MS, seed=7,
            seeding="shared", arrival_style="bursty"))
        result = summary.result
        sojourn = (result.mean_sojourn() or 0) / MS
        print(f"{sync:<10} {summary.aur:6.3f} {summary.cmr:6.3f} "
              f"{sojourn:18.2f} {result.abort_count:7d}")
    print()
    print("Lock-free sharing keeps the urgent sensor-io and "
          "plot-correlation activities\nfrom queueing behind the long "
          "track-maintenance critical sections, which is\nexactly the "
          "dependency-chain cost the paper eliminates.")


if __name__ == "__main__":
    main()
