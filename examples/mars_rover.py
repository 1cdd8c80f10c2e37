"""Planetary-rover scenario — the paper's Mars Rover motivation.

NASA/JPL's rovers (Clark et al. 2004, cited in the paper's introduction)
run activities with context-dependent execution times: hazard avoidance
must react quickly, science activities are valuable but deferrable, and
telemetry windows are hard cutoffs.  Execution times vary with terrain,
so the system sees transient overloads — the "dynamic embedded real-time
system" the paper targets.

This example sweeps the load (terrain difficulty) and shows the
utility-accrual behaviour of lock-free vs lock-based RUA across the
underload → overload transition, including the increasing-TUF intercept
case (drive-window utility grows as the rover approaches its waypoint).

Run:  python examples/mars_rover.py
"""

from repro.arrivals import UAMSpec
from repro.api import Scenario, simulate
from repro.tasks import make_task, scale_to_load
from repro.tuf import LinearDecreasingTUF, PiecewiseLinearTUF, StepTUF
from repro.units import MS, US


def build_rover_taskset():
    """Five rover activities sharing the vehicle-state and science-data
    stores (objects 0 and 1)."""
    return [
        make_task(
            "hazard-avoidance",
            arrival=UAMSpec(1, 2, 25 * MS),    # terrain-driven bursts
            tuf=StepTUF(critical_time=7 * MS, height=50.0),
            compute=2 * MS,
            accesses=[(0, 300 * US)],
        ),
        make_task(
            "navigation",
            arrival=UAMSpec(1, 1, 160 * MS),
            tuf=LinearDecreasingTUF(critical_time=150 * MS, initial=10.0),
            compute=25 * MS,
            accesses=[(0, 3 * MS)],            # long vehicle-state update
        ),
        make_task(
            "science-imaging",
            arrival=UAMSpec(1, 1, 380 * MS),
            tuf=PiecewiseLinearTUF(points=(
                (0, 8.0), (100 * MS, 8.0), (350 * MS, 0.0),
            )),
            compute=60 * MS,
            accesses=[(1, 4 * MS)],            # bulk science-data append
        ),
        make_task(
            "telemetry-uplink",
            arrival=UAMSpec(1, 1, 420 * MS),
            tuf=StepTUF(critical_time=400 * MS, height=15.0),
            compute=40 * MS,
            accesses=[(1, 3 * MS)],
        ),
        make_task(
            "housekeeping",
            arrival=UAMSpec(1, 1, 220 * MS),
            tuf=LinearDecreasingTUF(critical_time=200 * MS, initial=1.0),
            compute=15 * MS,
            accesses=[(0, 500 * US)],
        ),
    ]


def main() -> None:
    print("Mars-rover scenario: load sweep (terrain difficulty)")
    print(f"{'AL':>5} | {'lock-based AUR':>15} {'lock-free AUR':>15} "
          f"| {'lock-based CMR':>15} {'lock-free CMR':>15} "
          f"| {'sched ovh LB/LF [ms]':>21}")
    for load in (0.3, 0.6, 0.9, 1.1, 1.4):
        tasks = scale_to_load(build_rover_taskset(), load)
        row = {}
        for sync in ("lockbased", "lockfree"):
            summary = simulate(Scenario(
                tasks=tuple(tasks), sync=sync, horizon=8_000 * MS,
                seed=11, seeding="shared", arrival_style="uniform"))
            row[sync] = summary
        lb_ovh = row["lockbased"].result.scheduler_overhead_time / MS
        lf_ovh = row["lockfree"].result.scheduler_overhead_time / MS
        print(f"{load:5.1f} | {row['lockbased'].aur:15.3f} "
              f"{row['lockfree'].aur:15.3f} | "
              f"{row['lockbased'].cmr:15.3f} {row['lockfree'].cmr:15.3f} "
              f"| {lb_ovh:9.1f} / {lf_ovh:8.1f}")
    print()
    print("As terrain difficulty pushes the rover into overload, utility "
          "degrades\ngracefully under RUA (deadline scheduling would "
          "collapse instead).  With only\nfive activities both sharing "
          "styles salvage similar utility, but lock-free\ngets it while "
          "spending a fraction of the CPU on scheduling — headroom the\n"
          "rover keeps for science.  Scale the task count up (see "
          "quickstart.py and\nthe Figure 12/13 benches) and the "
          "lock-based margin collapses outright.")


if __name__ == "__main__":
    main()
