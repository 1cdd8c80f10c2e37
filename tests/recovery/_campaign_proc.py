"""Subprocess body for the campaign crash harness: run (or resume) a
checkpointed campaign and print a JSON report.  The parent test SIGKILLs
this process mid-campaign and relaunches it with the same journal."""

import json
import sys

from repro.campaign import (
    CampaignConfig,
    CampaignEngine,
    TrialSpec,
    simulate_scenario_trial,
)
from repro.experiments.workloads import BuilderSpec
from repro.scenario import Scenario


def scenarios(n_trials: int, seed: int):
    # 0.2-1.3 s wall per checkpointed trial on a 2-vCPU host: slow
    # enough that the parent's SIGKILL, sent up to 0.25 s after the
    # trials it waits for are journaled, lands mid-campaign; fast enough
    # for CI.
    return [Scenario(workload=BuilderSpec.make("paper", n_tasks=4),
                     sync="lockfree" if index % 2 == 0 else "lockbased",
                     seed=seed + index, horizon=3_200_000_000)
            for index in range(n_trials)]


def main() -> int:
    journal, checkpoint_dir, n_trials, seed, resume = sys.argv[1:6]
    config = CampaignConfig(
        workers=2, max_attempts=3,
        journal=journal,
        resume=journal if resume == "resume" else None,
        checkpoint_dir=checkpoint_dir,
    )
    specs = [TrialSpec(index=i, fn=simulate_scenario_trial,
                       args=(s.to_dict(),),
                       kwargs=(("every_events", 1000),))
             for i, s in enumerate(scenarios(int(n_trials), int(seed)))]
    with CampaignEngine(config, tag="crash-harness") as engine:
        result = engine.run(specs)
        stats = engine.stats()
    print(json.dumps({
        "ok": result.ok,
        "values": result.values,
        "from_journal": stats.from_journal,
        "resumed_attempts": sum(
            (o.recovery or {}).get("resumed_attempts", 0)
            for o in result.outcomes),
    }))
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
