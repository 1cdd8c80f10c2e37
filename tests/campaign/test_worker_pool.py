"""The shared WorkerPool under concurrent callers: no lost counter update."""

import sys
import threading

from repro.campaign import ChaosPlan
from repro.campaign.pool import WorkerPool

THREADS = 8
TRIALS = 50


def trial_value(index):
    return index * 2


def test_concurrent_runs_count_every_execution_and_retry():
    total = THREADS * TRIALS
    pool = WorkerPool(0, chaos=ChaosPlan(transient=tuple(range(0, total, 2))),
                      sleep=lambda _s: None)
    values = {}

    def caller(slot):
        for index in range(slot * TRIALS, (slot + 1) * TRIALS):
            work = (trial_value, (index,), {})
            values[index] = pool.run(index, lambda _attempt: work)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(slot,))
                   for slot in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [values[i].value for i in range(total)] == \
        [2 * i for i in range(total)]
    assert [values[i].attempts for i in range(total)] == \
        [2 - i % 2 for i in range(total)]
    assert pool.executions == total
    assert pool.retries == total // 2
    assert pool.failure_kinds == {"transient": total // 2}
