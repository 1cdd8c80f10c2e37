"""ASCII Gantt rendering of an observed run.

Turns a recording :class:`repro.obs.Observer`'s event stream into a
per-job timeline — the quickest way to *see* preemptions, blocking
waits, retries and aborts when debugging a scenario::

    kernel, result = ...  # run with observer=Observer()
    print(render_gantt(kernel.obs, horizon=config.horizon))

Execution comes from the kernel's ``exec`` spans.  Lane characters:
``#`` running, ``!`` the instant of an abort, ``*`` the instant of a
retry, ``.`` idle for that task.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.observer import Observer


@dataclass(frozen=True)
class _Run:
    job: str
    start: int
    end: int


def _job_of(event) -> str | None:
    return dict(event.args).get("job")


def execution_runs(observer: Observer, horizon: int) -> list[_Run]:
    """CPU occupancy intervals: the ``exec`` spans, with a span that
    starts where the same job's previous one ended merged into it."""
    runs: list[_Run] = []
    for span in observer.spans:
        if span.name != "exec":
            continue
        job = _job_of(span)
        end = min(span.end, horizon)
        if runs and runs[-1].job == job and runs[-1].end == span.start:
            runs[-1] = _Run(job=job, start=runs[-1].start, end=end)
        elif end > span.start:
            runs.append(_Run(job=job, start=span.start, end=end))
    return runs


def render_gantt(observer: Observer, horizon: int, width: int = 72) -> str:
    """Render one lane per job, bucketed to ``width`` columns."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if width < 8:
        raise ValueError("width must be at least 8 columns")
    runs = execution_runs(observer, horizon)
    jobs = list(dict.fromkeys(
        job for job in map(_job_of, (*observer.instants, *observer.spans))
        if job))
    lanes = {job: ["."] * width for job in jobs}
    scale = horizon / width

    def column(t: int) -> int:
        return min(width - 1, int(t / scale))

    for run in runs:
        lane = lanes[run.job]
        for col in range(column(run.start), column(max(run.start,
                                                       run.end - 1)) + 1):
            lane[col] = "#"
    markers = {"abort": "!", "retry": "*"}
    for event in observer.instants:
        if event.name in markers:
            lanes[_job_of(event)][column(event.ts)] = markers[event.name]
    label_width = max((len(j) for j in jobs), default=4)
    header = (f"{'time':<{label_width}}  0{' ' * (width - 2)}"
              f"{horizon}")
    lines = [header]
    for job in jobs:
        lines.append(f"{job:<{label_width}}  {''.join(lanes[job])}")
    return "\n".join(lines)
