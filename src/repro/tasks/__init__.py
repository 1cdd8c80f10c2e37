"""Task and job model.

A *task* is a recurrent activity: a UAM arrival envelope, a TUF time
constraint shared by all of its jobs, and an execution body described as a
sequence of *segments* — pure computation and shared-object accesses.  A
*job* is one invocation of a task and is the basic scheduling entity
(Section 2 of the paper).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.tasks.segments": ("Compute", "ObjectAccess", "Segment"),
    "repro.tasks.task": ("TaskSpec",),
    "repro.tasks.job": ("Job", "JobState"),
    "repro.tasks.taskset": (
        "approximate_load", "make_task", "random_taskset", "scale_to_load",
        "total_access_time",
    ),
})
