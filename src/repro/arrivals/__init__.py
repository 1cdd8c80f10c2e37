"""The Unimodal Arbitrary arrival Model (UAM).

UAM (Hermant & Le Lann 1998) describes a task's arrival behaviour as a
tuple ``<l, a, W>``: during *any* sliding time window of length ``W``, the
number of job arrivals is at least ``l`` and at most ``a``.  Jobs may
arrive simultaneously.  The periodic model is the special case
``<1, 1, W>``.  UAM embodies a stronger adversary than periodic/sporadic
models and subsumes them.

This package provides the spec type, exact sliding-window validators, and
several generators whose outputs are UAM-conformant by construction:
uniform, bursty/adversarial (the worst case used in the proof of the
paper's Theorem 2), Poisson-thinned and periodic.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.arrivals.spec": ("UAMSpec",),
    "repro.arrivals.validate": (
        "OnlineWindowCounter", "UAMViolation", "check_uam",
        "max_arrivals_in_any_window", "min_arrivals_in_any_window",
    ),
    "repro.arrivals.generators": (
        "ArrivalGenerator", "BurstyUAMGenerator", "PeriodicGenerator",
        "PoissonThinnedUAMGenerator", "UniformUAMGenerator", "generator_for",
    ),
})
