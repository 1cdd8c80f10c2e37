"""Time/Utility Functions (TUFs).

A TUF expresses the utility of completing an activity as a function of the
activity's completion time (Jensen, Locke, Tokuda 1985).  The paper's task
model (Section 2) allows arbitrarily shaped TUFs with a single *critical
time* — the time at which the TUF drops to zero utility, after which the
utility stays zero.

Times are *relative to job release* and measured in integer simulated
time ticks (ns), the time base used across the whole package.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.tuf.base": ("TimeUtilityFunction", "check_tuf_wellformed"),
    "repro.tuf.shapes": (
        "CompositeMaxTUF", "LinearDecreasingTUF", "ParabolicTUF",
        "PiecewiseLinearTUF", "RampUpTUF", "ScaledTUF", "StepTUF", "TableTUF",
    ),
    "repro.tuf.catalog": (
        "awacs_association_tuf", "missile_intercept_tuf",
        "awacs_plot_correlation_tuf", "awacs_track_maintenance_tuf",
        "coastal_surveillance_tuf", "heterogeneous_tuf_mix", "step_tuf_mix",
    ),
})
