"""Import budget: what a cold start loads.

scipy (and the numpy it drags in) costs about a second and ~75 MB per
process.  The CLI, the service, the campaign engine and ``simulate()``
never need it, so it must not be in ``sys.modules`` after using them;
``_t_critical`` imports it on first use and must still return the same
t-values.

Package ``__init__`` modules re-export lazily (``repro._lazy``), so
building scenarios — ``repro.scenario`` and
``repro.experiments.workloads`` — loads neither the kernel, the
campaign engine and its process pools, nor the HTTP service.  Both are
counted in a fresh interpreter, not timed.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.stats import _t_critical, estimate

_PROBE = """
import json, sys
import repro.cli
import repro.campaign
import repro.serve.app
from repro.api import quick_scenario, simulate
simulate(quick_scenario())
print(json.dumps(sorted(m for m in ("scipy", "numpy") if m in sys.modules)))
"""


#: Modules a scenario-building import must not load.
_HEAVY = ("repro.campaign", "repro.serve", "repro.sim.kernel",
          "multiprocessing", "concurrent.futures")


def _fresh_import_probe(probe: str):
    """Run ``probe`` in a fresh interpreter; return its last stdout line
    parsed as JSON."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                       "..", "..", "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_serve_and_simulate_never_import_scipy_or_numpy():
    assert _fresh_import_probe(_PROBE) == []


@pytest.mark.parametrize("module", ["repro.scenario",
                                    "repro.experiments.workloads"])
def test_scenario_imports_leave_kernel_campaign_and_serve_unloaded(module):
    probe = (f"import json, sys\nimport {module}\n"
             f"print(json.dumps([m for m in {_HEAVY!r} "
             f"if m in sys.modules]))")
    assert _fresh_import_probe(probe) == []


def test_lazy_reexports_resolve_to_the_defining_objects():
    import repro
    import repro.sim
    from repro.campaign.engine import CampaignEngine
    from repro.sim.kernel import Kernel

    assert repro.CampaignEngine is CampaignEngine
    assert repro.sim.Kernel is Kernel
    assert "Kernel" in dir(repro.sim) and "Kernel" in repro.sim.__all__
    with pytest.raises(AttributeError, match="no attribute 'Kernal'"):
        repro.sim.Kernal


class TestDeferredImportKeepsValues:
    """Pinned to the values scipy gave with the module-level import."""

    def test_t_critical(self):
        assert _t_critical(4) == pytest.approx(2.7764451051977934,
                                               rel=1e-12)
        assert _t_critical(1) == pytest.approx(12.706204736174694,
                                               rel=1e-12)
        assert _t_critical(29) == pytest.approx(2.045229642132703,
                                                rel=1e-12)

    def test_t_critical_is_memoized(self):
        _t_critical(7)
        hits = _t_critical.cache_info().hits
        _t_critical(7)
        assert _t_critical.cache_info().hits == hits + 1

    def test_estimate(self):
        est = estimate([1.0, 2.0, 4.0, 8.0, 16.0])
        assert est.mean == 6.2
        assert est.ci == pytest.approx(7.573132563278904, rel=1e-12)
        assert est.n == 5
