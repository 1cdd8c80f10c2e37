"""Import budget: scipy loads only for report confidence intervals.

scipy (and the numpy it drags in) costs about a second and ~75 MB per
process.  The CLI, the service, the campaign engine and ``simulate()``
never need it, so it must not be in ``sys.modules`` after using them;
``_t_critical`` imports it on first use and must still return the same
t-values.
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


def test_cli_serve_and_simulate_never_import_scipy_or_numpy():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                       "..", "..", "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []


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
