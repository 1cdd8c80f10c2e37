"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

Every package re-exports its public names, but importing a package must
not import its submodules: ``import repro.scenario`` would otherwise pull
in the kernel, the campaign engine (``multiprocessing``,
``concurrent.futures``) and the HTTP service through ``repro/__init__``.
A package instead declares, per submodule, the names it re-exports::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.sim.kernel": ("Kernel", "SimulationConfig", "SyncMode"),
    })

and the submodule is imported on the first read of one of its names
(``from repro.sim import Kernel`` included).  The value is then stored
on the package, so later reads are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]],
                            list[str]]:
    """Return the package's ``__getattr__``, ``__dir__`` and
    ``__all__`` for the names ``exports`` maps submodules to."""
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
