"""Start-up shared by the benchmark process and its set-up probes.

The benchmark runs the package from the source tree: it puts ``src/`` on
``sys.path`` and changes nothing under it.  scipy 1.15 removed
``scipy.special.lpmn``, which ``schwarzstatic.harmonics`` still imports at
module level; it is called only in the ``except ImportError`` fallback of
``_legendre_tables``, which is dead whenever ``assoc_legendre_p_all`` exists.
So when the attribute is missing a stand-in that raises is installed, and the
measured code paths stay exactly those of the package.

Run as a script, ``python3 perfbench/launch.py <workload>`` is one set-up
probe: a fresh interpreter imports the workload's entry modules and prints
``time.monotonic()`` at the moment they are loaded.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Modules a user of each workload waits for before the first verdict starts.
ENTRY_MODULES = {
    "sweep": ("schwarzstatic.cli",),
    "selftest": ("schwarzstatic.cli", "schwarzstatic.selftest"),
    "gauge": ("schwarzstatic.gauge", "schwarzstatic.fields", "schwarzstatic.sphere_ops"),
}


def pin_blas_threads(threads: int) -> None:
    """Fix the BLAS pool size; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for name in BLAS_ENV:
        os.environ[name] = str(threads)


def _lpmn_standin(*args, **kwargs):
    raise NotImplementedError("scipy.special.lpmn is not available in this scipy")


def prepare() -> bool:
    """Put src/ on the path and patch scipy; True when the stand-in is used."""
    if not os.path.isdir(SRC):
        raise ImportError(f"no source tree at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import scipy.special

    if hasattr(scipy.special, "lpmn"):
        return False
    scipy.special.lpmn = _lpmn_standin
    return True


def import_entry_modules(workload: str) -> None:
    for name in ENTRY_MODULES[workload]:
        importlib.import_module(name)


if __name__ == "__main__":
    prepare()
    import_entry_modules(sys.argv[1])
    print(repr(time.monotonic()))
