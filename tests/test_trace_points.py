"""The benchmark's trace points still name package code.

perfbench/tracing.py wraps the methods in METHODS and attaches the counters
in HOOKS by layer name.  A renamed method breaks `perfbench --trace 1`, and a
renamed function silently drops its counter; these tests catch both.  The
module is loaded by path and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _package_module(short):
    return importlib.import_module(f"{tracing.PACKAGE}.{short}")


def _traced_layers():
    """Every layer instrument() wraps: module functions and SphereCalc methods."""
    layers = set()
    for short in tracing.MODULES:
        mod = _package_module(short)
        layers.update(
            f"{short}.{name}" for name, obj in tracing._public_functions(mod)
            if obj.__module__ == mod.__name__
        )
    sphere_calc = _package_module("sphere_ops").SphereCalc
    layers.update(f"sphere_ops.{name}" for name, _ in tracing._public_functions(sphere_calc))
    return layers


@pytest.mark.parametrize(
    "short,cls_name,attr",
    [m[:3] for m in tracing.METHODS],
    ids=[".".join(m[:3]) for m in tracing.METHODS],
)
def test_traced_method_exists(short, cls_name, attr):
    cls = getattr(_package_module(short), cls_name)
    assert attr in vars(cls), f"{short}.{cls_name} no longer defines {attr}"


@pytest.mark.parametrize("layer", sorted(tracing.HOOKS))
def test_hook_names_a_traced_function(layer):
    assert layer in _traced_layers(), f"no package function is traced as {layer}"
