"""The benchmark's trace points still name package code.

perfbench/tracing.py wraps the methods in METHODS and attaches the counters
in HOOKS by layer name.  A renamed method breaks `perfbench --trace 1`, and a
renamed function silently drops its counter; these tests catch both.  The
per-layer metrics that BENCHMARK.json declares must name traced layers too.
The module is loaded by path and left as it is.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING_PATH = ROOT / "perfbench" / "tracing.py"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"


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


def _per_layer_layers():
    """Layers named by `<layer>.calls` / `<layer>.self_frac` metrics.

    `<module>.self_frac` is a module's aggregate self time, not a layer.
    """
    spec = json.loads(BENCHMARK_PATH.read_text(encoding="utf-8"))
    names = set()
    for metric in spec["per_layer"]:
        for suffix in (".calls", ".self_frac"):
            if metric["name"].endswith(suffix):
                names.add(metric["name"][: -len(suffix)])
    return sorted(names - set(tracing.MODULES))


@pytest.mark.parametrize("layer", _per_layer_layers())
def test_per_layer_metric_names_a_traced_layer(layer):
    # without the wrapper, deleting or renaming the function silently zeroes the metric
    traced = _traced_layers() | {m[3] for m in tracing.METHODS}
    assert layer in traced, f"BENCHMARK.json reads layer {layer}, which nothing traces"
