"""Spans around the package's layer boundaries, recorded from outside it.

``instrument(tracer)`` replaces every public function of each package module,
and the public methods listed in ``METHODS``, with a wrapper that records a
span: layer name, start, end, parent span and unit number.  Names that other
modules bound with ``from .x import f`` (``selftest.linearize_at_schwarzschild``,
``cli.integrate_mode``, the benchmark's own imports) are rebound as well, and
everything is restored on exit.  Spans stay in memory; ``write_spans`` saves
them when the run ends.

Times are integer nanoseconds, so a span's self time -- its duration minus
the durations of its children, which run one after another inside it -- is
exact and never negative.  A few layers also count work (modes integrated,
transform and stencil flops) in ``tracer.counters``; the hooks read only
arguments and results.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "schwarzstatic"
MODULES = (
    "background", "harmonics", "sphere_ops", "fields", "curvature_lab", "gauge",
    "structure", "modes", "fd", "cli", "selftest",
)
SPHERE_TRANSFORMS = ("coeffs", "from_coeffs", "dtheta", "dphi", "laplacian_scalar",
                     "angular_derivatives")


# (module, class, attribute, layer) for methods traced besides SphereCalc's,
# which are all traced as sphere_ops.<method>; the component evaluators of a
# deformation share one layer, since callers ask for them interchangeably
METHODS = (
    ("sphere_ops", "SphereCalc", "__init__", "sphere_ops.SphereCalc.init"),
    ("structure", "FoliationDeformation", "from_field", "structure.from_field"),
    ("structure", "FoliationDeformation", "from_samples", "structure.from_samples"),
    ("gauge", "FlowLieDeformation", "__init__", "gauge.FlowLieDeformation.init"),
    ("modes", "ModeSolution", "eval", "modes.ModeSolution.eval"),
    *(("gauge", "GaugeVectorField", n, f"gauge.GaugeVectorField.{n}")
      for n in ("x_perp", "x_tan", "cartesian")),
    *(("fields", "DeformationField", n, "fields.DeformationField.eval")
      for n in ("rr", "ra", "ab", "u", "u_gradient_cart", "cartesian")),
)


def _public_functions(owner):
    return [(n, v) for n, v in vars(owner).items()
            if inspect.isfunction(v) and not n.startswith("_")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start_ns, end_ns, parent index or None, unit]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.captured: dict[str, object] = {}  # results that hooks keep, by layer
        self.unit = 0
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, clock(), 0, stack[-1] if stack else None, self.unit]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced


# -- counters read from arguments and results ------------------------------

def _count_mode(tracer, args, sol):
    from schwarzstatic.modes import PHASE_SWITCH

    ivp, c = args[0], tracer.counters
    c["modes.attempts"] += 1
    c["modes.early_exit"] += bool(sol.diverged)
    c["modes.flat_branch"] += bool(ivp.flat_branch)
    c["modes.tail_phase"] += (not ivp.flat_branch) and sol.r_max_used > PHASE_SWITCH * ivp.r0
    c["modes.samples"] += len(sol.radii)


def _transform_hook(kind: str):
    """Dense transform flops: 2 * rows * n_nodes * n_modes per matrix product.

    angular_derivatives, dtheta, dphi and laplacian_scalar call coeffs for
    the analysis, which counts itself; they add only their syntheses.
    """
    syntheses = 2 if kind == "angular_derivatives" else 1

    def hook(tracer, args, result):
        calc, data = args[0], np.asarray(args[1])
        n, m = calc.grid.n_nodes, calc.grid.n_modes
        rows = data.size // (m if kind == "from_coeffs" else n)
        tracer.counters["sphere_ops.transform_flops"] += 2.0 * syntheses * rows * n * m
        if kind == "angular_derivatives":
            tracer.counters["sphere_ops.angular_derivatives.rows"] += rows

    return hook


def _stencil_hook(tracer, args, result):
    """Dense radial stencil: D1 (n_r x n_r) applied to every column of the samples."""
    grid, data = args[0], np.asarray(args[1])
    tracer.counters["curvature_lab.radial_stencil_flops"] += 2.0 * grid.n_r * data.size


def _gauge_audit_hook(tracer, args, result):
    c = tracer.counters
    c["gauge.max_radial_residual"] = max(c["gauge.max_radial_residual"], result.max_radial_residual)


def _capture_report(tracer, args, report):
    tracer.captured["selftest.run_selftest"] = report


HOOKS = {
    "modes.integrate_mode": _count_mode,
    "curvature_lab.gradient_components": _stencil_hook,
    "curvature_lab.gradient_scalar": _stencil_hook,
    "gauge.apply_gauge": _gauge_audit_hook,
    "selftest.run_selftest": _capture_report,
    **{f"sphere_ops.{k}": _transform_hook(k) for k in SPHERE_TRANSFORMS},
}


@contextlib.contextmanager
def instrument(tracer: Tracer, extra_modules=(), extra_layers=()):
    """Trace the package's layers while the block runs; restore them after.

    extra_modules are searched for names bound to package functions;
    extra_layers are (object, attribute, layer) triples of benchmark-side
    callables traced as layers of their own.
    """
    patched = []  # (owner, attribute, original value)
    replaced = {}  # id(original function) -> (original, wrapper)

    def patch(owner, attr, value):
        patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES}
    try:
        for short, mod in modules.items():
            for name, obj in _public_functions(mod):
                if obj.__module__ == mod.__name__:
                    layer = f"{short}.{name}"
                    replaced[id(obj)] = (obj, tracer.wrap(layer, obj, HOOKS.get(layer)))
        sphere_calc = modules["sphere_ops"].SphereCalc
        methods = [("sphere_ops", "SphereCalc", n, f"sphere_ops.{n}")
                   for n, _ in _public_functions(sphere_calc)]
        for short, cls_name, attr, layer in methods + list(METHODS):
            cls = getattr(modules[short], cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                patch(cls, attr, classmethod(tracer.wrap(layer, raw.__func__, HOOKS.get(layer))))
            else:
                patch(cls, attr, tracer.wrap(layer, raw, HOOKS.get(layer)))
        for owner, attr, layer in extra_layers:
            patch(owner, attr, tracer.wrap(layer, getattr(owner, attr)))
        # rebind the function everywhere it was bound by name
        importers = [m for n, m in list(sys.modules.items())
                     if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in importers + list(extra_modules):
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patch(mod, name, hit[1])
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# -- aggregation -------------------------------------------------------------

def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_stats(spans) -> dict[str, dict]:
    """Per layer: calls, self seconds, and every span's duration in seconds."""
    stats: dict[str, dict] = {}
    for (layer, start, end, _, _), own in zip(spans, self_times_ns(spans)):
        s = stats.setdefault(layer, {"calls": 0, "self_s": 0.0, "durations_s": []})
        s["calls"] += 1
        s["self_s"] += own * 1e-9
        s["durations_s"].append((end - start) * 1e-9)
    return stats


def top_level_s(spans) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent is None) * 1e-9


def write_spans(path: str, tracer: Tracer) -> None:
    """Save spans as {"fields": [...], "spans": [[...], ...]} with times in ns."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["layer", "start_ns", "end_ns", "parent", "unit"],
                   "spans": tracer.spans}, fh)
        fh.write("\n")
