#!/usr/bin/env python3
"""Benchmark of schwarzstatic, end to end and layer by layer.

    python3 perfbench/run.py --workload {sweep,selftest,gauge} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is loaded from ``src/``.
The workload's inputs come from the seed.  One untimed small copy of the
workload warms the process, then units run back to back for ``--seconds``
(at least ``MIN_UNITS``), with tracing off.  ``--trace 1`` runs untraced
units for half of ``--seconds``, then ``TRACED_UNITS`` units traced by
``tracing.instrument``, and reports the per-layer metrics instead of the
end-to-end ones; the spans are written to
``.bench_out/trace-<workload>-seed<seed>.json``.

Every line but the last is a readable report: the environment block, then
each metric with its unit, median, tail and sample count.  The last line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``, whose
counts cover the distinct inputs (see ``tally``), so they depend on the seed
alone.  A wrong output (a class other than the known answer, a sweep whose
``--jobs 1`` and ``--jobs N`` files differ, a self-test suite or gauge audit
over threshold, a repeat of the same inputs with other verdict counts) sets
``correct`` to false and the exit code to 1; a source tree that cannot be
imported exits 2 without a result.

End-to-end metrics, the same names for every workload:

* ``setup_s`` -- median over ``SETUP_PROBES`` fresh interpreters, started
  between the units, of the time until the workload's entry modules (numpy
  and scipy included) are loaded.
* ``mean_verdict_s`` -- the mean over the run's units of the seconds until
  the unit's verdict: the whole ``sweep --jobs <nproc>``, ``selftest
  --refine``, or one gauge unit.  It is the run's throughput, inverted.
* ``mean_serial_verdict_s`` -- the same for the unit in a single process:
  ``sweep --jobs 1``.  ``selftest`` and ``gauge`` never start a pool, so for
  them it is the same samples as ``mean_verdict_s``.

The gated timings are means, not medians or minima.  On a shared 2-core
host the same code ran at two speeds, switching every few seconds in an
unsteady mix, and the mix drifted over minutes.  The mean weighs each
stretch by how long it lasted, so it follows the mix smoothly; a median or a
minimum jumps with whichever speed its few samples land on.  Over five
seeded runs per workload the interquartile range over the median of the run
means was 5-13%, of the run medians 8-21% and of the run minima 10-27%.
The readable report prints each timing's mean, median, tail and sample
count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import launch

# One BLAS thread: with --jobs nproc the pool already fills every core, and in
# one process the BLAS pool was slower and noisier at these matrix sizes.
BLAS_THREADS = 1
SETUP_PROBES = 7
MIN_UNITS = 3
MIN_TRACED_UNITS = 2
# Spans stay in memory until the run ends; the gauge unit records ~40k.
TRACED_UNITS = 3

# Per-layer metrics.  Self time is given as a share of the traced units' wall
# time, so a layer that a workload never calls reads 0 rather than a time.
TIMED_LAYERS = (
    "modes.integrate_mode", "modes.classify",
    "curvature_lab.linearize_at_schwarzschild", "curvature_lab.conformal_static_residual",
    "curvature_lab.boundary_data", "curvature_lab.gradient_components",
    "curvature_lab.ricci_tensor", "curvature_lab.adapted_frame_components",
    "sphere_ops.SphereCalc.init", "sphere_ops.angular_derivatives", "harmonics.make_grid",
    "gauge.build_gauge_field", "gauge.apply_gauge", "gauge.flow_lie_derivative",
    "gauge.FlowLieDeformation.init", "gauge.GaugeVectorField.x_perp",
    "fields.DeformationField.eval", "background.background_at",
)
SELF_ONLY_LAYERS = (
    "cli.emit", "structure.structure_residuals", "structure.from_field",
    "structure.from_samples", "structure.decoupled_residual",
)
SELFTEST_GUARDS = (  # metric name, words that identify the suite by its name
    ("selftest.harmonics.residual", "harmonics"),
    ("selftest.gauge.residual", "gauge annihilation"),
    ("selftest.structure_oracle.residual", "linearization oracle"),
    ("selftest.conservation.residual", "conservation"),
    ("selftest.mode_pde.residual", "decoupled equation"),
    ("selftest.convergence.ratio", "convergence"),
)


def jobs_for(workload: str) -> int:
    """Worker processes: the sweep fills every core, the other workloads use one."""
    return len(os.sched_getaffinity(0)) if workload == "sweep" else 1


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "selftest", "gauge"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- statistics ------------------------------------------------------------

def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (100 = the maximum)."""
    return 100.0 * (1.0 - 10.0 / n) if n >= 20 else 100.0


def summary(values, higher_is_better=False) -> dict:
    """Median, tail on the bad side, and count."""
    vals = sorted(values)
    q = tail_percentile(len(vals))
    k = min(len(vals) - 1, int(round(q / 100.0 * (len(vals) - 1))))
    tail = vals[len(vals) - 1 - k] if higher_is_better else vals[k]
    label = "max" if q == 100.0 else f"p{q:.4g}"
    if higher_is_better:
        label = "min" if q == 100.0 else f"p{100.0 - q:.4g}"
    return {"median": statistics.median(vals), "mean": statistics.fmean(vals), "tail": tail,
            "tail_label": label, "n": len(vals)}


def _line(name, unit, s, scale=1.0):
    return (f"{name:<34} {s['median'] * scale:12.6g} {unit:<5} median; mean {s['mean'] * scale:.6g}; "
            f"{s['tail_label']} {s['tail'] * scale:.6g}; n={s['n']}")


# -- environment -------------------------------------------------------------

def _blas_vendor():
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def _git_sha():
    if not os.path.isdir(os.path.join(launch.ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", launch.ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_digest():
    """sha256 over src/ python files, so a checkout without git is identifiable."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(launch.SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, launch.SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(args, nproc, jobs, standin):
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_vendor(),
        "blas_threads": {name: os.environ[name] for name in launch.BLAS_ENV},
        "nproc": nproc,
        "jobs": jobs,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "lpmn_standin": standin,
    }


# -- measurement -------------------------------------------------------------

def setup_probe(workload: str) -> float:
    """Seconds from starting a fresh interpreter until the entry modules are loaded."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, launch.__file__, workload],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


def run_units(wl, seconds: float, min_units: int, tracer=None, between=None):
    """Units back to back for about `seconds`; (outcomes, unit walls).

    A further unit starts while its expected midpoint falls before the end, so
    runs overshoot `seconds` by half a unit at most on average.  `between`
    runs after each unit, outside the unit's time.
    """
    outcomes, walls = [], []
    t_end = time.perf_counter() + seconds
    while (len(outcomes) < min_units
           or time.perf_counter() + 0.5 * statistics.median(walls) < t_end):
        if tracer is not None:
            tracer.unit = len(outcomes)
        t0 = time.perf_counter()
        outcomes.append(wl.run())
        walls.append(time.perf_counter() - t0)
        if between is not None:
            between()
    return outcomes, walls


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end_report(name, outcomes, setup, jobs):
    """Readable lines with the workload's own metric names, and the gated metrics."""
    from workloads import AUDIT_TOL, RECOVERY_TOL

    verdict = [o.times["verdict"] for o in outcomes]
    serial = [o.times.get("serial", o.times["verdict"]) for o in outcomes]
    lines = [_line("setup_s", "s", summary(setup))]
    if name == "sweep":
        modes = outcomes[0].detail["modes"]
        lines.append(_line(f"sweep.modes_per_s (--jobs {jobs})", "1/s",
                           summary([modes / t for t in verdict], higher_is_better=True)))
        lines.append(_line("sweep.serial_modes_per_s (--jobs 1)", "1/s",
                           summary([modes / t for t in serial], higher_is_better=True)))
        mode_s = [t for o in outcomes for t in o.detail["mode_s"]]
        lines.append(_line("sweep.mode_ms (--jobs 1, per record)", "ms", summary(mode_s), 1e3))
    elif name == "selftest":
        lines.append(_line("selftest.verdict_s", "s", summary(verdict)))
    else:
        lines.append(_line("gauge.check_s", "s", summary(verdict)))
        for key, label, tol in (("audit", "gauge.max_radial_residual", AUDIT_TOL),
                                ("recovery", "gauge.recovery_err", RECOVERY_TOL)):
            worst = max(o.detail[key] for o in outcomes)
            lines.append(f"{label:<34} {worst:12.6g}       (threshold {tol:.0e})")
    for label, values in (("setup_s", setup), ("verdict_s", verdict), ("serial_verdict_s", serial)):
        lines.append(f"samples {label} " + " ".join(f"{v:.4f}" for v in values))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "mean_verdict_s": (statistics.fmean(verdict), "s"),
        "mean_serial_verdict_s": (statistics.fmean(serial), "s"),
    }
    return lines, metrics


def per_layer_metrics(tracer, traced, traced_walls, untraced, untraced_walls, jobs, rss_mb):
    from tracing import MODULES, layer_stats, top_level_s

    stats = layer_stats(tracer.spans)
    units = len(traced)
    wall = sum(traced_walls)
    c = tracer.counters
    m = {}

    def self_s(layer):
        return stats[layer]["self_s"] if layer in stats else 0.0

    for layer in TIMED_LAYERS:
        m[f"{layer}.calls"] = (stats[layer]["calls"] / units if layer in stats else 0.0, "count")
        m[f"{layer}.self_frac"] = (self_s(layer) / wall, "frac")
    for layer in SELF_ONLY_LAYERS:
        m[f"{layer}.self_frac"] = (self_s(layer) / wall, "frac")
    for mod in MODULES:
        m[f"{mod}.self_frac"] = (
            sum(s["self_s"] for k, s in stats.items() if k.startswith(mod + ".")) / wall, "frac")

    attempts = c["modes.attempts"]
    for key in ("early_exit", "tail_phase", "flat_branch"):
        m[f"modes.{key}_frac"] = (c[f"modes.{key}"] / attempts if attempts else 0.0, "frac")
    m["modes.samples_per_mode"] = (c["modes.samples"] / attempts if attempts else 0.0, "count")
    m["curvature_lab.radial_stencil_flops"] = (c["curvature_lab.radial_stencil_flops"] / units, "flop")
    m["sphere_ops.transform_flops"] = (c["sphere_ops.transform_flops"] / units, "flop")
    ad_calls = stats.get("sphere_ops.angular_derivatives", {}).get("calls", 0)
    m["sphere_ops.angular_derivatives.rows_per_call"] = (
        c["sphere_ops.angular_derivatives.rows"] / ad_calls if ad_calls else 0.0, "count")

    # pool figures come from the untraced sweep units: pool workers' spans
    # stay in the workers, and tracing would slow the two passes unequally
    pooled = [o for o in untraced if "serial" in o.times]
    if pooled:
        t_par = statistics.median(o.times["verdict"] for o in pooled)
        t_ser = statistics.median(o.times["serial"] for o in pooled)
        work = statistics.median(o.detail["pool_work_s"] for o in pooled)
        m["cli.pool_efficiency"] = (t_ser / (jobs * t_par), "ratio")
        m["cli.pool.overhead_frac"] = ((t_par - work / jobs) / t_par, "frac")
    else:
        m["cli.pool_efficiency"] = (0.0, "ratio")
        m["cli.pool.overhead_frac"] = (0.0, "frac")

    report = tracer.captured.get("selftest.run_selftest")
    for metric, words in SELFTEST_GUARDS:
        hits = [s.measured for s in (report.suites if report else ()) if words in s.name]
        m[metric] = (max(hits) if hits else 0.0, "ratio" if metric.endswith("ratio") else "abs")
    m["gauge.max_radial_residual"] = (c["gauge.max_radial_residual"], "abs")
    m["gauge.recovery_err"] = (max((o.detail.get("recovery", 0.0) for o in traced), default=0.0), "rel")

    m["trace.overhead_frac"] = (statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
                                "frac")
    m["trace.top_cover_frac"] = (top_level_s(tracer.spans) / wall, "frac")
    m["process.peak_rss_mb"] = (rss_mb, "MB")
    return m, stats


def layer_report(stats, wall):
    lines = [f"{'layer':<44} {'calls':>9} {'self_s':>9} {'share':>7} {'median_ms':>10} {'tail_ms':>9}"]
    for layer, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        d = summary(s["durations_s"])
        lines.append(f"{layer:<44} {s['calls']:9d} {s['self_s']:9.4f} {s['self_s'] / wall:7.2%} "
                     f"{d['median'] * 1e3:10.4g} {d['tail'] * 1e3:9.4g} ({d['tail_label']})")
    return lines


# -- main --------------------------------------------------------------------

@dataclass
class Measurement:
    lines: list[str]  # the readable report
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    outcomes: list  # every unit run, warm-up included
    tracer: object = None


def measure(name: str, seed: int, seconds: float, trace: bool, jobs: int, work_dir: str,
            small: bool = False) -> Measurement:
    """Warm up, then run the workload's units untraced (and traced, with `trace`)."""
    import tracing
    import workloads

    cls = workloads.WORKLOADS[name]
    # the warm-up unit is a small copy of the workload: it loads what the
    # units use lazily, so that pool workers fork from a warm process
    warm = cls(seed, jobs, work_dir, small=True).run()
    wl = cls(seed, jobs, work_dir, small=small)
    if not trace:
        # set-up probes are spread between the units, so that both sample
        # the same stretch of machine load
        setup = []
        due = [time.perf_counter()]

        def probe():
            if time.perf_counter() >= due[0]:
                setup.append(setup_probe(name))
                due[0] = time.perf_counter() + seconds / SETUP_PROBES

        untraced, _ = run_units(wl, seconds, MIN_UNITS, between=probe)
        while len(setup) < SETUP_PROBES:
            setup.append(setup_probe(name))
        lines, metrics = end_to_end_report(name, untraced, setup, jobs)
        return Measurement(lines, metrics, [warm] + untraced)

    untraced, untraced_walls = run_units(wl, seconds / 2, MIN_TRACED_UNITS)
    rss_mb = peak_rss_mb()  # before the spans take memory of their own
    tracer = tracing.Tracer()
    extra = [(wl, "y_fn", "bench.generating_field")] if hasattr(wl, "y_fn") else []
    with tracing.instrument(tracer, extra_modules=[workloads], extra_layers=extra):
        traced, traced_walls = run_units(wl, 0.0, TRACED_UNITS, tracer)
    metrics, stats = per_layer_metrics(tracer, traced, traced_walls, untraced, untraced_walls,
                                       jobs, rss_mb)
    lines = layer_report(stats, sum(traced_walls))
    lines += [f"{k:<50} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    return Measurement(lines, metrics, [warm] + untraced + traced, tracer)


def tally(outcomes):
    """(attempted, failed, wrong outputs) over the distinct inputs of a run.

    `outcomes` is the warm-up unit, then units that all repeat one set of
    inputs, so only the warm-up and the first of those count their checks:
    the totals depend on the seed, not on how many units fit in the time.
    A repeat whose verdict counts differ from the first's is a wrong output.
    """
    warm, first, repeats = outcomes[0], outcomes[1], outcomes[2:]
    wrong = [w for o in outcomes for w in o.wrong]
    wrong += [f"unit {i}: {o.failed} of {o.attempted} checks failed, first unit {first.failed} of "
              f"{first.attempted} on the same inputs"
              for i, o in enumerate(repeats, start=2)
              if (o.attempted, o.failed) != (first.attempted, first.failed)]
    return warm.attempted + first.attempted, warm.failed + first.failed, wrong


def main(argv=None) -> int:
    args = _parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    jobs = jobs_for(args.workload)
    launch.pin_blas_threads(BLAS_THREADS)
    try:
        standin = launch.prepare()
        import tracing
        import workloads  # noqa: F401  (imports the package)
    except ImportError as exc:
        print(f"perfbench: cannot import schwarzstatic from {launch.SRC}: {exc}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args, nproc, jobs, standin)))
    out_root = os.path.join(launch.ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), jobs, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = result.lines
    if result.tracer is not None:
        trace_path = os.path.join(out_root, f"trace-{args.workload}-seed{args.seed}.json")
        tracing.write_spans(trace_path, result.tracer)
        lines.append(f"spans written to {os.path.relpath(trace_path, launch.ROOT)}")

    attempted, failed, wrong = tally(result.outcomes)
    lines.append(f"{'failed_frac':<34} {failed / attempted:12.6g}       "
                 f"({failed} failed of {attempted} distinct checks, warm-up unit included)")
    for line in lines + [f"WRONG {w}" for w in wrong]:
        print(line)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
