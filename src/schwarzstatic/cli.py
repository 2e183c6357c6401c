"""Batch orchestration: sweeps, verdict aggregation, reproducible reports.

Exit codes: 0 all verified, 1 configuration or usage error, 2 verification
failure (a decaying or undetermined mode anywhere, or a failed self-test
suite).  One place maps failures to exit codes: the commands raise, and
main alone prints the error line and picks the code, 1 for bad input
(ConfigError) or output it cannot write (OSError), 2 for a failed mode
integration (SolverError), and 1, silently, for a closed stdout.  Output
files use shortest round-trip float formatting, UTF-8, LF, and a fixed
record order, so identical configurations reproduce identical bytes up to
the measured times (wall_time_s, integrate_s, classify_s).

A sweep integrates its modes in batches: one contiguous chunk of the task
list per job, and per chunk one integrate_modes call (stepping only) and
one classify_modes call (both readouts of every mode's growth coefficient
alpha, from the lane's end state).  A record's wall_time_s is therefore
not the time of that mode alone.  It is the sum of integrate_s, the
record's share of its batch's stepping time weighted by the mode's
right-hand-side evaluations (nfev), and classify_s, an equal share of its
batch's readout time.  The records of a batch add up to the batch's wall
time.  Profiles are evaluated only where they are written (--profile and
the mode command), after the batch's time accounting.

Every verdict is made with one set of settings, module constants of modes
that no config key or flag sets (DEFAULT_RTOL, DEFAULT_ATOL, K_DIV and
ALPHA_RTOL); sweep.json records them in its thresholds block.  Each mode
runs out to modes.lane_end(m, r0).  A record carries alpha and
alpha_drift; sweep.json also says why a record is Undetermined.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .background import RoundData, SchwarzschildParams, match_round_data
from .modes import (
    ALPHA_RTOL,
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    K_DIV,
    AsymptoticClass,
    AsymptoticKind,
    ModeSolution,
    classify,
    classify_modes,
    integrate_mode,
    integrate_modes,
    lane_end,
    make_ivp,
)

__all__ = [
    "SweepConfig",
    "VerdictRecord",
    "SweepReport",
    "run_sweep",
    "emit",
    "main",
]

SCHEMA_VERSION = "7"
CSV_HEADER = "m,r0,ell,class,alpha,alpha_drift,r_max,pass,wall_time_s"
# gauge-test's grid has l_max = l_band + 2 and dense (nodes x modes) tables,
# which grow like l_max^4: about 2 MB each at band 16, 1.8 GB at band 100
GAUGE_TEST_MAX_L_BAND = 16


class ConfigError(ValueError):
    """Bad input to a command: configuration, flags or data (maps to exit code 1)."""


class SolverError(Exception):
    """A mode integration that failed (maps to exit code 2)."""


def _config_float(key: str, value) -> float:
    """A config number as a float; JSON true/false are rejected, not read as 1/0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key}: expected a finite number, got {value!r}") from None


def _certifies(kind: AsymptoticKind) -> bool:
    """A mode is certified by any class but a decaying or undetermined one."""
    return kind not in (AsymptoticKind.DECAYS_TO_ZERO, AsymptoticKind.UNDETERMINED)


@dataclass
class SweepConfig:
    """Sweep parameters; r0 = 2*max(0, m) + offset for each offset.

    The solver tolerances, the divergence factor and the readouts'
    agreement tolerance are not settings: every sweep uses the constants of
    modes, which sweep.json records.
    """

    masses: list[float] = field(default_factory=lambda: [-1.0, -0.25, 0.25, 1.0])
    r0_offsets: list[float] = field(default_factory=lambda: [0.1, 1.0, 10.0])
    ell_max: int = 8
    seed: int = 0  # echoed into sweep.json; no verdict depends on it

    def __post_init__(self):
        if not self.masses:
            raise ConfigError("mass list must not be empty")
        if not self.r0_offsets:
            raise ConfigError("offset list must not be empty")
        # stored as floats, so a config file and the equivalent flags write
        # the same sweep.csv
        self.masses = [_config_float("masses", x) for x in self.masses]
        self.r0_offsets = [_config_float("r0_offsets", x) for x in self.r0_offsets]
        for key in ("ell_max", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if not np.isfinite([*self.masses, *self.r0_offsets]).all():
            raise ConfigError("masses and boundary offsets must be finite")
        if any(d <= 0 for d in self.r0_offsets):
            raise ConfigError("all boundary offsets must be positive")
        if not np.isfinite(2.0 * max(0.0, *self.masses) + max(self.r0_offsets)):
            raise ConfigError("boundary radius 2*max(0, m) + offset must be finite")
        for m, delta, r0 in self._boundaries():
            # a small offset added to a large horizon radius can round away
            if not r0 > 2.0 * max(0.0, m):
                raise ConfigError(
                    f"boundary radius 2*max(0, m) + offset rounds onto the horizon"
                    f" for m={m!r}, offset={delta!r}")
        if self.ell_max < 0:
            raise ConfigError("ell_max must be nonnegative")

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        allowed = set(cls.__dataclass_fields__)
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:  # a value of the wrong shape, such as a number for a list
            raise ConfigError(str(exc)) from None

    def _boundaries(self):
        """(m, offset, r0) of every boundary sphere, in record order."""
        for m in self.masses:
            for delta in self.r0_offsets:
                yield m, delta, 2.0 * max(0.0, m) + delta

    def tasks(self):
        """(m, r0, ell) of every mode, in record order."""
        for m, _, r0 in self._boundaries():
            for ell in range(self.ell_max + 1):
                yield m, r0, ell


@dataclass
class VerdictRecord:
    m: float
    r0: float
    ell: int
    class_name: str
    alpha: float
    alpha_drift: float
    r_max: float
    passed: bool
    # the record's shares of its batch's stepping time and of its batch's
    # readout time (see the module docstring)
    integrate_s: float
    classify_s: float
    # solver diagnostics (sweep.json only); None for a solver failure
    n_steps: int | None = None
    nfev: int | None = None
    stop: str | None = None
    reason: str | None = None  # why the record is Undetermined (sweep.json only)

    @property
    def wall_time_s(self) -> float:
        return self.integrate_s + self.classify_s

    def csv_row(self) -> str:
        return ",".join(
            [
                repr(self.m),
                repr(self.r0),
                str(self.ell),
                self.class_name,
                repr(self.alpha),
                repr(self.alpha_drift),
                repr(self.r_max),
                "true" if self.passed else "false",
                repr(self.wall_time_s),
            ]
        )


@dataclass
class SweepReport:
    config: SweepConfig
    records: list[VerdictRecord]

    @property
    def n_passed(self) -> int:
        return sum(r.passed for r in self.records)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == len(self.records)

    def summary(self) -> str:
        return f"{self.n_passed}/{len(self.records)} modes verified non-decaying"


def _sweep_chunk(args) -> list[VerdictRecord]:
    """The records of one batch; a solver failure is recorded as Undetermined, with its reason.

    With a profile directory, every mode whose integration succeeded also
    gets its profile, written from the solution its record was classified
    on and after the batch's time accounting.
    """
    tasks, profile_dir = args
    t0 = time.perf_counter()
    # SweepConfig admits only boundary spheres outside the horizon
    ivps = [make_ivp(SchwarzschildParams(m=m, r0=r0), ell, a0=1.0) for m, r0, ell in tasks]
    # per mode a ModeSolution, or the error that ended its integration
    sols = integrate_modes(ivps, [lane_end(ivp.m, ivp.r0) for ivp in ivps])

    # one readout pass over the batch; a mode that failed to integrate is
    # Undetermined
    nan = float("nan")
    solved = [k for k, sol in enumerate(sols) if isinstance(sol, ModeSolution)]
    classes = [None if isinstance(sol, ModeSolution) else AsymptoticClass(
        AsymptoticKind.UNDETERMINED, nan, nan, nan, f"integration failed: {sol}") for sol in sols]
    t = time.perf_counter()
    for k, klass in zip(solved, classify_modes([sols[k] for k in solved])):
        classes[k] = klass
    # each record's share of the batch's readout
    own = (time.perf_counter() - t) / len(sols)

    # the rest of the batch's time is its stepping, shared out by nfev
    stepping_s = time.perf_counter() - t0 - own * len(sols)
    weights = [sol.nfev if isinstance(sol, ModeSolution) else 0 for sol in sols]
    if sum(weights) == 0:
        weights = [1] * len(sols)
    total = sum(weights)
    records = []
    for (m, r0, ell), sol, klass, w in zip(tasks, sols, classes, weights):
        # a mode that failed to integrate has no solver diagnostics
        diagnostics = ({"n_steps": sol.n_steps, "nfev": sol.nfev, "stop": sol.stop}
                       if isinstance(sol, ModeSolution) else {})
        records.append(VerdictRecord(
            m=m, r0=r0, ell=ell, class_name=klass.kind.value,
            alpha=klass.alpha, alpha_drift=klass.alpha_drift,
            r_max=klass.r_max, passed=_certifies(klass.kind), reason=klass.reason,
            integrate_s=stepping_s * w / total, classify_s=own, **diagnostics,
        ))
    if profile_dir is not None:
        for sol in sols:
            if isinstance(sol, ModeSolution):
                _write_profile(profile_dir, sol)
    return records


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def run_sweep(
    config: SweepConfig, jobs: int = 1, profile_dir: str | None = None
) -> SweepReport:
    """One verdict per (m, r0, ell), deterministic order by task index.

    The task list is split into `jobs` contiguous chunks, each integrated as
    one batch; min(jobs, usable CPUs, chunks) worker processes share them.
    With one worker the whole list is one batch in this process.  Given an
    existing profile_dir, each integrated mode's profile is written there.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    tasks = list(config.tasks())
    n_chunks = min(jobs, len(tasks))
    workers = min(n_chunks, _usable_cpus())
    if workers <= 1:
        records = _sweep_chunk((tasks, profile_dir))
    else:
        size, extra = divmod(len(tasks), n_chunks)
        bounds = np.cumsum([0] + [size + (k < extra) for k in range(n_chunks)])
        chunks = [(tasks[lo:hi], profile_dir)
                  for lo, hi in zip(bounds[:-1], bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = [rec for part in pool.map(_sweep_chunk, chunks) for rec in part]
    return SweepReport(config=config, records=records)


def emit(report: SweepReport, out_dir: str) -> list[str]:
    """Write sweep.csv and sweep.json; an OSError means a write failed."""
    os.makedirs(out_dir, exist_ok=True)

    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in report.records:
            fh.write(rec.csv_row() + "\n")

    json_path = os.path.join(out_dir, "sweep.json")
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(_sweep_payload(report), indent=2) + "\n")
    return [csv_path, json_path]


def _sweep_payload(report: SweepReport) -> dict:
    """The content of sweep.json."""
    return {
        "schema_version": SCHEMA_VERSION,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "config": asdict(report.config),
        # the settings every verdict was made with (module constants of modes)
        "thresholds": {
            "rtol": DEFAULT_RTOL,
            "atol": DEFAULT_ATOL,
            "k_div": K_DIV,
            "alpha_rtol": ALPHA_RTOL,
        },
        "records": [
            {
                "m": rec.m,
                "r0": rec.r0,
                "ell": rec.ell,
                "class": rec.class_name,
                "alpha": rec.alpha,
                "alpha_drift": rec.alpha_drift,
                "r_max": rec.r_max,
                "pass": rec.passed,
                "wall_time_s": rec.wall_time_s,
                "integrate_s": rec.integrate_s,
                "classify_s": rec.classify_s,
                "n_steps": rec.n_steps,
                "nfev": rec.nfev,
                "stop": rec.stop,
                "reason": rec.reason,
            }
            for rec in report.records
        ],
        "summary": {
            "n_records": len(report.records),
            "n_passed": report.n_passed,
            "all_passed": report.all_passed,
        },
    }


def _profile_label(x: float) -> str:
    """Short form of x for a file name, exact enough to name x alone."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def _write_profile(out_dir: str, sol: ModeSolution) -> str:
    """Radial profile file mode_m<>_r0<>_l<>.csv with r,a,da,A,phi,Phi."""
    params = sol.ivp.params
    m, r0 = _profile_label(params.m), _profile_label(params.r0)
    path = os.path.join(out_dir, f"mode_m{m}_r0{r0}_l{sol.ivp.ell}.csv")
    nancol = np.full_like(sol.a, np.nan)
    cols = [
        sol.radii,
        sol.a,
        sol.da,
        sol.A if sol.A is not None else nancol,
        sol.phi if sol.phi is not None else nancol,
        sol.Phi if sol.Phi is not None else nancol,
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("r,a,da,A,phi,Phi\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def _make_out_dir(path: str) -> None:
    """Create the output directory; OSError if files cannot be written there."""
    os.makedirs(path, exist_ok=True)
    if not os.access(path, os.W_OK | os.X_OK):
        raise PermissionError(f"directory is not writable: {path!r}")


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


def _build_parser() -> _Parser:
    from .selftest import KNOWN_MUTATIONS

    parser = _Parser(
        prog="schwarzstatic",
        description=(
            "Numerical verification that the linearized static vacuum "
            "extension problem on Schwarzschild exteriors has no decaying "
            "kernel modes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="mode sweep with verdict aggregation")
    sweep.add_argument("--config", help="JSON config file")
    sweep.add_argument("--out-dir", default=".", help="output directory")
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep.add_argument("--profile", action="store_true", help="emit per-mode profiles")
    sweep.add_argument("--masses", type=_float_list, help="override mass list")
    sweep.add_argument("--deltas", type=_float_list, help="override r0 offsets")
    sweep.add_argument("--ell-max", type=int, help="override degree cap")

    selftest = sub.add_parser("selftest", help="run the verification suites")
    selftest.add_argument("--refine", action="store_true",
                          help="add the grid-refinement convergence suite")
    selftest.add_argument("--mutate", choices=KNOWN_MUTATIONS, help="plant a known fault")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--json", action="store_true",
                          help="print one JSON object with every suite and its wall time")

    mode = sub.add_parser("mode", help="single-mode radial profile")
    mode.add_argument("--m", type=float, required=True)
    mode.add_argument("--r0", type=float, required=True)
    mode.add_argument("--ell", type=int, required=True)
    mode.add_argument("--a0", type=float, default=1.0)
    mode.add_argument("--out-dir", default=".")

    match = sub.add_parser("match-round", help="round-data inversion")
    match.add_argument("--rho", type=float, required=True)
    match.add_argument("--h", type=float, required=True)
    match.add_argument("--json", action="store_true")

    gauge = sub.add_parser("gauge-test", help="gauge annihilation check")
    gauge.add_argument("--seed", type=int, default=0)
    gauge.add_argument("--l-band", type=int, default=4,
                       help=f"angular band of the deformation, 0..{GAUGE_TEST_MAX_L_BAND}")
    return parser


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


def _cmd_sweep(args) -> int:
    data = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
    overrides = {
        "masses": args.masses,
        "r0_offsets": args.deltas,
        "ell_max": args.ell_max,
    }
    data.update({k: v for k, v in overrides.items() if v is not None})
    config = SweepConfig.from_dict(data)

    _make_out_dir(args.out_dir)
    t0 = time.perf_counter()
    report = run_sweep(config, jobs=args.jobs,
                       profile_dir=args.out_dir if args.profile else None)
    elapsed = time.perf_counter() - t0
    paths = emit(report, args.out_dir)
    for rec in report.records:
        if not rec.passed:
            print(f"FAIL m={rec.m:g} r0={rec.r0:g} ell={rec.ell}: {rec.class_name}"
                  + (f" ({rec.reason})" if rec.reason else ""))
    print(f"{report.summary()} in {elapsed:.1f}s; wrote {', '.join(paths)}")
    return 0 if report.all_passed else 2


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    _check_seed(args.seed)
    report = run_selftest(seed=args.seed, refine=args.refine, mutate=args.mutate)
    if args.json:
        print(json.dumps({
            "passed": report.passed,
            "wall_time_s": report.wall_time_s,
            "suites": [suite.as_dict() for suite in report.suites],
        }))
    else:
        for suite in report.suites:
            print(suite.line())
        print(f"selftest {'passed' if report.passed else 'FAILED'} in {report.wall_time_s:.1f}s")
    return 0 if report.passed else 2


def _cmd_mode(args) -> int:
    try:
        params = SchwarzschildParams(m=args.m, r0=args.r0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.ell < 0:
        raise ConfigError("degree must be nonnegative")
    if not np.isfinite(args.a0):
        raise ConfigError("a0 must be finite")
    if abs(args.a0) < sys.float_info.min:
        # the mode is linear in a0, but a zero a0 is trivial data and a
        # subnormal one has lost the digits that fix the verdict's sign
        raise ConfigError(f"a0 must be a nonzero normal float, got a0={args.a0:g}")
    if abs(args.a0) > sys.float_info.max / K_DIV:
        # the k_div threshold K_DIV |a0| must stay finite
        raise ConfigError(f"|a0| must be at most {sys.float_info.max / K_DIV:g},"
                          f" got a0={args.a0:g}")

    try:
        sol = integrate_mode(make_ivp(params, args.ell, args.a0),
                             lane_end(params.m, params.r0))
    except RuntimeError as exc:  # modes already prefixes "mode integration failed: "
        raise SolverError(str(exc)) from None
    except ValueError as exc:
        raise SolverError(f"mode integration failed: {exc}") from None
    klass = classify(sol)
    _make_out_dir(args.out_dir)
    path = _write_profile(args.out_dir, sol)
    print(
        f"mode (m={args.m:g}, r0={args.r0:g}, ell={args.ell}): {klass.kind.value}"
        f" alpha={klass.alpha:.6g} alpha_drift={klass.alpha_drift:.2g}"
        f" r_max={klass.r_max:.6g}"
        + (f" ({klass.reason})" if klass.reason else "") + f"; wrote {path}"
    )
    return 0 if _certifies(klass.kind) else 2


def _cmd_match_round(args) -> int:
    try:
        match = match_round_data(RoundData(rho=args.rho, h=args.h))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.json:
        print(
            json.dumps(
                {
                    "m": match.m,
                    "r0": match.r0,
                    "horizon_degenerate": match.horizon_degenerate,
                }
            )
        )
    else:
        flag = " (horizon-degenerate)" if match.horizon_degenerate else ""
        print(f"m={match.m!r} r0={match.r0!r}{flag}")
    return 0


def _cmd_gauge_test(args) -> int:
    from .fields import random_deformation
    from .gauge import GEODESIC_GAUGE_TOL, apply_gauge, build_gauge_field
    from .sphere_ops import SphereCalc

    _check_seed(args.seed)
    if not 0 <= args.l_band <= GAUGE_TEST_MAX_L_BAND:
        raise ConfigError(f"--l-band must lie in 0..{GAUGE_TEST_MAX_L_BAND}, got {args.l_band}")
    rng = np.random.default_rng(args.seed)
    params = SchwarzschildParams(m=1.0, r0=3.0)
    calc = SphereCalc(l_max=max(6, args.l_band + 2))
    gt = random_deformation(rng, params, calc, l_band=args.l_band, gauge_fixed=False)
    X = build_gauge_field(gt, params, calc)
    out = apply_gauge(gt, X, np.linspace(3.0, 11.5, 18))
    ok = out.max_radial_residual <= GEODESIC_GAUGE_TOL
    print(
        f"gauge annihilation residual {out.max_radial_residual:.3e}"
        f" (threshold {GEODESIC_GAUGE_TOL:g}): {'pass' if ok else 'FAIL'}"
    )
    return 0 if ok else 2


def main(argv=None) -> int:
    """Run one command; the one place that maps its failures to exit codes."""
    args = _build_parser().parse_args(argv)
    handler = {"sweep": _cmd_sweep, "selftest": _cmd_selftest, "mode": _cmd_mode,
               "match-round": _cmd_match_round, "gauge-test": _cmd_gauge_test}[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the recipe of the signal module's note on SIGPIPE: what is still
        # buffered goes to devnull, so nothing is reported at exit either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        message, code = f"cannot write output: {exc}", 1
    except ConfigError as exc:
        message, code = exc, 1
    except SolverError as exc:
        message, code = exc, 2
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
