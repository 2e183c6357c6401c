"""Batch orchestration: sweeps, verdict aggregation, reproducible reports.

Exit codes: 0 all verified, 1 configuration or usage error, 2 verification
failure (a decaying or undetermined mode anywhere, or a failed self-test
suite).  Output files use shortest round-trip float formatting, UTF-8, LF,
and a fixed record order, so identical configurations reproduce identical
bytes up to the measured wall_time_s fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .background import RoundData, SchwarzschildParams, match_round_data
from .modes import (
    AsymptoticClass,
    AsymptoticKind,
    ModeSolution,
    classify,
    integrate_mode,
    make_ivp,
    verify_kernel_trivial,
)

__all__ = [
    "SweepConfig",
    "VerdictRecord",
    "SweepReport",
    "run_sweep",
    "emit",
    "main",
]

SCHEMA_VERSION = "2"
CSV_HEADER = "m,r0,ell,class,fitted_limit,fitted_exponent,r_max,pass,wall_time_s"


class ConfigError(ValueError):
    """Invalid sweep configuration (maps to exit code 1)."""


@dataclass
class SweepConfig:
    """Sweep parameters; r0 = 2*max(0, m) + offset for each offset."""

    masses: list[float] = field(default_factory=lambda: [-1.0, -0.25, 0.25, 1.0])
    r0_offsets: list[float] = field(default_factory=lambda: [0.1, 1.0, 10.0])
    ell_max: int = 8
    decay_q: float = 0.75
    r_max_factor: float = 1e6
    rtol: float = 1e-10
    atol: float = 1e-12
    eps_dec: float = 1e-4
    k_div: float = 1e3
    seed: int = 0

    def __post_init__(self):
        if not self.masses:
            raise ConfigError("mass list must not be empty")
        if not self.r0_offsets:
            raise ConfigError("offset list must not be empty")
        if not np.isfinite([*self.masses, *self.r0_offsets]).all():
            raise ConfigError("masses and boundary offsets must be finite")
        if any(d <= 0 for d in self.r0_offsets):
            raise ConfigError("all boundary offsets must be positive")
        if not np.isfinite(2.0 * max(0.0, *self.masses) + max(self.r0_offsets)):
            raise ConfigError("boundary radius 2*max(0, m) + offset must be finite")
        if self.ell_max < 0:
            raise ConfigError("ell_max must be nonnegative")
        if not 0.5 < self.decay_q < 1.0:
            raise ConfigError("decay_q must lie in (1/2, 1)")
        if not 1.0 < self.r_max_factor < np.inf:
            raise ConfigError("r_max_factor must be finite and exceed 1")

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        allowed = set(cls.__dataclass_fields__)
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def tasks(self):
        idx = 0
        for m in self.masses:
            for delta in self.r0_offsets:
                r0 = 2.0 * max(0.0, m) + delta
                for ell in range(self.ell_max + 1):
                    yield idx, m, r0, ell
                    idx += 1


@dataclass
class VerdictRecord:
    m: float
    r0: float
    ell: int
    class_name: str
    fitted_limit: float
    fitted_exponent: float
    r_max: float
    passed: bool
    wall_time_s: float
    # solver diagnostics (sweep.json only); None for a solver failure
    n_steps: int | None = None
    nfev: int | None = None
    stop: str | None = None

    def csv_row(self) -> str:
        return ",".join(
            [
                repr(self.m),
                repr(self.r0),
                str(self.ell),
                self.class_name,
                repr(self.fitted_limit),
                repr(self.fitted_exponent),
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


def _sweep_task(args) -> VerdictRecord:
    """One record; a solver failure is recorded as Undetermined, not raised."""
    config_fields, m, r0, ell = args
    t0 = time.perf_counter()
    try:
        verdict = verify_kernel_trivial(
            SchwarzschildParams(m=m, r0=r0),
            ell,
            decay_q=config_fields["decay_q"],
            r_max_factor=config_fields["r_max_factor"],
            rtol=config_fields["rtol"],
            atol=config_fields["atol"],
            eps_dec=config_fields["eps_dec"],
            k_div=config_fields["k_div"],
        )
        klass, passed = verdict.klass, verdict.passed
        diagnostics = {"n_steps": verdict.n_steps, "nfev": verdict.nfev, "stop": verdict.stop}
    except (RuntimeError, ValueError):
        nan = float("nan")
        klass = AsymptoticClass(AsymptoticKind.UNDETERMINED, nan, nan, nan)
        passed = False
        diagnostics = {}
    wall = time.perf_counter() - t0
    return VerdictRecord(
        m=m,
        r0=r0,
        ell=ell,
        class_name=klass.kind.value,
        fitted_limit=klass.fitted_limit,
        fitted_exponent=klass.fitted_exponent,
        r_max=klass.r_max,
        passed=passed,
        wall_time_s=wall,
        **diagnostics,
    )


def run_sweep(config: SweepConfig, jobs: int = 1) -> SweepReport:
    """One verdict per (m, r0, ell), deterministic order by task index."""
    cfg = asdict(config)
    tasks = [(cfg, m, r0, ell) for _, m, r0, ell in config.tasks()]
    if jobs <= 1:
        records = [_sweep_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_sweep_task, tasks, chunksize=4))
    return SweepReport(config=config, records=records)


def emit(report: SweepReport, out_dir: str, profile: bool = False) -> list[str]:
    """Write sweep.csv and sweep.json (and per-mode profiles on request)."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    csv_path = os.path.join(out_dir, "sweep.csv")
    try:
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for rec in report.records:
                fh.write(rec.csv_row() + "\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write {csv_path}: {exc}") from exc
    paths.append(csv_path)

    json_path = os.path.join(out_dir, "sweep.json")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(report.config),
        "records": [
            {
                "m": rec.m,
                "r0": rec.r0,
                "ell": rec.ell,
                "class": rec.class_name,
                "fitted_limit": rec.fitted_limit,
                "fitted_exponent": rec.fitted_exponent,
                "r_max": rec.r_max,
                "pass": rec.passed,
                "wall_time_s": rec.wall_time_s,
                "n_steps": rec.n_steps,
                "nfev": rec.nfev,
                "stop": rec.stop,
            }
            for rec in report.records
        ],
        "summary": {
            "n_records": len(report.records),
            "n_passed": report.n_passed,
            "all_passed": report.all_passed,
        },
    }
    try:
        with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write {json_path}: {exc}") from exc
    paths.append(json_path)

    if profile:
        for rec in report.records:
            paths.append(
                write_mode_profile(
                    out_dir,
                    SchwarzschildParams(m=rec.m, r0=rec.r0),
                    rec.ell,
                    a0=1.0,
                    r_max_factor=report.config.r_max_factor,
                    rtol=report.config.rtol,
                    atol=report.config.atol,
                )
            )
    return paths


def write_mode_profile(
    out_dir: str,
    params: SchwarzschildParams,
    ell: int,
    a0: float = 1.0,
    r_max_factor: float = 1e6,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> str:
    """Radial profile file mode_m<>_r0<>_l<>.csv with r,a,da,A,phi,Phi."""
    ivp = make_ivp(params, ell, a0)
    sol = integrate_mode(ivp, r_max_factor * params.r0, rtol=rtol, atol=atol)
    return _write_profile(out_dir, params, ell, sol)


def _write_profile(
    out_dir: str, params: SchwarzschildParams, ell: int, sol: ModeSolution
) -> str:
    os.makedirs(out_dir, exist_ok=True)
    name = f"mode_m{params.m:g}_r0{params.r0:g}_l{ell}.csv"
    path = os.path.join(out_dir, name)
    nancol = np.full_like(sol.a, np.nan)
    cols = [
        sol.radii,
        sol.a,
        sol.da,
        sol.A if sol.A is not None else nancol,
        sol.phi if sol.phi is not None else nancol,
        sol.Phi if sol.Phi is not None else nancol,
    ]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("r,a,da,A,phi,Phi\n")
            for row in zip(*cols):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
    return path


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
    sweep.add_argument("--decay-q", type=float, help="override decay exponent")
    sweep.add_argument("--r-max-factor", type=float, help="override tail extent")
    sweep.add_argument("--seed", type=int, help="override config seed")

    selftest = sub.add_parser("selftest", help="run the verification suites")
    selftest.add_argument("--refine", action="store_true",
                          help="add the grid-refinement convergence suite")
    selftest.add_argument("--mutate", help="plant a known fault (e.g. dg4-sign)")
    selftest.add_argument("--seed", type=int, default=None)

    mode = sub.add_parser("mode", help="single-mode radial profile")
    mode.add_argument("--m", type=float, required=True)
    mode.add_argument("--r0", type=float, required=True)
    mode.add_argument("--ell", type=int, required=True)
    mode.add_argument("--a0", type=float, default=1.0)
    mode.add_argument("--r-max-factor", type=float, default=1e6)
    mode.add_argument("--out-dir", default=".")

    match = sub.add_parser("match-round", help="round-data inversion")
    match.add_argument("--rho", type=float, required=True)
    match.add_argument("--h", type=float, required=True)
    match.add_argument("--json", action="store_true")

    gauge = sub.add_parser("gauge-test", help="gauge annihilation check")
    gauge.add_argument("--seed", type=int, default=None)
    gauge.add_argument("--l-band", type=int, default=4)
    return parser


def _resolved_seed(explicit: int | None, fallback: int) -> int:
    env = os.environ.get("SCHWARZSTATIC_SEED")
    if explicit is not None:
        return explicit
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"SCHWARZSTATIC_SEED is not an integer: {env!r}") from exc
    return fallback


def _cmd_sweep(args) -> int:
    data = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 1
    overrides = {
        "masses": args.masses,
        "r0_offsets": args.deltas,
        "ell_max": args.ell_max,
        "decay_q": args.decay_q,
        "r_max_factor": args.r_max_factor,
        "seed": args.seed,
    }
    data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        config = SweepConfig.from_dict(data)
        config.seed = _resolved_seed(args.seed, config.seed)
    except (ConfigError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    report = run_sweep(config, jobs=max(1, args.jobs))
    elapsed = time.perf_counter() - t0
    paths = emit(report, args.out_dir, profile=args.profile)
    for rec in report.records:
        if not rec.passed:
            print(
                f"FAIL m={rec.m:g} r0={rec.r0:g} ell={rec.ell}: {rec.class_name}"
            )
    print(f"{report.summary()} in {elapsed:.1f}s; wrote {', '.join(paths[:2])}")
    return 0 if report.all_passed else 2


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    seed = _resolved_seed(args.seed, 0)
    try:
        report = run_selftest(seed=seed, refine=args.refine, mutate=args.mutate)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for suite in report.suites:
        print(suite.line())
    print(f"selftest {'passed' if report.passed else 'FAILED'} in {report.wall_time_s:.1f}s")
    return 0 if report.passed else 2


def _cmd_mode(args) -> int:
    try:
        params = SchwarzschildParams(m=args.m, r0=args.r0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.ell < 0:
        print("error: degree must be nonnegative", file=sys.stderr)
        return 1
    r_max = args.r_max_factor * params.r0
    if not (args.r_max_factor > 1.0 and np.isfinite(r_max)):
        print("error: r_max_factor must exceed 1 and r_max_factor * r0 be finite",
              file=sys.stderr)
        return 1
    if not np.isfinite(args.a0):
        print("error: a0 must be finite", file=sys.stderr)
        return 1

    try:
        ivp = make_ivp(params, args.ell, args.a0)
        sol = integrate_mode(ivp, r_max, rtol=1e-10, atol=1e-12)
    except (RuntimeError, ValueError) as exc:
        print(f"error: mode integration failed: {exc}", file=sys.stderr)
        return 2
    klass = classify(sol)
    path = _write_profile(args.out_dir, params, args.ell, sol)
    print(
        f"mode (m={args.m:g}, r0={args.r0:g}, ell={args.ell}): {klass.kind.value}"
        f" fitted_limit={klass.fitted_limit:.6g}"
        f" fitted_exponent={klass.fitted_exponent:.4g}"
        f" r_max={klass.r_max:.6g}; wrote {path}"
    )
    return 0


def _cmd_match_round(args) -> int:
    try:
        match = match_round_data(RoundData(rho=args.rho, h=args.h))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
    from .gauge import apply_gauge, build_gauge_field
    from .sphere_ops import SphereCalc

    seed = _resolved_seed(args.seed, 0)
    rng = np.random.default_rng(seed)
    params = SchwarzschildParams(m=1.0, r0=3.0)
    calc = SphereCalc(l_max=max(6, args.l_band + 2))
    try:
        gt = random_deformation(rng, params, calc, l_band=args.l_band, gauge_fixed=False)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    X = build_gauge_field(gt, params, calc)
    out = apply_gauge(gt, X, np.linspace(3.0, 11.5, 18))
    ok = out.max_radial_residual <= 1e-8
    print(
        f"gauge annihilation residual {out.max_radial_residual:.3e}"
        f" (threshold 1e-08): {'pass' if ok else 'FAIL'}"
    )
    return 0 if ok else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        handler = {
            "sweep": _cmd_sweep,
            "selftest": _cmd_selftest,
            "mode": _cmd_mode,
            "match-round": _cmd_match_round,
            "gauge-test": _cmd_gauge_test,
        }[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
