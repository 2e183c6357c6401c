"""Built-in verification suites: residual cross-checks at documented tolerances.

Each suite exercises one dual-route check (hand-coded evaluators against an
independent oracle) and reports the measured figure against its threshold.
The structure suite honors the fault-injection hooks in the structure module,
which is how the mutation option demonstrates that a planted sign error is
actually caught.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import structure
from .background import SchwarzschildParams, background_at
from .curvature_lab import (
    linearize_at_schwarzschild,
    make_lab_grid,
    oracle_combinations,
)
from .fields import random_deformation
from .gauge import GEODESIC_GAUGE_TOL, apply_gauge, build_gauge_field
from .harmonics import make_grid
from .modes import integrate_modes, make_ivp
from .sphere_ops import SphereCalc
from .structure import FoliationDeformation, decoupled_residual, structure_residuals

__all__ = ["SuiteResult", "SelfTestReport", "run_selftest", "KNOWN_MUTATIONS"]

KNOWN_MUTATIONS = ("dg4-sign",)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""
    wall_time_s: float = 0.0

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: measured {self.measured:.3e}"
            f" vs threshold {self.threshold:.1e} {self.detail}".rstrip()
        )

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "threshold": self.threshold,
            "passed": bool(self.passed),  # the suites compare numpy floats; json rejects np.bool_
            "wall_time_s": self.wall_time_s,
        }


@dataclass
class SelfTestReport:
    suites: list[SuiteResult]
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(suite.passed for suite in self.suites)


def _suite_harmonics(rng) -> SuiteResult:
    grid = make_grid(8)
    gram = grid.analysis @ grid.Y
    gram_err = np.abs(gram - np.eye(grid.n_modes)).max()
    c = np.zeros(grid.n_modes)
    c[:36] = rng.standard_normal(36)
    field = grid.Y @ c
    round_err = np.abs(grid.analysis @ field - c).max()
    measured = max(gram_err, round_err)
    return SuiteResult(
        name="harmonics round-trip and Gram identity",
        passed=measured <= 1e-12,
        measured=measured,
        threshold=1e-12,
    )


def _suite_gauge(rng) -> SuiteResult:
    params = SchwarzschildParams(m=1.0, r0=3.0)
    calc = SphereCalc(l_max=8)
    gt = random_deformation(rng, params, calc, l_band=4, gauge_fixed=False)
    X = build_gauge_field(gt, params, calc)
    out = apply_gauge(gt, X, np.linspace(3.0, 11.5, 18))
    measured = out.max_radial_residual
    return SuiteResult(
        name="gauge annihilation of radial components",
        passed=measured <= GEODESIC_GAUGE_TOL,
        measured=measured,
        threshold=GEODESIC_GAUGE_TOL,
    )


def _suite_structure_oracle(rng) -> SuiteResult:
    params = SchwarzschildParams(m=1.0, r0=3.0)
    calc = SphereCalc(l_max=12)
    grid = make_lab_grid(params, r_outer=4.5, n_r=129, calc=calc)
    field = random_deformation(rng, params, calc, l_band=3, gauge_fixed=True)
    d = FoliationDeformation.from_field(field, grid.r)
    res = structure_residuals(d)
    combos = oracle_combinations(grid, field, linearize_at_schwarzschild(grid, field))
    measured = max(
        np.abs(res[k] - combos[k])[4:-4].max() for k in ("dg2", "dg4", "dg5", "dg3", "dg1")
    )
    return SuiteResult(
        name="structure equations vs linearization oracle",
        passed=measured <= 1e-6,
        measured=measured,
        threshold=1e-6,
    )


def _suite_conservation(rng) -> SuiteResult:
    from scipy.integrate import solve_ivp

    params = SchwarzschildParams(m=1.0, r0=3.0)
    calc = SphereCalc(l_max=8)
    field = random_deformation(rng, params, calc, l_band=3, gauge_fixed=True)
    h0 = calc.random_band_limited(rng, 3)

    def rhs(r, y):
        bg = background_at(params, r)
        return -bg.H_sc * y - 4.0 * bg.du_sc * field.u(r, 1)

    sol = solve_ivp(rhs, (3.0, 30.0), h0, method="DOP853", rtol=1e-12, atol=1e-14,
                    dense_output=True)
    r = np.geomspace(3.0, 30.0, 40)
    invariant = (r * (r - 2.0))[:, None] * sol.sol(r).T + 4.0 * field.u(r)
    scale = max(np.abs(invariant[0]).max(), 1e-3)
    measured = float(np.abs(invariant - invariant[0]).max() / scale)
    return SuiteResult(
        name="radial conservation of rho2*H~ + 4m*u~",
        passed=measured <= 1e-9,
        measured=measured,
        threshold=1e-9,
    )


def _suite_mode_pde(rng) -> SuiteResult:
    params = SchwarzschildParams(m=1.0, r0=3.0)
    calc = SphereCalc(l_max=8)
    from .harmonics import mode_position

    worst = 0.0
    ells = (0, 2)
    # one lockstep batch; each lane rounds exactly as it would alone
    sols = integrate_modes([make_ivp(params, ell, 1.0) for ell in ells], [6.0] * len(ells),
                           rtol=3e-14, atol=1e-16, k_div=np.inf)
    for ell, sol in zip(ells, sols):
        if isinstance(sol, Exception):
            raise sol
        r = np.linspace(3.0, 3.6, 321)
        a, da = sol.eval(r)
        y = calc.grid.Y[:, mode_position(ell, min(ell, 1))]
        out = decoupled_residual(params, calc, r, a[:, None] * y, da[:, None] * y)
        worst = max(worst, float(np.abs(out).max()))
    return SuiteResult(
        name="mode solutions satisfy the decoupled equation",
        passed=worst <= 1e-7,
        measured=worst,
        threshold=1e-7,
    )


def _suite_convergence(rng) -> SuiteResult:
    from .fields import DeformationField, RadialProfile

    params = SchwarzschildParams(m=1.0, r0=3.0)
    calc = SphereCalc(l_max=8)
    prof = RadialProfile(
        f=lambda r: 1.0 / (r - 2.0),
        df=lambda r: -1.0 / (r - 2.0) ** 2,
        d2f=lambda r: 2.0 / (r - 2.0) ** 3,
    )
    one = np.ones(calc.n_nodes)
    field = DeformationField(params, calc)
    field.add_ab_conformal(prof.scaled(-2.0), one)
    field.add_u(prof.scaled(-1.0), one)

    def interior_max(n_r):
        r = np.linspace(3.0, 7.5, n_r)
        d = FoliationDeformation.from_samples(params, calc, r, field.ab(r), field.u(r))
        res = structure_residuals(d)
        window = (r >= 3.45) & (r <= 7.05)
        return max(np.abs(v[window]).max() for v in res.values())

    ratio = interior_max(33) / interior_max(65)
    return SuiteResult(
        name="structure residual 4th-order convergence (x2 refinement)",
        passed=10.0 < ratio < 26.0,
        measured=float(ratio),
        threshold=16.0,
        detail="(target ~16x)",
    )


def run_selftest(
    seed: int = 0, refine: bool = False, mutate: str | None = None
) -> SelfTestReport:
    """Run the verification suites; mutate plants a known fault first."""
    if mutate is not None:
        if mutate not in KNOWN_MUTATIONS:
            raise ValueError(f"unknown mutation {mutate!r}; known: {KNOWN_MUTATIONS}")
        structure.MUTATIONS.add(mutate)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    runners = [
        _suite_harmonics,
        _suite_gauge,
        _suite_structure_oracle,
        _suite_conservation,
        _suite_mode_pde,
    ]
    if refine:
        runners.append(_suite_convergence)
    suites = []
    try:
        for run in runners:
            start = time.perf_counter()
            suite = run(rng)
            suite.wall_time_s = time.perf_counter() - start
            suites.append(suite)
    finally:
        if mutate is not None:
            structure.MUTATIONS.discard(mutate)
    return SelfTestReport(suites=suites, wall_time_s=time.perf_counter() - t0)
