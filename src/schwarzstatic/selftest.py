"""Built-in verification suites: residual cross-checks at documented tolerances.

Each suite exercises one dual-route check (hand-coded evaluators against an
independent oracle) and reports the measured figure against its threshold;
the convergence suite reports its ratio against the open band it must lie
in, with the observed order log2(ratio).  The structure suite honors the
fault-injection hooks in the structure module, which is how the mutation
option demonstrates that a planted sign error is actually caught.

The conservation suite checks the radial conservation law: along a
transverse direction rho2 H~ + 4m u~ is constant.  Its H~ solves the linear
ODE H~' = -H_sc H~ - 4 du_sc u~' by variation of constants: two integrals
by fd.cumulative_integral on 64 geometric cells over [3, 30].  The
integrands read H_sc and du_sc from background_at and never rho2, which
enters only the invariant, so a wrong coefficient on either side shows as
drift (one part in a million in H_sc or du_sc drifts by about 1e-6, against
the threshold 1e-9).  No suite runs scipy.

Schedule.  A suite is called with the shared generator, draws its random
inputs from it and hands back its compute step, a _Step.  run_selftest
calls the suites in the main thread in a fixed order, so the draws never
depend on scheduling and every measured figure is the one a serial run
gives.  The compute steps run on two threads.  The main thread runs the
one long path, the structure suite's oracle route
(linearize_at_schwarzschild and oracle_combinations); a single helper
thread runs everything else in suite order, the structure suite's
hand-coded route (FoliationDeformation.from_field and structure_residuals)
included.  Results are collected in suite order, so the first exception in
that order is the one raised, and the fault-injection hooks are cleared only
once both threads are done.  A suite's wall_time_s is its draw plus the
span of its compute step, from the start of its first part to the end of
its last.  The oracle suite's two parts overlap the other suites, so the
suites' times add up to more than the run's wall time, though to less than
twice it: the draws and the oracle route fill the main thread, and the
other steps the helper.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import structure
from .background import SchwarzschildParams, background_at
from .curvature_lab import (
    linearize_at_schwarzschild,
    make_lab_grid,
    oracle_combinations,
)
from .fd import cumulative_integral
from .fields import DeformationField, RadialProfile, random_deformation
from .gauge import GEODESIC_GAUGE_TOL, apply_gauge, build_gauge_field
from .harmonics import make_grid, mode_position
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
    threshold: float | tuple[float, float]  # an upper bound, or a convergence suite's open band
    detail: str = ""
    wall_time_s: float = 0.0
    order: float | None = None  # a convergence suite's observed order, log2 of its ratio

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        rule = ("band ({:.1e}, {:.1e}), order {:.2f}".format(*self.threshold, self.order)
                if self.order is not None else f"threshold {self.threshold:.1e}")
        return (f"[{status}] {self.name}: measured {self.measured:.3e}"
                f" vs {rule} {self.detail}".rstrip())

    def as_dict(self) -> dict:
        order = {} if self.order is None else {"order": self.order}
        return {
            "name": self.name,
            "measured": self.measured,
            "threshold": self.threshold,
            "passed": bool(self.passed),  # the suites compare numpy floats; json rejects np.bool_
            "wall_time_s": self.wall_time_s,
            **order,
        }


@dataclass
class SelfTestReport:
    suites: list[SuiteResult]
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(suite.passed for suite in self.suites)


@dataclass
class _Step:
    """A suite's compute step, its random inputs already drawn.

    work runs on the helper thread.  A suite with an oracle route also sets
    oracle, run on the main thread, and verdict, which makes the SuiteResult
    of the two results; otherwise work returns the SuiteResult itself.
    """

    work: Callable[[], Any]
    oracle: Callable[[], Any] | None = None
    verdict: Callable[[Any, Any], SuiteResult] | None = None

    def run(self) -> SuiteResult:
        """The whole step in the calling thread."""
        if self.oracle is None:
            return self.work()
        return self.verdict(self.work(), self.oracle())


def _suite_harmonics(rng) -> _Step:
    c = np.zeros(81)  # the (8 + 1)^2 modes of make_grid(8)
    c[:36] = rng.standard_normal(36)

    def work():
        grid = make_grid(8)
        gram = grid.analysis @ grid.Y
        gram_err = np.abs(gram - np.eye(grid.n_modes)).max()
        field = grid.Y @ c
        round_err = np.abs(grid.analysis @ field - c).max()
        measured = max(gram_err, round_err)
        return SuiteResult(
            name="harmonics round-trip and Gram identity",
            passed=measured <= 1e-12,
            measured=measured,
            threshold=1e-12,
        )

    return _Step(work)


def _suite_gauge(rng) -> _Step:
    params = SchwarzschildParams(m=1.0, r0=3.0)
    calc = SphereCalc(l_max=8)
    gt = random_deformation(rng, params, calc, l_band=4, gauge_fixed=False)

    def work():
        X = build_gauge_field(gt, params, calc)
        out = apply_gauge(gt, X, np.linspace(3.0, 11.5, 18))
        measured = out.max_radial_residual
        return SuiteResult(
            name="gauge annihilation of radial components",
            passed=measured <= GEODESIC_GAUGE_TOL,
            measured=measured,
            threshold=GEODESIC_GAUGE_TOL,
        )

    return _Step(work)


def _suite_structure_oracle(rng) -> _Step:
    params = SchwarzschildParams(m=1.0, r0=3.0)
    calc = SphereCalc(l_max=12)
    grid = make_lab_grid(params, r_outer=4.5, n_r=129, calc=calc)
    field = random_deformation(rng, params, calc, l_band=3, gauge_fixed=True)

    def hand_coded():
        return structure_residuals(FoliationDeformation.from_field(field, grid.r))

    def oracle():
        return oracle_combinations(grid, field, linearize_at_schwarzschild(grid, field))

    def verdict(res, combos):
        measured = max(
            np.abs(res[k] - combos[k])[4:-4].max() for k in ("dg2", "dg4", "dg5", "dg3", "dg1")
        )
        return SuiteResult(
            name="structure equations vs linearization oracle",
            passed=measured <= 1e-6,
            measured=measured,
            threshold=1e-6,
        )

    return _Step(hand_coded, oracle, verdict)


# 64 geometric cells over the conservation suite's window [3, 30]
_CONSERVATION_CELLS = np.geomspace(3.0, 30.0, 65)


def _conserved_h(params: SchwarzschildParams, field, h0: np.ndarray, r: np.ndarray):
    """H~ (len(r), n) on [3, 30] solving H~' = -H_sc H~ - 4 du_sc u~' from H~(3) = h0.

    Variation of constants: H~(r) = (h0 - int_3^r 4 Phi du_sc u~' ds) / Phi(r)
    with Phi(r) = exp(int_3^r H_sc ds), both by fd.cumulative_integral on
    _CONSERVATION_CELLS.  The integrands read H_sc and du_sc from
    background_at and never rho2.
    """
    cells = _CONSERVATION_CELLS
    log_phi = cumulative_integral(lambda s: background_at(params, s).H_sc, cells)

    def source(s):
        weight = 4.0 * np.exp(log_phi(s)) * background_at(params, s).du_sc
        return weight[..., None] * field.u(s, 1)

    forced = cumulative_integral(source, cells)
    return (h0 - forced(r)) / np.exp(log_phi(r))[:, None]


def _suite_conservation(rng) -> _Step:
    """rho2 H~ + 4m u~ must stay constant on [3, 30] for a transverse direction.

    H~ comes from the linear ODE of the mean-curvature deformation by
    quadrature (_conserved_h), which reads only H_sc and du_sc; the
    invariant multiplies by rho2 = r (r - 2m) itself.  The measured figure
    is the invariant's largest drift from its value at r = 3 on 40 geometric
    radii, relative to that value.
    """
    params = SchwarzschildParams(m=1.0, r0=3.0)
    calc = SphereCalc(l_max=8)
    field = random_deformation(rng, params, calc, l_band=3, gauge_fixed=True)
    h0 = calc.random_band_limited(rng, 3)

    def work():
        r = np.geomspace(3.0, 30.0, 40)
        invariant = (r * (r - 2.0))[:, None] * _conserved_h(params, field, h0, r)
        invariant += 4.0 * field.u(r)
        scale = max(np.abs(invariant[0]).max(), 1e-3)
        measured = float(np.abs(invariant - invariant[0]).max() / scale)
        return SuiteResult(
            name="radial conservation of rho2*H~ + 4m*u~",
            passed=measured <= 1e-9,
            measured=measured,
            threshold=1e-9,
        )

    return _Step(work)


def _suite_mode_pde(rng) -> _Step:
    def work():
        params = SchwarzschildParams(m=1.0, r0=3.0)
        calc = SphereCalc(l_max=8)
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

    return _Step(work)


def _suite_convergence(rng) -> _Step:
    def work():
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
        band = (10.0, 26.0)
        return SuiteResult(
            name="structure residual 4th-order convergence (x2 refinement)",
            passed=band[0] < ratio < band[1],
            measured=float(ratio),
            threshold=band,
            order=float(np.log2(ratio)),
            detail="(target ~16x)",
        )

    return _Step(work)


_SUITES = (
    _suite_harmonics,
    _suite_gauge,
    _suite_structure_oracle,
    _suite_conservation,
    _suite_mode_pde,
)


def _suites(refine: bool):
    """The suites in their order: the order of the draws and of the report."""
    return _SUITES + (_suite_convergence,) if refine else _SUITES


def _timed(fn):
    """(fn(), start, end) on the perf_counter clock."""
    start = time.perf_counter()
    value = fn()
    return value, start, time.perf_counter()


def _settle(fn):
    """A finished Future of fn() run in this thread: its value or its exception."""
    from concurrent.futures import Future

    done = Future()
    try:
        done.set_result(fn())
    except Exception as exc:
        done.set_exception(exc)
    return done


def _collect(step: _Step, drawn_s: float, work, oracle) -> SuiteResult:
    """A suite's result from the Futures of its compute parts; raises the
    first exception among them, work before oracle."""
    parts = [work.result()] + ([] if oracle is None else [oracle.result()])
    values = [value for value, _, _ in parts]
    suite = values[0] if step.oracle is None else step.verdict(*values)
    suite.wall_time_s = drawn_s + max(p[2] for p in parts) - min(p[1] for p in parts)
    return suite


def run_selftest(
    seed: int = 0, refine: bool = False, mutate: str | None = None
) -> SelfTestReport:
    """Run the verification suites; mutate plants a known fault first.

    The main thread draws every suite's inputs in suite order and hands each
    compute step to the helper thread as soon as it is drawn, then runs the
    oracle route itself (see the module docstring).  A draw that raises ends
    the run at once; the draws only build inputs from fixed parameters.
    """
    from concurrent.futures import ThreadPoolExecutor

    if mutate is not None:
        if mutate not in KNOWN_MUTATIONS:
            raise ValueError(f"unknown mutation {mutate!r}; known: {KNOWN_MUTATIONS}")
        structure.MUTATIONS.add(mutate)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    try:
        with ThreadPoolExecutor(max_workers=1) as helper:
            drawn = []  # per suite: its step, its draw seconds and the Future of its work
            for suite in _suites(refine):
                step, start, end = _timed(lambda: suite(rng))
                drawn.append((step, end - start, helper.submit(_timed, step.work)))
            oracles = [None if step.oracle is None else _settle(lambda: _timed(step.oracle))
                       for step, _, _ in drawn]
        suites = [_collect(*d, oracle) for d, oracle in zip(drawn, oracles)]
    finally:
        if mutate is not None:
            structure.MUTATIONS.discard(mutate)
    return SelfTestReport(suites=suites, wall_time_s=time.perf_counter() - t0)
