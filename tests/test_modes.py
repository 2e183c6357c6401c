import functools
import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from schwarzstatic import _dop853, modes
from schwarzstatic.background import SchwarzschildParams
from schwarzstatic.modes import (
    ALPHA_RTOL,
    AsymptoticKind,
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    ModeSolution,
    classify,
    classify_modes,
    integrate_mode,
    integrate_modes,
    lane_end,
    make_ivp,
)
from schwarzstatic.cli import SweepConfig, run_sweep

from reference import euler_coefficients, euler_eval

P13 = SchwarzschildParams(m=1.0, r0=3.0)


def sweep_record(params, ell):
    """The sweep's record of the unit-data mode (params, ell), default settings."""
    config = SweepConfig(masses=[params.m], r0_offsets=[params.r0 - 2.0 * max(0.0, params.m)],
                         ell_max=ell)
    rec = run_sweep(config).records[ell]
    assert (rec.m, rec.r0, rec.ell) == (params.m, params.r0, ell)
    return rec


def scipy_mode(ivp, r_max, rtol, atol, k_div):
    """The mode integrated by solve_ivp(method="DOP853") in t = ln s, s = r - 2 max(m, 0).

    This is the route integrate_mode's own stepper replaced, kept here as its
    independent check on the same system.  Returns (a and a' at radii r,
    r_reached, diverged, right-hand-side evaluations).
    """
    m, r0, ll1, S = ivp.m, ivp.r0, ivp.ell * (ivp.ell + 1.0), ivp.source
    shift = 2.0 * max(m, 0.0)
    threshold = k_div * (abs(ivp.a0) if ivp.a0 != 0.0 else 1.0)

    def rhs(t, y):
        s = np.exp(t)
        q = s + 2.0 * abs(m)  # rho^2 / s
        return [y[1] / q, (4.0 * m * m / q + ll1 * s) * y[0] - S / q]

    def blowup(t, y):
        return abs(y[0]) - threshold

    blowup.terminal = True
    events = blowup if np.isfinite(threshold) else None
    opts = dict(method="DOP853", rtol=rtol, atol=atol, dense_output=True, events=events)
    with np.errstate(all="ignore"):  # numpy scalars overflow where a mode does
        sol = solve_ivp(rhs, (np.log(r0 - shift), np.log(r_max - shift)),
                        [ivp.a0, r0 * (r0 - 2.0 * m) * ivp.da0], **opts)
    if not sol.success:
        raise RuntimeError(sol.message)
    diverged = sol.status == 1
    r_reached = np.exp(sol.t[-1]) + shift if diverged else r_max

    def evaluate(r):
        y = sol.sol(np.log(r - shift))
        return y[0], y[1] / r / (r - 2.0 * m)  # r(r-2m) overflows above r ~ 1e154

    return evaluate, r_reached, diverged, sol.nfev


@dataclass(frozen=True)
class PositivityReport:
    positive: bool
    increasing: bool
    first_violation: float | None
    immediately_positive: bool
    b_end: float
    db_end: float

    @property
    def monotone_positive(self) -> bool:
        return self.positive and self.increasing


def comparison_positivity(
    h, p, B0: float, dB0: float, r0: float, r_max: float,
    rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL, n_samples: int = 2000,
) -> PositivityReport:
    """Integrate (h B')' = p B and audit strict positivity of B and B'.

    h and p are callables, positive on [r0, r_max]; B(r0), B'(r0) >= 0 and
    not both zero.  The comparison statement says B and B' stay strictly
    positive for r > r0; the report records the first violation if the
    numerics ever disagree.
    """
    if B0 < 0 or dB0 < 0 or (B0 == 0 and dB0 == 0):
        raise ValueError("need B0 >= 0, dB0 >= 0, not both zero")

    def rhs(r, y):
        return [y[1] / h(r), p(r) * y[0]]

    sol = solve_ivp(
        rhs, (r0, r_max), [B0, h(r0) * dB0], method="DOP853",
        rtol=rtol, atol=atol, dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(f"comparison integration failed: {sol.message}")

    r = np.linspace(r0, r_max, n_samples)[1:]
    y = sol.sol(r)
    B, dB = y[0], y[1] / h(r)
    bad = (B <= 0) | (dB <= 0)
    first = float(r[np.argmax(bad)]) if bad.any() else None
    delta = 1e-6 * r0
    yd = sol.sol(r0 + delta)
    return PositivityReport(
        positive=bool(np.all(B > 0)),
        increasing=bool(np.all(dB > 0)),
        first_violation=first,
        immediately_positive=bool(yd[0] > 0 and yd[1] / h(r0 + delta) > 0),
        b_end=float(B[-1]),
        db_end=float(dB[-1]),
    )


def beta0(ivp):
    """The comparison constant 4 m^2 alpha0 / (l(l+1) - 2) of a degree l != 1.

    B = a - beta0 / (r(r-2m)) is the comparison function of those degrees.
    """
    return 4.0 * ivp.m * ivp.m * ivp.alpha0 / (ivp.ell * (ivp.ell + 1.0) - 2.0)


class TestMakeIVP:
    def test_l0_constants(self):
        ivp = make_ivp(P13, 0, 1.0)
        assert_allclose(ivp.alpha0, 0.0, atol=1e-15)
        assert_allclose(ivp.da0, -1.0 / 3.0, rtol=1e-15)

    def test_l1_constants(self):
        ivp = make_ivp(P13, 1, 1.0)
        assert_allclose(ivp.alpha0, 1.5, rtol=1e-15)
        assert_allclose(ivp.da0, 2.0 / 3.0, rtol=1e-15)

    def test_l2_constants(self):
        ivp = make_ivp(P13, 2, 1.0)
        assert_allclose(ivp.alpha0, 4.5, rtol=1e-15)
        assert_allclose(beta0(ivp), 4.5, rtol=1e-15)
        # B(r0) = a0 - beta0 / (r0 (r0 - 2m))
        b0 = ivp.a0 - beta0(ivp) / (3.0 * 1.0)
        assert_allclose(b0, -0.5, rtol=1e-14)

    def test_source_constant_matches_alpha0(self):
        for ell in (0, 1, 2, 5):
            ivp = make_ivp(P13, ell, 1.3)
            assert_allclose(ivp.source, 4.0 * P13.m**2 * ivp.alpha0, rtol=1e-13)

    def test_zero_mass_has_no_substitution_constants(self):
        # m = 0: the source vanishes and alpha0 = (3/2 + r0 (l(l+1)-2)/(4m)) a0
        # has no value
        ivp = make_ivp(SchwarzschildParams(m=0.0, r0=1.0), 3, 1.0)
        assert ivp.alpha0 is None
        assert ivp.source == 0.0
        assert ivp.da0 == 6.0  # l(l+1) a0 / (2 r0)

    @pytest.mark.parametrize("m", [1e-12, -1e-12])
    def test_near_zero_mass_has_the_generic_constants(self, m):
        ivp = make_ivp(SchwarzschildParams(m=m, r0=1.0), 2, 1.0)
        assert_allclose(ivp.alpha0, 1.5 + 1.0 / m, rtol=1e-15)
        assert_allclose(ivp.source, 4.0 * m * m * ivp.alpha0, rtol=1e-12)

    @pytest.mark.parametrize("m", [5e-324, -5e-324])
    def test_alpha0_that_overflows_has_no_value(self, m):
        # r0 / (4m) is inf at the smallest subnormal mass
        for ell in (0, 1, 2):
            assert make_ivp(SchwarzschildParams(m=m, r0=1.0), ell, 1.0).alpha0 is None


class TestIntegrateEuler:
    def test_closed_form_coefficients(self):
        c1, c2 = euler_coefficients(2, 1.0, 1.0)
        assert_allclose(c2, 1.2, rtol=1e-14)
        assert_allclose(c1, -0.2, rtol=1e-14)

    def test_generic_integrator_matches_euler(self):
        params = SchwarzschildParams(m=0.0, r0=1.0)
        for ell in range(9):
            ivp = make_ivp(params, ell, 1.0)
            sol = integrate_mode(ivp, 50.0, k_div=np.inf)
            c1, c2 = euler_coefficients(ell, 1.0, 1.0)
            r = np.array([2.0, 10.0, 50.0])
            assert_allclose(sol.eval(r)[0], euler_eval(ell, c1, c2, r)[0], rtol=1e-8)

    def test_zero_data_stays_zero(self):
        params = SchwarzschildParams(m=0.0, r0=1.0)
        sol = integrate_mode(make_ivp(params, 3, 0.0), 1e3)
        assert np.abs(sol.a).max() <= 1e-12
        assert np.abs(sol.da).max() <= 1e-12


class TestIntegrateSchwarzschild:
    def test_l0_limit_is_initial_value(self):
        sol = integrate_mode(make_ivp(P13, 0, 1.0), 3e6)
        klass = classify(sol)
        assert klass.kind is AsymptoticKind.CONVERGES_NONZERO
        assert_allclose(klass.alpha, 1.0, rtol=1e-6)  # alpha is the limit of a at l = 0

    def test_l0_phi_closed_form(self):
        # phi(r) = c0 r^2 + c1 r - c1 m, c0 = (r0-m)/(2m) a0, c1 = -r0 a0
        sol = integrate_mode(make_ivp(P13, 0, 1.0), 3e6)
        c0, c1 = (3.0 - 1.0) / 2.0, -3.0
        phi_exact = c0 * sol.radii**2 + c1 * sol.radii - c1 * 1.0
        assert_allclose(sol.phi, phi_exact, rtol=1e-8)

    def test_l0_limit_of_A(self):
        sol = integrate_mode(make_ivp(P13, 0, 1.0), 3e6)
        A_tail = sol.A[-8:]
        expect = (3.0 / 2.0 - 0.5) * 1.0
        assert_allclose(A_tail[-1], expect, rtol=1e-6)

    def test_l1_Phi_closed_form(self):
        # For l = 1 the A-term of Phi'(r) = ((l(l+1)-2) A + l(l+1) alpha0)/(r(r-2m))
        # drops, leaving Phi' = 2 alpha0 / (r(r-2m)) with Phi(r0) = 0, hence
        # Phi(r) = (alpha0/m) [ln((r-2m)/r) - ln((r0-2m)/r0)].
        ivp = make_ivp(P13, 1, 1.0)
        sol = integrate_mode(ivp, 3e4, k_div=np.inf)
        r = np.geomspace(3.0, 3e4, 400)
        a, da = sol.eval(r)
        rho2 = r * (r - 2.0)
        A = a - ivp.alpha0
        Phi = 2.0 * (r - 1.0) / rho2 * A + da
        exact = ivp.alpha0 * (np.log((r - 2.0) / r) - np.log(1.0 / 3.0))
        assert np.abs(Phi - exact).max() <= 1e-8

    def test_l1_Phi_limit(self):
        ivp = make_ivp(P13, 1, 1.0)
        sol = integrate_mode(ivp, 3e6, k_div=np.inf)
        assert_allclose(sol.Phi[-1], 1.5 * np.log(3.0), rtol=1e-5)

    def test_l1_Phi_starts_at_zero_and_increases(self):
        sol = integrate_mode(make_ivp(P13, 1, 1.0), 3e4, k_div=np.inf)
        assert abs(sol.Phi[0]) <= 1e-12
        assert np.all(np.diff(sol.Phi) > -1e-12)

    def test_substitution_identities(self):
        ivp = make_ivp(P13, 2, 1.0)
        sol = integrate_mode(ivp, 3e3, k_div=np.inf)
        assert_allclose(sol.A, sol.a - ivp.alpha0, rtol=1e-14)
        r, m = sol.radii, 1.0
        rho2 = r * (r - 2.0 * m)
        assert_allclose(sol.phi, rho2 * sol.A, rtol=1e-14)
        # Phi * rho2 = phi' as derived views of the same samples
        dphi_analytic = 2.0 * (r - m) * sol.A + rho2 * sol.da
        assert_allclose(sol.Phi * rho2, dphi_analytic, rtol=1e-9)
        # and da really is the radial derivative of a: small-step stencil
        for r in [4.0, 10.0, 100.0]:
            h = 1e-3 * r
            rs = np.array([r - 2 * h, r - h, r + h, r + 2 * h])
            a, _ = sol.eval(rs)
            phi = rs * (rs - 2.0) * (a - ivp.alpha0)
            dphi = (phi[0] - 8 * phi[1] + 8 * phi[2] - phi[3]) / (12 * h)
            ar, dar = sol.eval(r)
            Phi = 2 * (r - 1.0) / (r * (r - 2.0)) * (ar - ivp.alpha0) + dar
            assert_allclose(Phi * r * (r - 2.0), dphi, rtol=1e-8)

    def test_local_ode_residual(self):
        # dw/dr stencil of the dense solution against the right-hand side;
        # tolerance bundles solver rtol with interpolant-derivative slack
        ivp = make_ivp(P13, 3, 1.0)
        sol = integrate_mode(ivp, 3e3, k_div=np.inf)
        for r in [3.5, 8.0, 40.0, 700.0]:
            h = 2e-3 * r
            rs = np.array([r - 2 * h, r - h, r + h, r + 2 * h])
            a, da = sol.eval(rs)
            w = rs * (rs - 2.0) * da
            dw = (w[0] - 8 * w[1] + 8 * w[2] - w[3]) / (12 * h)
            ar, _ = sol.eval(r)
            rho2 = r * (r - 2.0)
            rhs = (4.0 / rho2 + 12.0) * ar - ivp.source / rho2
            scale = max(abs(rhs), abs(dw), 1.0)
            assert abs(dw - rhs) <= 1e-7 * scale

    def test_sign_symmetry(self):
        plus = integrate_mode(make_ivp(P13, 2, 1.0), 3e6)
        minus = integrate_mode(make_ivp(P13, 2, -1.0), 3e6)
        assert len(plus.a) == len(minus.a)
        assert_allclose(minus.a, -plus.a, rtol=0, atol=0)
        kp = classify(plus)
        km = classify(minus)
        assert kp.kind is AsymptoticKind.DIVERGES_PLUS
        assert km.kind is AsymptoticKind.DIVERGES_MINUS

    def test_case2_lower_bounds(self):
        # l = 2 at (m=1, r0=3) starts with B(r0) = -0.5 < 0
        ivp = make_ivp(P13, 2, 1.0)
        sol = integrate_mode(ivp, 3e3, k_div=np.inf)
        B = sol.a - beta0(ivp) / sol.radii / (sol.radii - 2.0)
        rho2 = sol.radii * (sol.radii - 2.0)
        bound = 3.0 * 1.0 / rho2 * (-0.5)
        neg = B < 0
        assert neg[0]
        assert np.all(B[neg] >= bound[neg] - 1e-12)
        # a(r) >= r0(r0-2m)/rho2 * a0 >= 0 on the same branch
        assert np.all(sol.a[neg] >= 3.0 / rho2[neg] * 1.0 - 1e-12)

    def test_tolerances_validated_as_in_solve_ivp(self):
        ivp = make_ivp(P13, 2, 1.0)
        with pytest.raises(ValueError, match="atol"):
            integrate_mode(ivp, 3e3, atol=-1e-12)
        with pytest.warns(UserWarning, match="rtol"):
            tiny = integrate_mode(ivp, 3e3, rtol=1e-16)
        floor = integrate_mode(ivp, 3e3, rtol=100 * np.finfo(float).eps)
        assert_allclose(tiny.a, floor.a, rtol=0, atol=0)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            integrate_mode(make_ivp(P13, 0, 1.0), 2.0)


class TestScipyParity:
    """The in-module DOP853 stepper takes solve_ivp's steps, up to rounding."""

    def test_tableau_shapes(self):
        # the stepper reads these public class attributes of scipy's DOP853
        shapes = {name: getattr(DOP853, name).shape
                  for name in ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA")}
        assert shapes == {
            "A": (12, 12), "B": (12,), "C": (12,), "E3": (13,), "E5": (13,),
            "D": (4, 16), "A_EXTRA": (3, 16), "C_EXTRA": (3,),
        }

    @staticmethod
    def check(ivp, r_max, rtol=1e-10, atol=1e-12, k_div=1e3):
        sol = integrate_mode(ivp, r_max, rtol=rtol, atol=atol, k_div=k_div)
        evaluate, r_reached, diverged, nfev = scipy_mode(ivp, r_max, rtol, atol, k_div)
        assert sol.diverged == diverged
        assert sol.nfev == nfev  # the same steps, accepted and rejected
        assert_allclose(sol.r_max_used, r_reached, rtol=1e-10)
        a, da = evaluate(sol.radii[sol.radii <= r_reached])
        n = a.size
        assert n >= len(sol.radii) - 1
        assert_allclose(sol.a[:n], a, rtol=1e-9)
        assert_allclose(sol.da[:n], da, rtol=1e-9)
        return sol

    @pytest.mark.parametrize("tol", [(1e-10, 1e-12), (3e-14, 1e-16)], ids=["default", "selftest"])
    @pytest.mark.parametrize("ell", [0, 1, 2, 16])
    @pytest.mark.parametrize(
        "m,r0", [(1.0, 3.0), (1.0, 2.001), (-1.0, 1.0), (-1.0, 1e-3)],
        ids=["m1-r3", "m1-near-horizon", "m-1-r1", "m-1-small-r0"],
    )
    def test_matches_solve_ivp(self, m, r0, ell, tol):
        ivp = make_ivp(SchwarzschildParams(m=m, r0=r0), ell, 1.0)
        sol = self.check(ivp, 1e6 * r0, *tol)
        assert sol.stop == ("k_div" if sol.diverged else "r_max")
        assert sol.nfev > sol.n_steps > 0

    @pytest.mark.parametrize("ell,factor", [(1, 1e5), (2, 1e5), (16, 1e5), (1, 1e20), (2, 1e20)])
    def test_tail_phase_matches_solve_ivp(self, ell, factor):
        # k_div = inf runs every degree out to its bound (degree 16 would
        # overflow short of 1e20, for solve_ivp too)
        sol = self.check(make_ivp(P13, ell, 1.0), factor * 3.0, k_div=np.inf)
        assert sol.r_max_used == factor * 3.0 and not sol.diverged

    @pytest.mark.parametrize(
        "a0,ell,r_max,atol",
        [(0.0, 2, 3e20, 1e-12), (1.0, 2, 3e6, 0.0)],
        ids=["zero-data-probe-at-x0", "pure-relative-tolerance"],
    )
    def test_edge_inputs_match_solve_ivp(self, a0, ell, r_max, atol):
        # zero data makes the initial-step estimate divide by a zero
        # derivative norm; atol = 0 makes the error scale rtol |y| alone
        self.check(make_ivp(P13, ell, a0), r_max, atol=atol)

    @pytest.mark.parametrize("m,r0", [(1.0, 3.0), (-1.0, 1.0)])
    def test_both_fail_at_huge_extent(self, m, r0):
        # with no k_div the degree-16 mode grows like r^16 past the float
        # range: its stages overflow, and both step sizes shrink to failure
        ivp = make_ivp(SchwarzschildParams(m=m, r0=r0), 16, 1.0)
        with pytest.raises(RuntimeError, match="mode integration failed"):
            integrate_mode(ivp, 1e20 * r0, k_div=np.inf)
        with pytest.raises(RuntimeError):
            scipy_mode(ivp, 1e20 * r0, 1e-10, 1e-12, np.inf)

    @pytest.mark.parametrize("m,r0", [(1.0, 3.0), (-1.0, 1.0)])
    @pytest.mark.parametrize("factor", [1e170, 1e300])
    def test_degree_zero_converges_at_huge_extent(self, m, r0, factor):
        # these lanes once failed in an x = 1/r tail phase, where x * x
        # underflows; in t = ln s they reach their bound in a few dozen steps,
        # and the Wronskian read that far out is still the limit a0
        ivp = make_ivp(SchwarzschildParams(m=m, r0=r0), 0, 1.0)
        sol = self.check(ivp, factor * r0)
        assert sol.r_max_used == factor * r0 and sol.nfev < 1000
        klass = classify(sol)
        assert klass.kind is AsymptoticKind.CONVERGES_NONZERO
        assert_allclose(klass.alpha, 1.0, rtol=1e-9)
        assert klass.alpha_drift <= 1e-9


EPS = float(np.finfo(float).eps)
TABLEAU = ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA")


def inside(ends):
    """A level strictly between the objective's two ends, so the bracket changes sign."""
    lo, hi = sorted(ends)
    frac = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    return frac.map(lambda q: lo + q * (hi - lo)).filter(lambda v: lo < v < hi)


def dense_a(F, a_old, t_old, h, t):
    """a at t on one step's dense output: scipy's Dop853DenseOutput polynomial.

    With x = (t - t_old) / h, Horner over the rows of F from the last,
    multiplying alternately by x and 1 - x, plus a_old.
    """
    x = (t - t_old) / h
    y = 0.0
    for i, f in enumerate(reversed(F)):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    return y + a_old


@st.composite
def crossing_steps(draw):
    """One step's dense output for a, and a threshold that |a| crosses once in it.

    The rows after dy = F[0] are at most 5 % of it, so a is monotone on the
    step, as on the steps of a growing mode, and the threshold lies strictly
    between |a| at the step's two ends.
    """
    dy = draw(st.floats(1.0, 1e3)) * draw(st.sampled_from([-1.0, 1.0]))
    F = [dy] + [dy * q for q in draw(st.lists(st.floats(-0.05, 0.05), min_size=6, max_size=6))]
    a_old = draw(st.floats(-abs(dy), abs(dy)))
    t_old = draw(st.floats(-700.0, 700.0))
    h = draw(st.floats(1e-9, 0.1))
    t_new = t_old + h
    assume(t_new > t_old)
    ends = [abs(dense_a(F, a_old, t_old, h, t)) for t in (t_old, t_new)]
    threshold = draw(inside(ends))
    return F, a_old, t_old, h, t_new, threshold


class TestVendoredPrimitives:
    """The vendored tableau is scipy's, bit for bit."""

    def test_tableau_is_scipys(self):
        for name in TABLEAU:
            ours, theirs = getattr(_dop853.DOP853, name), getattr(DOP853, name)
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
            assert np.array_equal(ours, theirs) and ours.tobytes() == theirs.tobytes(), name
        for name in ("n_stages", "error_estimator_order"):
            assert getattr(_dop853.DOP853, name) == getattr(DOP853, name), name

    def test_stepper_reads_scipys_tableau(self):
        # the stepper's tables, rebuilt from scipy's class as the module built them
        n = DOP853.n_stages
        stages = [(DOP853.A[s, :s, None, None], float(DOP853.C[s])) for s in range(1, n)]
        extra = [(row[:s, None, None], float(c))
                 for s, (row, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=n + 1)]
        for (ours, c), (theirs, c_scipy) in zip(modes._STAGES + modes._EXTRA_STAGES,
                                                stages + extra, strict=True):
            assert ours.tobytes() == theirs.tobytes() and ours.shape == theirs.shape
            assert c == c_scipy
        assert modes._B.tobytes() == DOP853.B[:, None, None].tobytes()
        e53 = np.array([DOP853.E5, DOP853.E3])[:, :, None, None]
        assert modes._E53.tobytes() == e53.tobytes() and modes._E53.shape == e53.shape
        assert modes._D.tobytes() == DOP853.D[:, :, None, None].tobytes()
        assert modes._ERROR_EXPONENT == -1.0 / (DOP853.error_estimator_order + 1)


class TestCrossings:
    """The batched bisection that ends every crossing lane on its last step."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(crossing_steps(), min_size=1, max_size=5))
    def test_root_brackets_the_crossing_next_to_brentqs_root(self, steps):
        # the steps as the last segments of one batch, one lane each
        F, a_old, t_old, h, t_new, threshold = (np.array(v) for v in zip(*steps))
        n = len(steps)
        y_old = np.stack([a_old, np.zeros(n)])
        F2 = np.stack([F.T, np.zeros_like(F.T)], axis=1)
        dense = modes._Dense(np.arange(n), t_old, h, y_old, F2, t_new, n)
        roots = dense.crossings(np.arange(n), threshold)
        assert np.array_equal(dense.keys.imag, roots)  # each lane now ends at its root
        for (F_j, a_j, t0, h_j, t1, thr), root in zip(steps, roots.tolist()):
            def g(t):
                return abs(dense_a(F_j, a_j, t0, h_j, t)) - thr

            def before(t):  # |a| - threshold still has its sign at the step's start
                return (g(t) < 0) == (g(t0) < 0)

            # root and root - tol, or root and root + tol, bracket the sign change
            tol = 4 * EPS * (1 + abs(root))
            assert t0 < root < t1
            assert before(max(root - tol, t0)) and not before(min(root + tol, t1))
            assert abs(root - brentq(g, t0, t1, xtol=4 * EPS, rtol=4 * EPS)) <= tol


# lanes for the batch-composition property, covering each way a lane ends
LANES = (
    (make_ivp(P13, 0, 1.0), 3e6),  # converges out to its bound
    (make_ivp(P13, 2, 1.0), 3e6),  # crosses k_div
    # 4 m^2 and the source overflow: every stage is nan and the lane fails
    (make_ivp(SchwarzschildParams(m=-1e200, r0=1.0), 0, 1.0), 1e6),
    # zero data, a large source: crosses k_div on its first step
    (replace(make_ivp(P13, 2, 0.0), source=-1e13), 3e6),
    (make_ivp(P13, 0, 1.0), 150.0),  # a short range
    (make_ivp(SchwarzschildParams(m=-1.0, r0=1e-3), 0, 1.0), 1e3),  # near the puncture r = 0
    (make_ivp(SchwarzschildParams(m=-1.0, r0=1.0), 16, 1.0), 1e6),
    (make_ivp(SchwarzschildParams(m=0.0, r0=1.0), 3, 1.0), 1e6),  # m = 0
    (make_ivp(P13, 2, 0.0), 3e20),  # zero data
    (make_ivp(P13, 0, 1.0), 1e170 * 3.0),  # once failed in an x = 1/r tail phase
    # crosses k_div after many more steps than the other crossing lanes
    (make_ivp(SchwarzschildParams(m=1.0, r0=2.0 + 1e-12), 3, 1.0), 1e6),
    (make_ivp(P13, 1, 1.0), 2.0),  # r_max below r0
)
FAILING, FIRST_STEP, SHORT, HUGE, LATE = 2, 3, 4, 9, 10
CROSSING = (FIRST_STEP, 1, 7, LATE)  # lanes that cross k_div, each on another step


@functools.cache
def lane_alone(k):
    ivp, r_max = LANES[k]
    return integrate_modes([ivp], [r_max])[0]


def same_lane(batched, alone):
    if isinstance(alone, Exception):
        assert type(batched) is type(alone) and str(batched) == str(alone)
        return
    for name in ("a", "da", "radii"):
        assert getattr(batched, name).tobytes() == getattr(alone, name).tobytes(), name
    for name in ("r_max_used", "n_steps", "nfev", "stop"):
        assert getattr(batched, name) == getattr(alone, name), name


class TestBatchComposition:
    def test_lanes_end_as_intended(self):
        assert isinstance(lane_alone(FAILING), RuntimeError)
        assert lane_alone(FIRST_STEP).diverged and lane_alone(FIRST_STEP).n_steps == 1
        for k in (SHORT, HUGE):
            sol = lane_alone(k)
            assert not sol.diverged and sol.r_max_used == LANES[k][1]
        assert isinstance(lane_alone(len(LANES) - 1), ValueError)
        assert all(lane_alone(k).diverged for k in CROSSING)
        assert len({lane_alone(k).n_steps for k in CROSSING}) == len(CROSSING)

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.sampled_from(range(len(LANES))), min_size=1, max_size=len(LANES),
                    unique=True))
    @example([0, FAILING, 1])
    @example([HUGE, FAILING, 0])
    @example([FIRST_STEP, 6, SHORT, 5])
    @example([SHORT, 1, FIRST_STEP])
    @example([LATE, 7, FIRST_STEP, 1])  # crossing lanes that end at other iterations
    def test_a_lane_is_the_same_in_any_batch(self, order):
        batch = integrate_modes([LANES[k][0] for k in order], [LANES[k][1] for k in order])
        for k, sol in zip(order, batch):
            same_lane(sol, lane_alone(k))

    def test_integrate_mode_is_a_batch_of_one(self):
        for k in (0, 1, FIRST_STEP):
            same_lane(integrate_mode(*LANES[k]), lane_alone(k))


class TestChangeOfVariable:
    """Checks of the integration variable t = ln s, most of them by routes that avoid it."""

    def test_exp_and_log_do_not_depend_on_the_array(self):
        # lanes stay independent only if np.exp (in the right-hand side) and
        # np.log (at the bounds and the sample radii) give each element the
        # same value whatever the array's length, mask or stride
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 70))
            x = rng.uniform(-40.0, 700.0, n)
            for f, arg in ((np.exp, x), (np.log, np.exp(x))):
                whole = f(arg)
                mask = rng.random(n) < 0.5
                stride = int(rng.integers(1, 5))
                assert f(arg[mask]).tobytes() == whole[mask].tobytes()
                assert f(arg[::stride]).tobytes() == whole[::stride].tobytes()
                one = int(rng.integers(n))
                assert f(arg[one:one + 1]).tobytes() == whole[one:one + 1].tobytes()

    @pytest.mark.parametrize(
        "m,r0,ell,r_max",
        [
            (1.0, 2.0 + 1e-6, 0, 1e4),  # next to the horizon r = 2m
            (1.0, 2.0 + 1e-6, 2, 1e4),
            (-1.0, 1e-3, 0, 1e3),  # next to the puncture r = 0
            (-1.0, 1.0, 3, 1e6),
            (0.0, 1.0, 0, 1e6),
            (0.0, 1.0, 2, 1e6),
        ],
    )
    def test_samples_match_solve_ivp_in_r(self, m, r0, ell, r_max):
        # the original system in r, (a, w = r(r-2m) a'), by solve_ivp at
        # tighter tolerances, out to where the lane stopped
        ivp = make_ivp(SchwarzschildParams(m=m, r0=r0), ell, 1.0)
        sol = integrate_mode(ivp, r_max)
        ll1, S = ell * (ell + 1.0), ivp.source

        def rhs(r, y):
            rho2 = r * (r - 2.0 * m)
            return [y[1] / rho2, (4.0 * m * m / rho2 + ll1) * y[0] - S / rho2]

        ref = solve_ivp(rhs, (r0, sol.r_max_used), [ivp.a0, r0 * (r0 - 2.0 * m) * ivp.da0],
                        method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)
        assert ref.success
        a, w = ref.sol(sol.radii)
        assert_allclose(sol.a, a, rtol=1e-8)
        assert_allclose(sol.da, w / sol.radii / (sol.radii - 2.0 * m), rtol=1e-8)

    def test_crossing_below_1e_12_is_located_to_rounding(self):
        # brentq's absolute xtol of 4 eps was coarse in r at r ~ 1e-13; in
        # t = ln s it is relative, and a lane that crossed ends at a = k_div |a0|
        sol = integrate_mode(make_ivp(SchwarzschildParams(m=-1e-22, r0=1e-13), 5, 1.0), 1e-7)
        klass = classify(sol)
        assert klass.kind is AsymptoticKind.DIVERGES_PLUS
        assert sol.diverged and sol.radii[-1] == sol.r_max_used
        assert_allclose(sol.end[1], 1e3, rtol=1e-9)


class TestDiagnostics:
    def test_zero_mass_is_stepped(self):
        params = SchwarzschildParams(m=0.0, r0=1.0)
        for ell, stop in ((0, "r_max"), (3, "k_div")):
            sol = integrate_mode(make_ivp(params, ell, 1.0), 1e6)
            assert sol.stop == stop and sol.nfev > sol.n_steps > 0

    def test_verdict_carries_solver_counts(self):
        rec = sweep_record(P13, 2)
        sol = integrate_mode(make_ivp(P13, 2, 1.0), lane_end(P13.m, P13.r0))
        assert (rec.n_steps, rec.nfev, rec.stop) == (sol.n_steps, sol.nfev, "r_max")


class TestCrossingThroughZeroMass:
    @pytest.mark.parametrize("ratio", [-1e-8, 0.0, 1e-8])
    def test_crossing_is_continuous_in_m(self, ratio):
        # one integrator for every mass: near m = 0 the k_div crossing is the
        # Euler solution's, |c1 r^(-3) + c2 r^2| = k_div |a0|
        c1, c2 = euler_coefficients(2, 1.0, 1.0)
        root = brentq(lambda r: abs(euler_eval(2, c1, c2, r)[0]) - 1e3, 1.0, 1e3,
                      xtol=4 * EPS, rtol=4 * EPS)
        sol = integrate_mode(make_ivp(SchwarzschildParams(m=ratio, r0=1.0), 2, 1.0), 1e6)
        assert_allclose(sol.r_max_used, root, rtol=1e-6)
        klass = classify(sol)
        assert klass.kind is AsymptoticKind.DIVERGES_PLUS
        assert_allclose(sol.end[1], 1e3, rtol=1e-9)
        assert sol.radii[-1] == sol.r_max_used


def zero_mass_ivp(r0, ell, m=0.0):
    return make_ivp(SchwarzschildParams(m=m, r0=r0), ell, 1.0)


class TestZeroMassLanes:
    def test_out_of_range_lanes_fail_alone(self):
        # a subnormal r0 and an initial state w(r0) = l(l+1) r0 a0 / 2 that
        # overflows at (1e307, 16) fail; the other lanes are untouched and
        # classify: (1e160, 3), where r0 (r0 - 2m) overflows, (1e80, 3) and
        # (1e-20, 16), where the Euler form's powers of r leave the normal
        # floats, and (1e-305, 40), where a'(r0) = l(l+1) a0 / (2 r0) = 8.2e307
        # and the profile's a' reads inf before the k_div crossing
        ivps = [zero_mass_ivp(1e-320, 0), zero_mass_ivp(1e80, 3), zero_mass_ivp(1e307, 16),
                zero_mass_ivp(1e80, 1), zero_mass_ivp(1e-20, 16), zero_mass_ivp(1e80, 0),
                zero_mass_ivp(1e160, 3), zero_mass_ivp(1e-305, 40)]
        r_max = [1e6 * ivp.r0 for ivp in ivps]
        r_max[2] = 1e308
        sols = integrate_modes(ivps, r_max)
        assert type(sols[0]) is ValueError and "normal float" in str(sols[0])
        assert type(sols[2]) is ValueError and "finite" in str(sols[2])
        assert np.isfinite(sols[7].da[0]) and sols[7].da[-1] == math.inf
        for k in (1, 3, 4, 5, 6, 7):
            alone = integrate_mode(ivps[k], 1e6 * ivps[k].r0)
            for key in ("radii", "a", "da"):
                assert np.array_equal(getattr(sols[k], key), getattr(alone, key))
            want = AsymptoticKind.CONVERGES_NONZERO if ivps[k].ell == 0 else (
                AsymptoticKind.DIVERGES_PLUS)
            assert classify(sols[k]).kind is want

    def test_zero_mass_lane_fails_at_a_subnormal_radius(self):
        # no substitution constants, and the lane fails before any step: a
        # subnormal r0 has lost significant digits
        ivp = zero_mass_ivp(1e-320, 0)
        assert ivp.alpha0 is None and ivp.source == 0.0
        with pytest.raises(ValueError, match="normal float"):
            integrate_mode(ivp, 1e-310)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40), st.floats(-1074.0, 1023.0), st.sampled_from([0.0, 1.0, -1.0]))
    @example(0, 1023.0, 0.0)  # r_max = inf
    @example(3, math.log2(1e80), 0.0)  # r0^(-l-2) is subnormal
    @example(3, math.log2(1e100), 1.0)  # r0^(-l-2) underflows to 0
    @example(40, math.log2(1e-305), 0.0)  # a' leaves the floats before the crossing
    def test_an_admitted_lane_forms_finite_values_and_the_right_class(self, ell, log2_r0, sign):
        # warnings are errors here: a lane fails as a ValueError or a
        # RuntimeError, or it classifies with finite a and an a' that is
        # finite or, past the float range, inf, and warns nowhere
        r0 = 2.0 ** log2_r0
        (sol,) = integrate_modes([zero_mass_ivp(r0, ell, sign * 2.0**-40 * r0)], [1e6 * r0])
        if isinstance(sol, (ValueError, RuntimeError)):
            return
        assert np.isfinite(sol.a).all() and not np.isnan(sol.da).any()
        want = AsymptoticKind.CONVERGES_NONZERO if ell == 0 else AsymptoticKind.DIVERGES_PLUS
        assert classify(sol).kind is want


class TestOuterRadius:
    def test_every_sphere_gets_the_expected_class(self):
        # a grid of (sign m, s0/|m|, l) from next to the singular point to
        # far outside it, with s0 = r0 - 2 max(m, 0) (s0 itself at m = 0):
        # degree 0 converges to a0 and every other degree diverges upwards.
        # A run out to 1e6 r0 got 152 of these 1,071 records wrong, all at
        # m < 0 with r0 < 2|m|, some certified ConvergesNonzero; the grid
        # now runs each lane to lane_end and reads its growth coefficient
        masses = [5.0, -5.0, 1.0, -1.0, 1e-3, -1e-3, 1e-12, -1e-12, 0.0]
        offsets = [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6]
        ivps = [make_ivp(SchwarzschildParams(m=m, r0=2.0 * max(m, 0.0) + x * (abs(m) or 1.0)),
                         ell, 1.0)
                for m in masses for x in offsets for ell in range(17)]
        sols = integrate_modes(ivps, [lane_end(ivp.m, ivp.r0) for ivp in ivps])
        assert all(isinstance(sol, ModeSolution) for sol in sols)
        wrong = [(ivp.m, ivp.r0, ivp.ell, klass.kind.value)
                 for ivp, klass in zip(ivps, classify_modes(sols))
                 if klass.kind is not (AsymptoticKind.CONVERGES_NONZERO if ivp.ell == 0
                                       else AsymptoticKind.DIVERGES_PLUS)]
        assert len(ivps) == 1071 and wrong == []


class TestClassify:
    """The class is the sign of the growth coefficient alpha, read twice."""

    def test_l0_converges(self):
        sol = integrate_mode(make_ivp(P13, 0, 1.0), 3e6)
        k = classify(sol)
        assert k.kind is AsymptoticKind.CONVERGES_NONZERO
        assert_allclose(k.alpha, 1.0, rtol=1e-6)

    def test_l1_diverges_plus(self):
        # the degree-1 mode grows linearly once Phi has leveled off, since a
        # positive Phi limit forbids a bounded A with vanishing slope: far
        # out a is alpha G(z) / G(z0), G = (z-1)(z+2)/(6(z+1)) growing like z/6
        sol = integrate_mode(make_ivp(P13, 1, 1.0), 3e6)
        k = classify(sol)
        assert k.kind is AsymptoticKind.DIVERGES_PLUS and k.alpha_drift <= ALPHA_RTOL
        s, a, _ = sol.end

        def grow(z):
            return (z - 1.0) * (z + 2.0) / (6.0 * (z + 1.0))

        assert sol.diverged and abs(a / (k.alpha * grow(1.0 + s) / grow(2.0)) - 1.0) <= 0.05

    def test_flat_higher_modes_diverge(self):
        params = SchwarzschildParams(m=0.0, r0=1.0)
        for ell in range(1, 9):
            sol = integrate_mode(make_ivp(params, ell, 1.0), 1e6)
            assert classify(sol).kind is AsymptoticKind.DIVERGES_PLUS

    def test_flat_l0_converges(self):
        sol = integrate_mode(make_ivp(SchwarzschildParams(m=0.0, r0=1.0), 0, 1.0), 1e6)
        k = classify(sol)
        assert k.kind is AsymptoticKind.CONVERGES_NONZERO
        assert_allclose(k.alpha, 1.0, rtol=1e-9)

    def test_flat_alpha_is_the_euler_growth_coefficient(self):
        # m = 0: a = c1 r^(-l-1) + c2 r^l, and alpha = c2 r0^l, the growing
        # part of a(r0), is (l+1)(l+2) a0 / (2 (2l+1)) for the boundary slope
        flat = SchwarzschildParams(m=0.0, r0=1.0)
        for ell in range(9):
            k = classify(integrate_mode(make_ivp(flat, ell, 1.0), lane_end(0.0, 1.0)))
            _, c2 = euler_coefficients(ell, 1.0, 1.0)
            assert_allclose(k.alpha, c2, rtol=1e-14)
            assert_allclose(k.alpha, (ell + 1) * (ell + 2) / (2.0 * (2 * ell + 1)), rtol=1e-14)

    def test_zero_solution_decays(self):
        sol = integrate_mode(make_ivp(P13, 2, 0.0), 3e4)
        assert classify(sol).kind is AsymptoticKind.DECAYS_TO_ZERO

    def test_decaying_profile_detected(self):
        # initial data on the decaying solution r^(-3) of m = 0, l = 2: alpha
        # is 0 in closed form and rounding-small where the lane ends, so the
        # mode is not certified
        ivp = replace(make_ivp(SchwarzschildParams(m=0.0, r0=1.0), 2, 1.0), da0=-3.0)
        sol = integrate_mode(ivp, lane_end(0.0, 1.0))
        k = classify(sol)
        assert k.alpha == 0.0 and abs(sol.end[1] - 0.125) <= 1e-9
        assert k.kind is AsymptoticKind.UNDETERMINED and "disagree" in k.reason


class TestVerify:
    def test_schwarzschild_l0(self):
        rec = sweep_record(P13, 0)
        assert rec.passed
        assert rec.class_name == AsymptoticKind.CONVERGES_NONZERO.value
        assert_allclose(rec.alpha, 1.0, rtol=1e-6)

    def test_flat_l5(self):
        params = SchwarzschildParams(m=0.0, r0=1.0)
        rec = sweep_record(params, 5)
        assert rec.passed
        assert rec.class_name == AsymptoticKind.DIVERGES_PLUS.value
        assert rec.nfev > rec.n_steps > 0  # the stepper, as for every mass

    def test_negative_mass(self):
        rec = sweep_record(SchwarzschildParams(m=-1.0, r0=1.0), 2)
        assert rec.passed


class TestComparisonPositivity:
    def test_mode_equation_coefficients(self):
        m, ell = 1.0, 2
        h = lambda r: r * (r - 2.0 * m)
        p = lambda r: 4.0 * m * m / (r * (r - 2.0 * m)) + ell * (ell + 1.0)
        rep = comparison_positivity(h, p, B0=1.0, dB0=0.0, r0=3.0, r_max=300.0)
        assert rep.monotone_positive
        assert rep.first_violation is None

    def test_zero_initial_value_becomes_positive(self):
        h = lambda r: r * (r - 2.0)
        p = lambda r: 4.0 / (r * (r - 2.0)) + 6.0
        rep = comparison_positivity(h, p, B0=0.0, dB0=1.0, r0=3.0, r_max=30.0)
        assert rep.immediately_positive
        assert rep.monotone_positive

    def test_constant_coefficients(self):
        one = lambda r: 1.0
        rep = comparison_positivity(one, one, B0=1.0, dB0=1.0, r0=0.5, r_max=5.0)
        assert rep.monotone_positive

    def test_rejects_bad_initial_data(self):
        one = lambda r: 1.0
        with pytest.raises(ValueError):
            comparison_positivity(one, one, B0=0.0, dB0=0.0, r0=1.0, r_max=2.0)


# -- per-mode references of the batched sampler and classifier ---------------
#
# The code each mode ran on its own before sampling and classification became
# array passes over a whole batch: np.geomspace per mode, scipy's OdeSolution
# lookup per phase and np.polyfit per fit.  The batch must reproduce them bit
# for bit.  The m = 0 lanes are checked once more against the Euler closed
# form, to the solver's tolerance.

def reference_radii(r0, r_max, per_decade=48):
    decades = np.log10(r_max / r0)
    n = max(64, int(np.ceil(per_decade * decades)) + 1)
    return np.geomspace(r0, r_max, n)


class ReferenceDense:
    """One mode's dense output in t = ln s, evaluated as scipy's OdeSolution.

    Segment k covers [ts[k], ts[k+1]] with scipy's Dop853DenseOutput
    polynomial: with x = (t - t_old[k]) / h[k], Horner over the rows of F[k]
    from the last, multiplying alternately by x and 1 - x, plus y_old[k].
    """

    def __init__(self, ts, t_old, h, y_old, F):
        self.ts, self.t_old, self.h, self.y_old, self.F = ts, t_old, h, y_old, F

    def __call__(self, t):
        seg = np.searchsorted(self.ts, t, side="left") - 1
        seg = np.clip(seg, 0, len(self.h) - 1)
        x = ((t - self.t_old[seg]) / self.h[seg])[:, None]
        F = self.F[seg]
        y = np.zeros((len(seg), 2))
        for i in range(F.shape[1]):
            y += F[:, -1 - i]
            y *= x if i % 2 == 0 else 1 - x
        y += self.y_old[seg]
        return y.T


def reference_dense(sol):
    """The mode's dense output in t = ln s, cut from its batch's table."""
    dense, lane = sol._dense
    rows = np.flatnonzero(dense.keys.real == lane)
    t0 = np.log(sol.ivp.r0 - 2.0 * max(sol.ivp.m, 0.0))
    ts = np.concatenate([[t0], dense.keys.imag[rows]])
    return ReferenceDense(ts, dense.t_old[rows], dense.h[rows], dense.y_old[:, rows].T,
                          dense.F[:, :, rows].transpose(2, 1, 0))


def reference_eval(sol, r):
    a, w = reference_dense(sol)(np.log(r - 2.0 * max(sol.ivp.m, 0.0)))
    return a, w / r / (r - 2.0 * sol.ivp.m)


def reference_flat(ivp, r_max, k_div):
    """(radii, a, da, diverged) of the m = 0 closed form, stopped at its crossing."""
    (c1, c2), ell = euler_coefficients(ivp.ell, ivp.r0, ivp.a0), ivp.ell
    threshold = k_div * (abs(ivp.a0) if ivp.a0 != 0.0 else 1.0)

    def closed_form(r):
        return euler_eval(ell, c1, c2, r)

    radii = reference_radii(ivp.r0, r_max)
    a, da = closed_form(radii)
    above = np.abs(a) >= threshold
    if not above.any():
        return radii, a, da, False
    stop = int(np.argmax(above))
    if stop == 0:
        return radii[:1], a[:1], da[:1], True
    eps = np.finfo(float).eps
    r_cross = brentq(lambda r: abs(closed_form(np.float64(r))[0]) - threshold,
                     radii[stop - 1], radii[stop], xtol=4 * eps, rtol=4 * eps)
    radii = reference_radii(ivp.r0, r_cross)
    return (radii, *closed_form(radii), True)


def same_class(got, want):
    """Equal classes, NaN equal to NaN, every float bit for bit."""
    assert got.kind is want.kind and got.reason == want.reason
    for name in ("alpha", "alpha_drift", "r_max"):
        g, w = getattr(got, name), getattr(want, name)
        assert type(g) is float and (g == w or (math.isnan(g) and math.isnan(w))), name
        assert math.copysign(1.0, g) == math.copysign(1.0, w), name


@functools.cache
def step_start_k_div():
    """A k_div at which (m, r0, l) = (1, 3, 2) crosses next to a step's start.

    Just above |a| at the start of a step, |a| - k_div changes sign in that
    step: the lane keeps it as its last segment and ends within
    4 eps (1 + |t|) of its start.
    """
    ivp = make_ivp(P13, 2, 1.0)
    free = integrate_mode(ivp, 3e3, k_div=np.inf)
    dense, lane = free._dense
    rows = np.flatnonzero(dense.keys.real == lane)
    k = rows[np.argmax(np.abs(dense.y_old[0, rows]) > 500.0)]
    k_div = float(np.nextafter(abs(dense.y_old[0, k]), np.inf))
    sol = integrate_mode(ivp, 3e3, k_div=k_div)
    ends, last = sol._dense[0], sol._dense[0].last[sol._dense[1]]
    t_start, t_end = dense.t_old[k], ends.keys.imag[last]
    assert sol.diverged and ends.t_old[last] == t_start
    assert np.count_nonzero(ends.keys.real == sol._dense[1]) == k - rows[0] + 1
    assert 0.0 < t_end - t_start <= 4 * EPS * (1 + abs(t_end))
    assert sol.r_max_used == np.exp(t_end) + 2.0
    return k_div


def mixed_batch():
    """One batch with a lane for each way sampling can go, at one k_div."""
    flat = SchwarzschildParams(m=0.0, r0=1.0)
    lanes = [
        (make_ivp(flat, 0, 1.0), 1e6),  # m = 0, no crossing
        (make_ivp(flat, 3, 1.0), 1e6),  # m = 0, crossing
        (make_ivp(flat, 2, -2.0), 1e5),  # m = 0, crossing below zero
        (make_ivp(P13, 2, 1.0), 3e3),  # crossing next to a step's start
        (make_ivp(SchwarzschildParams(m=-1.0, r0=1.0), 16, 1.0), 1e6),  # crossing
        (make_ivp(P13, 1, 1.0), 3e6),  # crossing, far out
        (make_ivp(P13, 0, 1.0), 3e6),  # out to its bound
        (make_ivp(SchwarzschildParams(m=-1.0, r0=1e-3), 0, 1.0), 1e3),  # near the puncture
        (make_ivp(P13, 2, 0.0), 3e20),  # zero data, out to its bound
        (make_ivp(P13, 0, 1.0), 150.0),  # a short range
        (make_ivp(SchwarzschildParams(m=1.0, r0=2.0 + 1e-12), 3, 1.0), 1e6),  # next to r = 2m
        (make_ivp(P13, 1, 1.0), 2.0),  # r_max below r0
        (make_ivp(SchwarzschildParams(m=-1e308, r0=1.0), 0, 1.0), 1e6),  # overflowing state
    ]
    k_div = step_start_k_div()
    ivps, r_max = zip(*lanes)
    return list(ivps), list(r_max), k_div, integrate_modes(list(ivps), list(r_max), k_div=k_div)


class TestBatchedSampling:
    def test_mixed_batch_matches_per_mode_references(self):
        ivps, r_max, k_div, batch = mixed_batch()
        kinds = {"flat", "flat-crossing", "bound", "crossing"}
        seen = set()
        for ivp, rm, sol in zip(ivps, r_max, batch):
            if not rm > ivp.r0:
                assert isinstance(sol, ValueError) and "r_max" in str(sol)
                continue
            if ivp.m == -1e308:
                assert isinstance(sol, ValueError) and "finite" in str(sol)
                continue
            assert isinstance(sol, ModeSolution)
            radii = reference_radii(ivp.r0, sol.r_max_used)
            a, da = reference_eval(sol, radii)
            seen.add("crossing" if sol.diverged else "bound")
            for got, want in ((sol.radii, radii), (sol.a, a), (sol.da, da)):
                assert got.tobytes() == want.tobytes()
            if ivp.m == 0.0:
                euler_radii, euler_a, _, diverged = reference_flat(ivp, rm, k_div)
                assert sol.diverged == diverged
                assert_allclose(sol.r_max_used, euler_radii[-1], rtol=1e-6)
                assert_allclose(sol.a[-1], euler_a[-1], rtol=1e-6)
                seen.add("flat-crossing" if diverged else "flat")
        assert kinds <= seen

    def test_eval_is_the_batch_evaluator_on_one_mode(self):
        _, _, _, batch = mixed_batch()
        rng = np.random.default_rng(5)
        for sol in batch:
            if not isinstance(sol, ModeSolution):
                continue
            r = np.sort(np.exp(rng.uniform(np.log(sol.ivp.r0), np.log(sol.r_max_used), 300)))
            r = np.concatenate([[sol.ivp.r0], r, [sol.r_max_used]])
            for got, want in zip(sol.eval(r), reference_eval(sol, r)):
                assert got.tobytes() == want.tobytes()


def classify_cases():
    """The solutions of TestClassify, and lanes that end in each way."""
    flat = SchwarzschildParams(m=0.0, r0=1.0)
    return [
        integrate_mode(make_ivp(P13, 0, 1.0), 3e6),
        integrate_mode(make_ivp(P13, 1, 1.0), 3e6),
        *(integrate_mode(make_ivp(flat, ell, 1.0), 1e6) for ell in range(1, 9)),
        integrate_mode(make_ivp(flat, 0, 1.0), 1e6),
        integrate_mode(make_ivp(P13, 2, 0.0), 3e4),
        integrate_mode(make_ivp(P13, 2, -1.0), 3e6),
        integrate_mode(replace(make_ivp(flat, 2, 1.0), da0=-3.0), 2.0),  # decaying
        *(integrate_mode(make_ivp(SchwarzschildParams(m=m, r0=r0), ell, 1.0), lane_end(m, r0))
          for m, r0 in ((1.0, 2.0 + 1e-12), (-1.0, 1e-12), (-1e-8, 1e160))
          for ell in (0, 1, 2, 16)),
    ]


class TestBatchedClassify:
    def test_batch_of_one_is_the_batch_entry(self):
        sols = classify_cases()
        batch = classify_modes(sols)
        assert len(batch) == len(sols)
        for sol, klass in zip(sols, batch):
            same_class(classify(sol), klass)

    def test_empty_batch(self):
        assert classify_modes([]) == []


def mp_q2(ell, eps):
    """Q_l^2(z) and its derivative by mpmath (type 3: z > 1), z = 1 + eps, at 40 digits."""
    with mpmath.workdps(40):
        z = 1 + mpmath.mpf(eps)

        def q(x):
            return mpmath.legenq(ell, 2, x, type=3).real

        return q(z), mpmath.diff(q, z)


class TestLegendreQ2:
    """The package's Q_l^2 against mpmath.legenq, on both sides of the forward/backward switch."""

    EPS = (1e-12, 1e-7, 1e-3, 0.05, 0.0999, 0.1001, 0.5, 3.0, 1e3, 1e6)

    @pytest.mark.parametrize("ell", [2, 3, 5, 16, 64])
    def test_matches_mpmath(self, ell):
        # log Q = lq + (l+1) log u with u = 1/z, and (z^2 - 1) Q'/Q = z (k2 - 2);
        # Q_64^2(1e6) is ~1e-407, so Q is compared through its logarithm
        eps = np.array(self.EPS)
        lq, k2, u = modes._legendre_q2(eps, np.ones(eps.size), np.full(eps.size, ell))
        log_q = lq + (ell + 1) * np.log(u)
        for e, lg, kappa in zip(eps, log_q, (1.0 + eps) * (k2 - 2.0)):
            q, dq = mp_q2(ell, e)
            assert abs(mpmath.exp(lg - mpmath.log(q)) - 1) <= 1e-10, e
            want = e * (2.0 + e) * dq / q
            assert abs((kappa - want) / want) <= 1e-10, e
        # the forward recurrence near z = 1 and Miller's beyond both ran
        forward = (eps <= modes._FORWARD_EPS) & (ell * np.arccosh(1.0 + eps)
                                                  <= modes._FORWARD_SPAN)
        assert forward.any() and not forward.all()

    def test_low_degrees_and_their_growing_partners(self):
        # Q_0^2 = 2z/(z^2-1) and Q_1^2 = 2/(z^2-1); G = (z-1)/(z+1) and
        # (z-1)(z+2)/(6(z+1)) solve the same equations (an order-2 Legendre
        # equation of degree 0 and 1), and the gap is (kappa_Q - kappa_G)/z
        eps = np.array([1e-12, 1e-3, 0.5, 3.0, 1e6])
        growing = {0: lambda x: (x - 1) / (x + 1), 1: lambda x: (x - 1) * (x + 2) / (6 * (x + 1))}
        for ell, g in growing.items():
            lq, k2, u = modes._legendre_q2(eps, np.ones(eps.size), np.full(eps.size, ell))
            gap = modes._gap(u, k2, np.full(eps.size, ell))
            for e, lg, k, gp in zip(eps, lq + (ell + 1) * np.log(u), k2, gap):
                with mpmath.workdps(40):
                    z = 1 + mpmath.mpf(e)
                    q, dq = mp_q2(ell, e)
                    assert abs(mpmath.exp(lg - mpmath.log(q)) - 1) <= 1e-13
                    d = z * z - 1
                    assert abs(z * (k - 2) / (d * dq / q) - 1) <= 1e-13
                    lhs = mpmath.diff(lambda x: (x * x - 1) * mpmath.diff(g, x), z)
                    rhs = (ell * (ell + 1) + 4 / d) * g(z)
                    assert abs(lhs - rhs) <= 1e-20 * abs(rhs)
                    want = d * (dq / q - mpmath.diff(g, z) / g(z)) / z
                    assert abs(gp / want - 1) <= 1e-12

    @pytest.mark.parametrize("ell", [0, 1, 2, 7, 40])
    def test_zero_mass_is_the_euler_pair(self, ell):
        # m = 0: Q = r^(-l-1) times a constant, so kappa / z = -(l+1); the gap
        # to G = r^l is -(2l+1)
        s = np.array([1e-300, 1.0, 1e300])
        lq, k2, u = modes._legendre_q2(s, np.zeros(3), np.full(3, ell))
        assert np.array_equal(u, np.zeros(3)) and np.isfinite(lq).all() and len(set(lq)) == 1
        assert_allclose(k2 - 2.0, -(ell + 1.0), rtol=1e-15)
        assert_allclose(modes._gap(u, k2, np.full(3, ell)), -(2.0 * ell + 1.0), rtol=1e-15)


@st.composite
def boundary_modes(draw):
    """(m, r0, l, a0): both signs of m and m = 0, s0/|m| from 1e-12 to 1e6, l <= 16."""
    sign = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    m = sign * 10.0 ** draw(st.floats(-3.0, 3.0))
    offset = 10.0 ** draw(st.floats(-12.0, 6.0)) * (abs(m) or 1.0)
    r0 = 2.0 * max(m, 0.0) + offset
    assume(r0 - 2.0 * max(m, 0.0) > 0.0)
    a0 = draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** draw(st.floats(-300.0, 300.0))
    return m, r0, draw(st.integers(0, 16)), a0


class TestGrowthCoefficient:
    @settings(max_examples=150, deadline=None)
    @given(boundary_modes())
    @example((1.0, 2.0 + 1e-12, 0, 1.0))
    @example((-1.0, 1e-12, 5, -3.0))
    @example((0.0, 1e-300, 16, 1.0))
    def test_every_sphere_gets_the_class_of_unit_data(self, mode):
        # degree 0 converges, every other degree diverges with the sign of
        # a0, and the closed form at r0 and the readout at the lane's end agree
        m, r0, ell, a0 = mode
        sol = integrate_mode(make_ivp(SchwarzschildParams(m=m, r0=r0), ell, a0), lane_end(m, r0))
        k = classify(sol)
        want = (AsymptoticKind.CONVERGES_NONZERO if ell == 0 else
                AsymptoticKind.DIVERGES_PLUS if a0 > 0 else AsymptoticKind.DIVERGES_MINUS)
        assert k.kind is want, k
        assert k.alpha_drift <= ALPHA_RTOL and k.reason is None
        assert math.copysign(1.0, k.alpha) == math.copysign(1.0, a0)

    def test_alpha_is_linear_in_a0(self):
        ivps = [make_ivp(P13, 3, a0) for a0 in (1.0, 2.0 ** -600, -(2.0 ** 600))]
        alphas = [k.alpha for k in classify_modes(integrate_modes(ivps, [5.0] * 3))]
        assert alphas == [alphas[0], alphas[0] * 2.0 ** -600, -alphas[0] * 2.0 ** 600]

    def test_declined_and_disagreeing_readouts_are_undetermined(self, monkeypatch):
        sols = [integrate_mode(make_ivp(P13, 2, 1.0), 5.0)] * 3
        start = modes._initial_state(sols[0].ivp)
        planted = {0: start, 1: (start[0], start[1], 1.5 * start[2]), 2: (start[0], np.nan, 0.0)}
        calls = iter(range(3))
        monkeypatch.setattr(modes, "_initial_state", lambda ivp: planted[next(calls)])
        ok, off, nan = classify_modes(sols)
        assert ok.kind is AsymptoticKind.DIVERGES_PLUS and ok.reason is None
        assert off.kind is AsymptoticKind.UNDETERMINED and "disagree" in off.reason
        assert off.alpha_drift > ALPHA_RTOL
        assert nan.kind is AsymptoticKind.UNDETERMINED and "closed-form" in nan.reason
