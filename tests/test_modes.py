import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import DOP853, solve_ivp

from schwarzstatic.background import SchwarzschildParams
from schwarzstatic.modes import (
    FLAT_MASS_RTOL,
    PHASE_SWITCH,
    AsymptoticKind,
    classify,
    comparison_positivity,
    integrate_mode,
    make_ivp,
    verify_kernel_trivial,
)

P13 = SchwarzschildParams(m=1.0, r0=3.0)


def euler_coefficients(ell, r0, a0):
    """Flat-case closed form: a = c1 r^(-l-1) + c2 r^l from the initial data."""
    da0 = ell * (ell + 1.0) / (2.0 * r0) * a0
    if ell == 0:
        return -(r0**2) * da0, a0 + r0 * da0
    mat = np.array(
        [
            [r0 ** (-ell - 1.0), r0**ell],
            [-(ell + 1.0) * r0 ** (-ell - 2.0), ell * r0 ** (ell - 1.0)],
        ]
    )
    c1, c2 = np.linalg.solve(mat, [a0, da0])
    return c1, c2


def scipy_mode(ivp, r_max, rtol, atol, k_div):
    """The mode integrated by solve_ivp(method="DOP853"), phase by phase.

    This is the route integrate_mode's own stepper replaced, kept here as its
    independent check.  Returns (a and a' at radii r, r_reached, diverged,
    right-hand-side evaluations).
    """
    m, r0, ll1, S = ivp.m, ivp.r0, ivp.ell * (ivp.ell + 1.0), ivp.source
    threshold = k_div * (abs(ivp.a0) if ivp.a0 != 0.0 else 1.0)

    def rhs_r(r, y):
        rho2 = r * (r - 2.0 * m)
        return [y[1] / rho2, (4.0 * m * m / rho2 + ll1) * y[0] - S / rho2]

    def rhs_x(x, y):
        omx = 1.0 - 2.0 * m * x
        return [-y[1] / omx, -(4.0 * m * m / omx) * y[0] - ll1 * y[0] / (x * x) + S / omx]

    def blowup(t, y):
        return abs(y[0]) - threshold

    blowup.terminal = True
    events = blowup if np.isfinite(threshold) else None
    opts = dict(method="DOP853", rtol=rtol, atol=atol, dense_output=True, events=events)
    r_switch = min(r_max, PHASE_SWITCH * r0)
    with np.errstate(all="ignore"):  # numpy scalars meet x / 0 at huge extents
        inner = solve_ivp(rhs_r, (r0, r_switch), [ivp.a0, r0 * (r0 - 2.0 * m) * ivp.da0], **opts)
        if not inner.success:
            raise RuntimeError(inner.message)
        diverged, r_reached, nfev, tail = inner.status == 1, inner.t[-1], inner.nfev, None
        if not diverged and r_max > r_switch:
            tail = solve_ivp(rhs_x, (1.0 / r_switch, 1.0 / r_max), inner.y[:, -1], **opts)
            if not tail.success:
                raise RuntimeError(tail.message)
            diverged, r_reached, nfev = tail.status == 1, 1.0 / tail.t[-1], nfev + tail.nfev

    def evaluate(r):
        y = np.empty((2, r.size))
        outer = r > r_switch if tail is not None else np.zeros(r.size, dtype=bool)
        y[:, ~outer] = inner.sol(r[~outer])
        if outer.any():
            y[:, outer] = tail.sol(1.0 / r[outer])
        return y[0], y[1] / (r * (r - 2.0 * m))

    return evaluate, r_reached, diverged, nfev


class TestMakeIVP:
    def test_l0_constants(self):
        ivp = make_ivp(P13, 0, 1.0)
        assert_allclose(ivp.alpha0, 0.0, atol=1e-15)
        assert_allclose(ivp.da0, -1.0 / 3.0, rtol=1e-15)
        assert ivp.beta0 is not None  # defined for every ell except 1

    def test_l1_constants(self):
        ivp = make_ivp(P13, 1, 1.0)
        assert_allclose(ivp.alpha0, 1.5, rtol=1e-15)
        assert_allclose(ivp.da0, 2.0 / 3.0, rtol=1e-15)
        assert ivp.beta0 is None

    def test_l2_constants(self):
        ivp = make_ivp(P13, 2, 1.0)
        assert_allclose(ivp.alpha0, 4.5, rtol=1e-15)
        assert_allclose(ivp.beta0, 4.5, rtol=1e-15)
        # B(r0) = a0 - beta0 / (r0 (r0 - 2m))
        b0 = ivp.a0 - ivp.beta0 / (3.0 * 1.0)
        assert_allclose(b0, -0.5, rtol=1e-14)

    def test_source_constant_matches_alpha0(self):
        for ell in (0, 1, 2, 5):
            ivp = make_ivp(P13, ell, 1.3)
            assert_allclose(ivp.source, 4.0 * P13.m**2 * ivp.alpha0, rtol=1e-13)

    def test_flat_branch_has_no_substitution_constants(self):
        ivp = make_ivp(SchwarzschildParams(m=0.0, r0=1.0), 3, 1.0)
        assert ivp.flat_branch
        assert ivp.alpha0 is None and ivp.beta0 is None
        assert ivp.source == 0.0

    def test_near_zero_mass_uses_flat_branch(self):
        ivp = make_ivp(SchwarzschildParams(m=1e-12, r0=1.0), 2, 1.0)
        assert ivp.flat_branch


class TestIntegrateEuler:
    def test_closed_form_coefficients(self):
        c1, c2 = euler_coefficients(2, 1.0, 1.0)
        assert_allclose(c2, 1.2, rtol=1e-14)
        assert_allclose(c1, -0.2, rtol=1e-14)

    def test_generic_integrator_matches_euler(self):
        params = SchwarzschildParams(m=0.0, r0=1.0)
        for ell in range(9):
            ivp = make_ivp(params, ell, 1.0)
            sol = integrate_mode(ivp, 10.0, k_div=np.inf, force_generic=True)
            c1, c2 = euler_coefficients(ell, 1.0, 1.0)
            a10, _ = sol.eval(10.0)
            expect = c1 * 10.0 ** (-ell - 1.0) + c2 * 10.0**ell
            assert_allclose(a10, expect, rtol=1e-8)

    def test_flat_branch_equals_generic(self):
        params = SchwarzschildParams(m=0.0, r0=1.0)
        ivp = make_ivp(params, 4, 1.0)
        closed = integrate_mode(ivp, 50.0, k_div=np.inf)
        generic = integrate_mode(ivp, 50.0, k_div=np.inf, force_generic=True)
        a_c, _ = closed.eval(np.array([2.0, 10.0, 50.0]))
        a_g, _ = generic.eval(np.array([2.0, 10.0, 50.0]))
        assert_allclose(a_g, a_c, rtol=1e-8)

    def test_zero_data_stays_zero(self):
        params = SchwarzschildParams(m=0.0, r0=1.0)
        for force in (False, True):
            sol = integrate_mode(make_ivp(params, 3, 0.0), 1e3, force_generic=force)
            assert np.abs(sol.a).max() <= 1e-12
            assert np.abs(sol.da).max() <= 1e-12


class TestIntegrateSchwarzschild:
    def test_l0_limit_is_initial_value(self):
        sol = integrate_mode(make_ivp(P13, 0, 1.0), 3e6)
        klass = classify(sol)
        assert klass.kind is AsymptoticKind.CONVERGES_NONZERO
        assert_allclose(klass.fitted_limit, 1.0, rtol=1e-6)

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
        assert_allclose(sol.phi, sol.rho2() * sol.A, rtol=1e-14)
        # Phi * rho2 = phi' as derived views of the same samples
        r, m = sol.radii, 1.0
        dphi_analytic = 2.0 * (r - m) * sol.A + sol.rho2() * sol.da
        assert_allclose(sol.Phi * sol.rho2(), dphi_analytic, rtol=1e-9)
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
        B = sol.B
        rho2 = sol.rho2()
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
        # k_div = inf runs every degree through the x = 1/r phase; at 1e20
        # the first step-size probe lands on x = 0, where x * x = 0 (degree
        # 16 overflows there, for solve_ivp too)
        sol = self.check(make_ivp(P13, ell, 1.0), factor * 3.0, k_div=np.inf)
        assert sol.r_max_used > PHASE_SWITCH * 3.0 and not sol.diverged

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
        # x * x underflows near x = 1/r_max: 0/0 in the degree-0 right-hand
        # side makes every stage nan, and both step sizes shrink to failure
        ivp = make_ivp(SchwarzschildParams(m=m, r0=r0), 0, 1.0)
        with pytest.raises(RuntimeError, match="tail integration failed"):
            integrate_mode(ivp, 1e300 * r0)
        with pytest.raises(RuntimeError):
            scipy_mode(ivp, 1e300 * r0, 1e-10, 1e-12, 1e3)


class TestDiagnostics:
    def test_flat_branch_takes_no_steps(self):
        params = SchwarzschildParams(m=0.0, r0=1.0)
        for ell, stop in ((0, "r_max"), (3, "k_div")):
            sol = integrate_mode(make_ivp(params, ell, 1.0), 1e6)
            assert (sol.n_steps, sol.nfev, sol.stop) == (0, 0, stop)

    def test_verdict_carries_solver_counts(self):
        v = verify_kernel_trivial(P13, 2)
        sol = integrate_mode(make_ivp(P13, 2, 1.0), 1e6 * 3.0)
        assert (v.n_steps, v.nfev, v.stop) == (sol.n_steps, sol.nfev, "k_div")


class TestFlatBranchCrossing:
    def test_same_crossing_on_both_sides_of_the_flat_threshold(self):
        # m just below FLAT_MASS_RTOL * r0 takes the closed form, just above
        # it the integrator; both must stop where |a| = k_div |a0|
        ivps = [make_ivp(SchwarzschildParams(m=f * FLAT_MASS_RTOL, r0=1.0), 2, 1.0)
                for f in (0.99, 1.01)]
        sols = [integrate_mode(ivp, 1e6) for ivp in ivps]
        assert sols[0].ivp.flat_branch and not sols[1].ivp.flat_branch
        assert_allclose(sols[0].r_max_used, sols[1].r_max_used, rtol=1e-6)
        for sol in sols:
            klass = classify(sol)
            assert klass.kind is AsymptoticKind.DIVERGES_PLUS
            assert_allclose(klass.fitted_limit, 1e3, rtol=1e-9)
            assert sol.radii[-1] == sol.r_max_used


class TestClassify:
    def test_l0_converges(self):
        sol = integrate_mode(make_ivp(P13, 0, 1.0), 3e6)
        k = classify(sol)
        assert k.kind is AsymptoticKind.CONVERGES_NONZERO
        assert_allclose(k.fitted_limit, 1.0, rtol=1e-6)

    def test_l1_diverges_plus(self):
        # the degree-1 mode grows linearly once Phi has leveled off, since a
        # positive Phi limit forbids a bounded A with vanishing slope
        sol = integrate_mode(make_ivp(P13, 1, 1.0), 3e6)
        k = classify(sol)
        assert k.kind is AsymptoticKind.DIVERGES_PLUS
        assert abs(k.fitted_exponent - 1.0) <= 0.05

    def test_flat_higher_modes_diverge(self):
        params = SchwarzschildParams(m=0.0, r0=1.0)
        for ell in range(1, 9):
            sol = integrate_mode(make_ivp(params, ell, 1.0), 1e6)
            assert classify(sol).kind is AsymptoticKind.DIVERGES_PLUS

    def test_flat_l0_converges(self):
        sol = integrate_mode(make_ivp(SchwarzschildParams(m=0.0, r0=1.0), 0, 1.0), 1e6)
        k = classify(sol)
        assert k.kind is AsymptoticKind.CONVERGES_NONZERO
        assert_allclose(k.fitted_limit, 1.0, rtol=1e-9)

    def test_zero_solution_decays(self):
        sol = integrate_mode(make_ivp(P13, 2, 0.0), 3e4)
        assert classify(sol).kind is AsymptoticKind.DECAYS_TO_ZERO

    def test_decaying_profile_detected(self):
        # synthetic decaying mode: exercise the decay branch without an IVP
        sol = integrate_mode(make_ivp(P13, 2, 1.0), 3e4, k_div=np.inf)
        sol.a = (3.0 / sol.radii) ** 1.5
        sol.da = -1.5 * sol.a / sol.radii
        sol.diverged = False
        k = classify(sol)
        assert k.kind is AsymptoticKind.DECAYS_TO_ZERO
        assert k.fitted_exponent < -0.75

    def test_rejects_bad_decay_q(self):
        sol = integrate_mode(make_ivp(P13, 0, 1.0), 3e3)
        with pytest.raises(ValueError):
            classify(sol, decay_q=1.5)


class TestVerify:
    def test_schwarzschild_l0(self):
        v = verify_kernel_trivial(P13, 0)
        assert v.passed
        assert v.klass.kind is AsymptoticKind.CONVERGES_NONZERO
        assert_allclose(v.klass.fitted_limit, 1.0, rtol=1e-6)

    def test_flat_l5(self):
        v = verify_kernel_trivial(SchwarzschildParams(m=0.0, r0=1.0), 5)
        assert v.passed
        assert v.klass.kind is AsymptoticKind.DIVERGES_PLUS
        assert v.flat_branch

    def test_negative_mass(self):
        v = verify_kernel_trivial(SchwarzschildParams(m=-1.0, r0=1.0), 2)
        assert v.passed

    def test_failure_kind_names(self):
        v = verify_kernel_trivial(P13, 0)
        assert v.failure_kind is None


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
