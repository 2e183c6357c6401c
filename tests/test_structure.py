import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from schwarzstatic.background import SchwarzschildParams, background_at
from schwarzstatic.curvature_lab import (
    linearize_at_schwarzschild,
    make_lab_grid,
    oracle_combinations,
)
from schwarzstatic.fields import (
    DeformationField,
    RadialProfile,
    power_profile,
    random_deformation,
)
from schwarzstatic.harmonics import mode_position
from schwarzstatic.modes import integrate_mode, make_ivp
from schwarzstatic.sphere_ops import SphereCalc
from schwarzstatic.structure import (
    MUTATIONS,
    FoliationDeformation,
    boundary_residuals,
    decoupled_residual,
    linearized_scalar_curvature,
    structure_residuals,
)

from reference import single_mode_scalar

P13 = SchwarzschildParams(m=1.0, r0=3.0)


@pytest.fixture(scope="module")
def calc():
    return SphereCalc(l_max=10)


def mass_variation_field(params, calc):
    m = params.m
    prof = RadialProfile(
        f=lambda r: 1.0 / (r - 2.0 * m),
        df=lambda r: -1.0 / (r - 2.0 * m) ** 2,
        d2f=lambda r: 2.0 / (r - 2.0 * m) ** 3,
    )
    one = np.ones(calc.n_nodes)
    field = DeformationField(params, calc)
    field.add_ab_conformal(prof.scaled(-2.0), one)
    field.add_u(prof.scaled(-1.0), one)
    return field


def mode_profile_from_solution(sol, ivp):
    """RadialProfile view of an integrated mode, derivatives from the ODE."""
    m, ll1, S = ivp.m, ivp.ell * (ivp.ell + 1.0), ivp.source

    def f(r):
        return sol.eval(r)[0]

    def df(r):
        return sol.eval(r)[1]

    def d2f(r):
        a, da = sol.eval(r)
        rho2 = r * (r - 2.0 * m)
        return ((4.0 * m * m / rho2 + ll1) * a - S / rho2 - 2.0 * (r - m) * da) / rho2

    return RadialProfile(f=f, df=df, d2f=d2f)


class TestStructureResiduals:
    def test_zero_deformation(self, calc):
        r = np.linspace(3.0, 6.0, 9)
        n = calc.n_nodes
        d = FoliationDeformation(
            params=P13, calc=calc, r=r,
            gamma=np.zeros((9, n, 2, 2)), H=np.zeros((9, n)),
            Kring=np.zeros((9, n, 2, 2)), u=np.zeros((9, n)),
            dH=np.zeros((9, n)), dKring=np.zeros((9, n, 2, 2)),
            du=np.zeros((9, n)), d2u=np.zeros((9, n)),
        )
        res = structure_residuals(d)
        for v in res.values():
            assert np.abs(v).max() == 0.0

    def test_mass_variation_analytic_is_exact(self, calc):
        field = mass_variation_field(P13, calc)
        r = np.linspace(3.0, 7.5, 33)
        d = FoliationDeformation.from_field(field, r)
        res = structure_residuals(d)
        for name, v in res.items():
            assert np.abs(v).max() <= 1e-12, name

    def test_kring_trace_invariant(self, calc):
        rng = np.random.default_rng(4)
        field = random_deformation(rng, P13, calc, l_band=4, gauge_fixed=True)
        d = FoliationDeformation.from_field(field, np.linspace(3.0, 7.5, 17))
        trace = d.Kring[..., 0, 0] + d.Kring[..., 1, 1]
        assert np.abs(trace).max() <= 1e-12

    def test_mass_variation_sampled_fourth_order(self, calc):
        # finite-difference path: residuals are pure truncation and shrink
        # ~16x per halving on interior rows
        field = mass_variation_field(P13, calc)

        def interior_max(n_r):
            r = np.linspace(3.0, 7.5, n_r)
            d = FoliationDeformation.from_samples(P13, calc, r, field.ab(r), field.u(r))
            res = structure_residuals(d)
            window = (r >= 3.45) & (r <= 7.05)
            return max(np.abs(v[window]).max() for v in res.values())

        coarse, fine = interior_max(33), interior_max(65)
        assert coarse <= 1e-3
        assert fine <= 1e-4
        assert 10.0 < coarse / fine < 26.0

    def test_from_samples_rejects_six_radii(self, calc):
        # the radial stencils need seven samples
        field = mass_variation_field(P13, calc)
        r = np.linspace(3.0, 4.0, 6)
        with pytest.raises(ValueError, match="at least 7"):
            FoliationDeformation.from_samples(P13, calc, r, field.ab(r), field.u(r))

    def test_single_mode_with_conserved_H(self, calc):
        # u~ = a(r) Y_{kl}, H~ built from the radial conservation law with
        # the boundary slope; dg2 and dg1 must vanish to integrator accuracy
        ell, k = 2, 1
        ivp = make_ivp(P13, ell, 1.0)
        sol = integrate_mode(ivp, 60.0, k_div=np.inf)
        prof = mode_profile_from_solution(sol, ivp)
        field = single_mode_scalar(P13, calc, ell, k, prof)

        # H~ = -4 m A / rho2 as a separated term
        alpha0 = ivp.alpha0

        def h_f(r):
            return -4.0 * P13.m * (prof.f(r) - alpha0) / (r * (r - 2.0 * P13.m))

        r = np.linspace(3.0, 12.0, 25)
        ymode = np.zeros(calc.grid.n_modes)
        ymode[mode_position(ell, k)] = 1.0
        yvals = calc.from_coeffs(ymode)
        n = calc.n_nodes
        bgr = background_at(P13, r)

        def dh_f(r_):
            rho2 = r_ * (r_ - 2.0 * P13.m)
            da = prof.df(r_)
            a = prof.f(r_)
            return (-4.0 * P13.m / rho2) * da + 4.0 * P13.m * (a - alpha0) * (
                2.0 * (r_ - P13.m)
            ) / rho2**2

        d = FoliationDeformation(
            params=P13, calc=calc, r=r,
            gamma=np.zeros((len(r), n, 2, 2)),
            H=np.stack([h_f(s) * yvals for s in r]),
            Kring=np.zeros((len(r), n, 2, 2)),
            u=np.stack([prof.f(s) * yvals for s in r]),
            dH=np.stack([dh_f(s) * yvals for s in r]),
            dKring=np.zeros((len(r), n, 2, 2)),
            du=np.stack([prof.df(s) * yvals for s in r]),
            d2u=np.stack([prof.d2f(s) * yvals for s in r]),
        )
        res = structure_residuals(d)
        assert np.abs(res["dg2"]).max() <= 1e-7
        assert np.abs(res["dg1"]).max() <= 1e-7

    def test_dg3_propagation(self, calc):
        # Kring scaling like rho2(r0)/rho2(r) in the frame solves dg3 = 0,
        # so zero boundary data propagates to zero
        rng = np.random.default_rng(0)
        chi = calc.random_band_limited(rng, 4)
        k0 = calc.tt_from_potential(chi)
        rho2_0 = 3.0 * 1.0

        def kr(r, order=0):
            rho2 = r * (r - 2.0)
            if order == 0:
                return rho2_0 / rho2
            return -rho2_0 * (2.0 * r - 2.0) / rho2**2

        r = np.linspace(3.0, 9.0, 17)
        n = calc.n_nodes
        d = FoliationDeformation(
            params=P13, calc=calc, r=r,
            gamma=np.zeros((17, n, 2, 2)), H=np.zeros((17, n)),
            Kring=np.stack([kr(s) * k0 for s in r]),
            u=np.zeros((17, n)), dH=np.zeros((17, n)),
            dKring=np.stack([kr(s, 1) * k0 for s in r]),
            du=np.zeros((17, n)), d2u=np.zeros((17, n)),
        )
        res = structure_residuals(d)
        assert np.abs(res["dg3"]).max() <= 1e-12


class TestConservationLaw:
    def test_mass_variation_constant_is_two(self, calc):
        # rho2 H~ + 4 m u~ = 2 exactly along the mass direction
        field = mass_variation_field(P13, calc)
        r = np.linspace(3.0, 12.0, 21)
        d = FoliationDeformation.from_field(field, r)
        bg = background_at(P13, r)
        invariant = bg.rho2[:, None] * d.H + 4.0 * P13.m * d.u
        assert_allclose(invariant, 2.0, rtol=1e-12)

    def test_integrated_dg2_solutions_conserve(self, calc):
        # integrate dH/dr = -H_sc H - 4 u_sc' u~' from random boundary data;
        # rho2 H + 4m u must stay constant to 1e-9 relative
        rng = np.random.default_rng(8)
        field = random_deformation(rng, P13, calc, l_band=3, gauge_fixed=True)
        h0 = calc.random_band_limited(rng, 3)

        def rhs(r, y):
            bg = background_at(P13, r)
            return -bg.H_sc * y - 4.0 * bg.du_sc * field.u(r, 1)

        sol = solve_ivp(
            rhs, (3.0, 30.0), h0, method="DOP853",
            rtol=1e-12, atol=1e-14, dense_output=True,
        )
        assert sol.success
        r = np.geomspace(3.0, 30.0, 40)
        invariant = (r * (r - 2.0))[:, None] * sol.sol(r).T + 4.0 * field.u(r)
        drift = np.abs(invariant - invariant[0]).max()
        scale = max(np.abs(invariant[0]).max(), 1e-3)
        assert drift <= 1e-9 * scale


class TestScalarCurvatureLinearization:
    def test_conformal_mode_identity(self, calc):
        # R'(2 u~ gamma_sc) = (2 l(l+1) - 4)/rho2 * Y per mode
        rho2 = 3.0 * 1.0
        for ell, k in [(0, 0), (1, 1), (2, 0), (5, -3)]:
            y = calc.grid.Y[:, mode_position(ell, k)]
            h = np.zeros((calc.n_nodes, 2, 2))
            h[:, 0, 0] = 2.0 * y
            h[:, 1, 1] = 2.0 * y
            out = linearized_scalar_curvature(calc, h, rho2)
            ll1 = ell * (ell + 1.0)
            expect = (2.0 * ll1 - 4.0) / rho2 * y
            assert np.abs(out - expect).max() <= 1e-10


class TestBoundaryResiduals:
    def test_zero_data(self, calc):
        r = np.linspace(3.0, 6.0, 9)
        n = calc.n_nodes
        d = FoliationDeformation(
            params=P13, calc=calc, r=r,
            gamma=np.zeros((9, n, 2, 2)), H=np.zeros((9, n)),
            Kring=np.zeros((9, n, 2, 2)), u=np.zeros((9, n)),
            dH=np.zeros((9, n)), dKring=np.zeros((9, n, 2, 2)),
            du=np.zeros((9, n)), d2u=np.zeros((9, n)),
        )
        g_res, h_res = boundary_residuals(d)
        assert np.abs(g_res).max() == 0.0
        assert np.abs(h_res).max() == 0.0

    def test_constructed_to_satisfy(self, calc):
        # gamma~ = 2 u~ gamma_sc with u~ = Y_20 p(r), H~ = 2 du~ - (2/r0) u~
        y = calc.grid.Y[:, mode_position(2, 0)]
        prof = power_profile(3.0, 1.5)
        field = DeformationField(P13, calc)
        field.add_ab_conformal(prof.scaled(2.0), y)
        field.add_u(prof, y)
        r = np.linspace(3.0, 6.0, 17)
        d = FoliationDeformation.from_field(field, r)
        # overwrite H~ with the boundary-compatible radial law (only the
        # boundary ring matters here)
        d.H = np.stack([(2.0 * prof.df(s) - 2.0 / 3.0 * prof.f(s)) * y for s in r])
        g_res, h_res = boundary_residuals(d)
        assert np.abs(g_res).max() <= 1e-13
        assert np.abs(h_res).max() <= 1e-13

    def test_mass_variation_boundary_values(self, calc):
        # the mass direction solves the bulk system but not the boundary
        # rows: the curvature row evaluates to -2/(r0 (r0-2m)) = -2/3
        field = mass_variation_field(P13, calc)
        r = np.linspace(3.0, 6.0, 17)
        d = FoliationDeformation.from_field(field, r)
        _, h_res = boundary_residuals(d)
        assert_allclose(h_res, -2.0 / 3.0, rtol=1e-12)


class TestDecoupledResidual:
    def test_zero_field(self, calc):
        r = np.linspace(3.0, 6.0, 33)
        u = np.zeros((33, calc.n_nodes))
        out = decoupled_residual(P13, calc, r, u)
        assert np.abs(out).max() == 0.0

    def test_single_mode_small(self, calc):
        # the synthesized mode carries its first radial derivative from the
        # integrator state, per the operation's contract
        ell, k = 2, -1
        ivp = make_ivp(P13, ell, 1.0)
        sol = integrate_mode(ivp, 10.0, k_div=np.inf, rtol=3e-14, atol=1e-16)
        r = np.linspace(3.0, 3.6, 321)
        a, da = sol.eval(r)
        y = calc.grid.Y[:, mode_position(ell, k)]
        out = decoupled_residual(P13, calc, r, a[:, None] * y, da[:, None] * y)
        assert np.abs(out).max() <= 1e-7

    def test_values_only_path(self, calc):
        # without a supplied derivative the operator differences twice
        ell, k = 1, 0
        ivp = make_ivp(P13, ell, 1.0)
        sol = integrate_mode(ivp, 10.0, k_div=np.inf, rtol=3e-14, atol=1e-16)
        r = np.linspace(3.0, 3.6, 129)
        a, _ = sol.eval(r)
        y = calc.grid.Y[:, mode_position(ell, k)]
        out = decoupled_residual(P13, calc, r, a[:, None] * y)
        assert np.abs(out).max() <= 1e-7

    def test_flat_decaying_mode(self, calc):
        # m = 0: u~ = r^(-l-1) Y solves the homogeneous equation and the
        # source prefactor 2m kills the boundary term; residual is pure
        # radial truncation of the sampled derivatives
        params = SchwarzschildParams(m=0.0, r0=1.0)
        ell, k = 2, 2
        r = np.linspace(1.0, 1.6, 257)
        a = r ** (-ell - 1.0)
        da = -(ell + 1.0) * r ** (-ell - 2.0)
        y = calc.grid.Y[:, mode_position(ell, k)]
        out = decoupled_residual(params, calc, r, a[:, None] * y, da[:, None] * y)
        assert np.abs(out).max() <= 5e-8


def boundary_identity_residual(
    params: SchwarzschildParams, ell: int, a0: float, da0: float
) -> float:
    """Per-mode boundary identity: 2 r0 (r0-2m) a' - r0 l(l+1) a + 2m a.

    Vanishes exactly when (a0, da0) satisfy the mode initial-slope relation.
    """
    m, r0 = params.m, params.r0
    return 2.0 * r0 * (r0 - 2.0 * m) * da0 - r0 * ell * (ell + 1.0) * a0 + 2.0 * m * a0


class TestBoundaryIdentity:
    def test_mode_slope_is_exact_zero(self):
        for ell in (0, 1, 2, 5, 8):
            ivp = make_ivp(P13, ell, 1.0)
            res = boundary_identity_residual(P13, ell, ivp.a0, ivp.da0)
            assert abs(res) <= 1e-12

    def test_zero_data(self):
        assert boundary_identity_residual(P13, 3, 0.0, 0.0) == 0.0

    def test_plugin_value(self):
        # a = 1, a' = 0, l = 2 at (m=1, r0=3): -3*6 + 2 = -16
        assert_allclose(boundary_identity_residual(P13, 2, 1.0, 0.0), -16.0)


class TestOracleAgreement:
    def test_random_transverse_direction(self):
        calc = SphereCalc(l_max=12)
        grid = make_lab_grid(P13, r_outer=4.5, n_r=129, calc=calc)
        rng = np.random.default_rng(17)
        field = random_deformation(rng, P13, calc, l_band=3, gauge_fixed=True)
        d = FoliationDeformation.from_field(field, grid.r)
        res = structure_residuals(d)
        lin = linearize_at_schwarzschild(grid, field)
        combos = oracle_combinations(grid, field, lin)
        for name in ("dg2", "dg4", "dg5", "dg3", "dg1"):
            diff = np.abs(res[name] - combos[name])[4:-4]
            assert diff.max() <= 1e-6, (name, diff.max())

    def test_mutation_hook_breaks_agreement(self):
        calc = SphereCalc(l_max=10)
        grid = make_lab_grid(P13, r_outer=4.5, n_r=65, calc=calc)
        rng = np.random.default_rng(18)
        field = random_deformation(rng, P13, calc, l_band=2, gauge_fixed=True)
        d = FoliationDeformation.from_field(field, grid.r)
        lin = linearize_at_schwarzschild(grid, field)
        combos = oracle_combinations(grid, field, lin)
        MUTATIONS.add("dg4-sign")
        try:
            res = structure_residuals(d)
            diff = np.abs(res["dg4"] - combos["dg4"])[4:-4]
            assert diff.max() > 1e-3
        finally:
            MUTATIONS.discard("dg4-sign")
