import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from schwarzstatic.background import (
    SchwarzschildParams,
    background_at,
    conformal_metric_cartesian,
)
from schwarzstatic.fields import (
    DeformationField,
    power_profile,
    random_deformation,
)
from schwarzstatic.gauge import (
    GEODESIC_GAUGE_TOL,
    FlowLieDeformation,
    apply_gauge,
    build_gauge_field,
    flow_lie_derivative,
    schwarzschild_cartesian,
)
from schwarzstatic.sphere_ops import SphereCalc

from reference import boundary_vanishing_profile, combine, constant_profile, oscillating_profile

P13 = SchwarzschildParams(m=1.0, r0=3.0)


@pytest.fixture(scope="module")
def calc():
    return SphereCalc(l_max=8)


def make_test_vector_field(params, amp=0.2, s=2.0):
    """Closed-form boundary-vanishing vector field on the exterior.

    Y = p(r) H(n) n + q(r) P(2 Q n) + s(r) (n x Q n) with a fixed traceless
    quadrupole Q; every factor is evaluable at arbitrary points, so the same
    field drives flows, Jacobians, and frame comparisons.
    """
    r0 = params.r0
    q_mat = np.array([[0.3, 0.1, -0.2], [0.1, -0.5, 0.25], [-0.2, 0.25, 0.2]])
    p = boundary_vanishing_profile(r0, s, amp)
    q = boundary_vanishing_profile(r0, s + 0.5, 0.7 * amp)
    w = boundary_vanishing_profile(r0, s, 0.5 * amp)

    def y_fn(x):
        x = np.atleast_2d(x)
        r = np.linalg.norm(x, axis=-1)
        n = x / r[:, None]
        qn = n @ q_mat
        h = np.einsum("ni,ni->n", n, qn)
        tang = 2.0 * (qn - h[:, None] * n)
        rot = np.cross(n, qn)
        return (
            (p.f(r) * h)[:, None] * n
            + q.f(r)[:, None] * tang
            + w.f(r)[:, None] * rot
        )

    return y_fn, (p, q, w, q_mat)


def reference_flow_lie_derivative(y_fn, params, points, eps, steps):
    """The flow oracle with `steps` RK4 sub-steps per flow time.

    Each flow time runs its own fixed-step RK4 from the stacked probes; at
    steps=1 this is flow_lie_derivative's arithmetic, with the first stage
    recomputed per flow time.
    """
    jac_h = 1e-3
    offs = (-2.0, -1.0, 1.0, 2.0)
    coef = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)
    npts = len(points)
    probes = [points]
    for j in range(3):
        for o in offs:
            shifted = points.copy()
            shifted[:, j] += o * jac_h
            probes.append(shifted)
    stacked = np.concatenate(probes, axis=0)

    def pullback(t):
        dt = t / steps
        x = stacked.copy()
        for _ in range(steps):
            k1 = y_fn(x)
            k2 = y_fn(x + 0.5 * dt * k1)
            k3 = y_fn(x + 0.5 * dt * k2)
            k4 = y_fn(x + dt * k3)
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        jac = np.zeros((npts, 3, 3))
        for j in range(3):
            for idx, c in enumerate(coef):
                block = x[(1 + 4 * j + idx) * npts : (2 + 4 * j + idx) * npts]
                jac[:, :, j] += c / jac_h * block
        gval = schwarzschild_cartesian(params, x[:npts])
        return np.einsum("nki,nlj,nkl->nij", jac, jac, gval)

    d_full = (pullback(eps) - pullback(-eps)) / (2.0 * eps)
    d_half = (pullback(0.5 * eps) - pullback(-0.5 * eps)) / eps
    return (4.0 * d_half - d_full) / 3.0


def evaluate(gt, component, r):
    """One radial component of a deformation from its separated form."""
    basis, shapes = gt.separated(component)
    return np.tensordot(basis(r), shapes, axes=1)


def flow_interp(gt, tab, r):
    """Barycentric interpolant of a FlowLieDeformation table at radii r.

    The second form of the formula (weighted sum over the weights' sum), on
    the flow's own nodes and weights; a radius within 1e-13 of a node takes
    that node's sample.
    """
    r = np.asarray(r, dtype=float)
    d = r.reshape(-1, 1) - gt._nodes
    hit = np.abs(d) < 1e-13
    w = gt._bary / np.where(hit, 1.0, d)
    on_node = hit.any(axis=1)
    w[on_node] = hit[on_node]
    out = np.tensordot(w, tab, axes=(1, 0))
    out /= w.sum(axis=1).reshape((-1,) + (1,) * (tab.ndim - 1))
    return out.reshape(r.shape + tab.shape[1:])


def flow_rr(gt, r):
    """g~(dr, dr) node samples of a FlowLieDeformation at radii r."""
    return flow_interp(gt, gt._rr_tab, r)


def flow_ra(gt, r):
    """g~(dr, e_A) node samples of a FlowLieDeformation: unit-frame table times r/rho."""
    r = np.asarray(r, dtype=float)
    return flow_interp(gt, gt._ra_tab, r) * (r / np.sqrt(r * (r - 2.0 * gt.params.m)))[..., None, None]


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)


def gauss_cell(f, a, b):
    """4-point Gauss rule for int_a^b f(s) ds over node samples, one cell per entry."""
    half = 0.5 * (b - a)
    vals = f(a[..., None] + half[..., None] * (_GAUSS_X + 1.0))
    w = half[..., None] * _GAUSS_W
    w = w.reshape(w.shape + (1,) * (vals.ndim - w.ndim))
    return (w * vals).sum(axis=np.ndim(a))


class NodeSampleGaugeField:
    """The gauge vector by nested Gauss rules on node samples of rr and ra.

    The same cells, cumulative tables and partial-cell rules as
    build_gauge_field, applied to the node samples rr(s) and ra(s) and to a
    spectral gradient of X_perp at every tangential quadrature node, instead
    of to separated radial coefficients.
    """

    def __init__(self, rr, ra, params, calc, r1=None, n_cells=48):
        self.params, self.calc, self.rr, self.ra = params, calc, rr, ra
        self.r0 = params.r0
        self.r1 = 4.0 * self.r0 if r1 is None else r1
        self.cells = np.linspace(self.r0, self.r1, n_cells + 1)
        a, b = self.cells[:-1], self.cells[1:]
        self.perp_cum = np.zeros((n_cells + 1, calc.n_nodes))
        self.perp_cum[1:] = np.cumsum(-0.5 * gauss_cell(rr, a, b), axis=0)
        self.tan_cum = np.zeros((n_cells + 1, calc.n_nodes, 2))
        self.tan_cum[1:] = np.cumsum(gauss_cell(self.tan_integrand, a, b), axis=0)

    def rho(self, r):
        return np.sqrt(r * (r - 2.0 * self.params.m))

    def cell_start(self, r):
        r = np.asarray(r, dtype=float)
        idx = np.minimum(((r - self.r0) / (self.cells[1] - self.cells[0])).astype(int),
                         len(self.cells) - 2)
        return r, idx, self.cells[idx]

    def x_perp(self, r):
        r, idx, a = self.cell_start(r)
        return self.perp_cum[idx] - 0.5 * gauss_cell(self.rr, a, r)

    def tan_integrand(self, s):
        rho = self.rho(s)[..., None, None]
        grad = self.calc.grad_scalar_frame(self.x_perp(s))
        return (self.ra(s) + grad / rho) / rho

    def x_tan(self, r):
        r, idx, a = self.cell_start(r)
        partial = gauss_cell(self.tan_integrand, a, r)
        return -self.rho(r)[..., None, None] * (self.tan_cum[idx] + partial)

    def cartesian(self, r):
        r = np.asarray(r, dtype=float)
        return self.x_perp(r)[..., None] * self.calc.normal + self.calc.frame_to_cart_covector(
            self.x_tan(r), r / self.rho(r)
        )


def counting(y_fn):
    """y_fn wrapped to count its calls in `.calls`."""
    def wrapped(x):
        wrapped.calls += 1
        return y_fn(x)

    wrapped.calls = 0
    return wrapped


def parallel_frame(calc, r):
    """Cartesian components (n, 2, 3) of the radially parallel frame (r/rho) * unit frame."""
    return calc.frame * (r / np.sqrt(background_at(P13, r).rho2))


def gram(calc, r):
    e = parallel_frame(calc, r)
    g = conformal_metric_cartesian(P13, r, calc.normal)
    return np.einsum("nai,nij,nbj->nab", e, g, e)


class TestParallelFrame:
    def test_gram_identity_at_boundary(self, calc):
        assert np.abs(gram(calc, P13.r0) - np.eye(2)).max() <= 1e-13

    def test_gram_identity_at_every_radius(self, calc):
        for r in [3.0, 4.5, 7.0, 11.0]:
            assert np.abs(gram(calc, r) - np.eye(2)).max() <= 1e-13

    def test_chart_components_scale_like_inverse_rho(self, calc):
        # radially parallel frame: chart components scale with rho2^{-1/2};
        # the chart vector d/dtheta has Cartesian components r * theta_hat
        def chart_theta(r):
            return np.einsum("ni,ni->n", parallel_frame(calc, r)[:, 0], calc.theta_hat) / r

        r_a, r_b = 3.5, 9.0
        rho2 = lambda r: r * (r - 2.0)
        expect = np.sqrt(rho2(r_b) / rho2(r_a))
        assert_allclose(chart_theta(r_a) / chart_theta(r_b), expect, rtol=1e-12)


class TestBuildGaugeField:
    def test_transverse_deformation_gives_zero(self, calc):
        rng = np.random.default_rng(0)
        gt = random_deformation(rng, P13, calc, l_band=3, gauge_fixed=True)
        X = build_gauge_field(gt, P13, calc)
        for r in [3.0, 5.0, 10.0]:
            assert np.abs(X.x_perp(r)).max() <= 1e-13
            assert np.abs(X.x_tan(r)).max() <= 1e-11

    def test_constant_radial_deformation(self, calc):
        # g~ = dr (x) dr: X_perp = -(r - r0)/2, angle independent
        gt = DeformationField(P13, calc)
        gt.add_rr(constant_profile(1.0), np.ones(calc.n_nodes))
        X = build_gauge_field(gt, P13, calc)
        for r in [3.0, 4.7, 8.3, 12.0]:
            assert_allclose(X.x_perp(r), -(r - 3.0) / 2.0, atol=1e-13)
            assert np.abs(X.x_tan(r)).max() <= 1e-11

    def test_boundary_vanishing(self, calc):
        rng = np.random.default_rng(5)
        gt = random_deformation(rng, P13, calc, l_band=3, gauge_fixed=False)
        X = build_gauge_field(gt, P13, calc)
        assert max(np.abs(X.x_perp(X.r0)).max(), np.abs(X.x_tan(X.r0)).max()) <= 1e-12

    def test_decay_rate_of_gauge_vector(self, calc):
        # deformation components falling like r^-q produce a gauge vector
        # growing like r^(1-q); only the rate is checked, no norm bounds
        q = 0.75
        gt = DeformationField(P13, calc)
        shape = 1.0 + 0.3 * calc.grid.Y[:, 4]
        gt.add_rr(power_profile(3.0, q), shape)
        X = build_gauge_field(gt, P13, calc, r1=3.0e3, n_cells=400)
        radii = np.geomspace(3.0e2, 1.5e3, 8)
        # difference out the additive constant from the lower limit: the
        # increments X(2r) - X(r) scale cleanly like r^(1-q)
        inc = np.array(
            [np.abs(X.x_perp(2.0 * r) - X.x_perp(r)).max() for r in radii]
        )
        slope = np.polyfit(np.log(radii), np.log(inc), 1)[0]
        assert abs(slope - (1.0 - q)) <= 1e-3

    def test_linearity(self, calc):
        rng = np.random.default_rng(6)
        g1 = random_deformation(rng, P13, calc, l_band=2, gauge_fixed=False)
        g2 = random_deformation(rng, P13, calc, l_band=2, gauge_fixed=False)
        combo = combine((0.6, g1), (-2.0, g2))
        x1 = build_gauge_field(g1, P13, calc)
        x2 = build_gauge_field(g2, P13, calc)
        xc = build_gauge_field(combo, P13, calc)
        for r in [4.0, 9.0]:
            expect = 0.6 * x1.x_perp(r) - 2.0 * x2.x_perp(r)
            assert np.abs(xc.x_perp(r) - expect).max() <= 1e-12
            expect_t = 0.6 * x1.x_tan(r) - 2.0 * x2.x_tan(r)
            assert np.abs(xc.x_tan(r) - expect_t).max() <= 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_cells": 0},
            {"n_cells": -3},
            {"n_cells": 2.5},
            {"n_cells": 8.0},
            {"r1": float("nan")},
            {"r1": float("inf")},
            {"r1": 3.0},
            {"r1": 2.5},
        ],
        ids=["zero-cells", "negative-cells", "fractional-cells", "float-cells",
             "nan-r1", "inf-r1", "r1-at-r0", "r1-below-r0"],
    )
    def test_rejects_bad_cells_and_window(self, calc, kwargs):
        gt = DeformationField(P13, calc)
        gt.add_rr(constant_profile(1.0), np.ones(calc.n_nodes))
        with pytest.raises(ValueError):
            build_gauge_field(gt, P13, calc, **kwargs)

    @pytest.mark.parametrize("name", ["rtol", "atol"])
    def test_solver_tolerances_are_deprecated_and_ignored(self, calc, name):
        rng = np.random.default_rng(8)
        gt = random_deformation(rng, P13, calc, l_band=2, gauge_fixed=False)
        with pytest.warns(DeprecationWarning, match=name):
            X = build_gauge_field(gt, P13, calc, n_cells=8, **{name: 1e-6})
        ref = build_gauge_field(gt, P13, calc, n_cells=8)
        radii = np.linspace(3.0, 12.0, 5)
        assert np.array_equal(X.x_tan(radii), ref.x_tan(radii))

    def test_array_radii_match_per_radius_calls(self, calc):
        rng = np.random.default_rng(9)
        gt = random_deformation(rng, P13, calc, l_band=4, gauge_fixed=False)
        X = build_gauge_field(gt, P13, calc)
        # both window ends, two cell edges, and interior points
        cells = np.linspace(X.r0, X.r1, 48 + 1)
        radii = np.concatenate([[3.0, 12.0], cells[[1, 29]], rng.uniform(3.0, 12.0, 7)])
        for method in ("x_perp", "x_tan", "cartesian"):
            batched = getattr(X, method)(radii)
            one_by_one = np.stack([getattr(X, method)(r) for r in radii])
            assert batched.shape == one_by_one.shape
            sup = np.abs(one_by_one).max()
            assert np.abs(batched - one_by_one).max() <= 1e-14 * sup, method
            grid = getattr(X, method)(radii[:10].reshape(2, 5))
            assert grid.shape == (2, 5) + one_by_one.shape[1:]

    def test_rejects_radius_outside_window(self, calc):
        gt = DeformationField(P13, calc)
        gt.add_rr(constant_profile(1.0), np.ones(calc.n_nodes))
        X = build_gauge_field(gt, P13, calc)
        for r in (2.9, 12.1, np.array([4.0, float("nan")])):
            with pytest.raises(ValueError):
                X.x_perp(r)


def separated_cases(calc):
    """DeformationFields with rr terms only, ra terms only, and both."""
    rng = np.random.default_rng(21)
    rr_only = DeformationField(P13, calc)
    rr_only.add_rr(power_profile(3.0, 1.7), calc.random_band_limited(rng, 4))
    rr_only.add_rr(oscillating_profile(3.0, 1.5, 6.0), calc.random_band_limited(rng, 4))
    ra_only = DeformationField(P13, calc)
    ra_only.add_ra(power_profile(3.0, 2.2), calc.random_band_limited(rng, 4))
    ra_only.add_ra(boundary_vanishing_profile(3.0, 1.8), calc.random_band_limited(rng, 4),
                   odd=True)
    both = random_deformation(rng, P13, calc, l_band=4, gauge_fixed=False)
    return {"rr-only": rr_only, "ra-only": ra_only, "both": both}


def window_radii(X, edges, n_cells=48):
    """Both window ends, the given edges of n_cells equal cells and six interior radii."""
    interior = np.random.default_rng(3).uniform(X.r0, X.r1, 6)
    cells = np.linspace(X.r0, X.r1, n_cells + 1)
    return np.concatenate([[X.r0, X.r1], cells[edges], interior])


# separated coefficients against node samples: the two routes sum the same
# terms in another order, so they agree to roundoff (largest measured
# relative gap 7.1e-15, on the flow deformation's x_tan)
SEPARATED_RTOL = 1e-13


class TestSeparatedRoute:
    @pytest.mark.parametrize("case", ["rr-only", "ra-only", "both"])
    def test_matches_node_sample_quadrature(self, calc, case):
        gt = separated_cases(calc)[case]
        X = build_gauge_field(gt, P13, calc)
        ref = NodeSampleGaugeField(gt.rr, gt.ra, P13, calc)
        radii = window_radii(X, [1, 17, 47])
        for method in ("x_perp", "x_tan", "cartesian"):
            expect = getattr(ref, method)(radii)
            got = getattr(X, method)(radii)
            assert got.shape == expect.shape
            sup = np.abs(expect).max()
            assert np.abs(got - expect).max() <= SEPARATED_RTOL * sup, method
        if case == "ra-only":
            assert not X.x_perp(radii).any()

    def test_transverse_deformation_gives_exact_zero(self, calc):
        rng = np.random.default_rng(0)
        gt = random_deformation(rng, P13, calc, l_band=3, gauge_fixed=True)
        X = build_gauge_field(gt, P13, calc)
        radii = window_radii(X, [1, 17, 47])
        for method in ("x_perp", "x_tan", "cartesian"):
            assert not getattr(X, method)(radii).any(), method

    def test_flow_deformation_matches_node_sample_quadrature(self):
        calc = SphereCalc(l_max=6)
        y_fn, _ = make_test_vector_field(P13)
        gt = FlowLieDeformation(y_fn, P13, calc)
        X = build_gauge_field(gt, P13, calc, n_cells=24)
        ref = NodeSampleGaugeField(
            lambda r: flow_rr(gt, r), lambda r: flow_ra(gt, r), P13, calc, n_cells=24
        )
        radii = window_radii(X, [1, 12, 23], n_cells=24)
        for method in ("x_perp", "x_tan", "cartesian"):
            expect = getattr(ref, method)(radii)
            got = getattr(X, method)(radii)
            sup = np.abs(expect).max()
            assert np.abs(got - expect).max() <= SEPARATED_RTOL * sup, method

    @pytest.mark.parametrize("case", ["rr-only", "ra-only", "both"])
    def test_deformation_basis_times_shapes(self, calc, case):
        gt = separated_cases(calc)[case]
        radii = np.array([3.0, 3.7, 6.1, 12.0])
        for component in ("rr", "ra"):
            basis, shapes = gt.separated(component)
            assert basis(radii).shape == (4, len(shapes))
            assert basis(5.0).shape == (len(shapes),)
            expect = getattr(gt, component)(radii)
            sup = np.abs(expect).max()
            got = evaluate(gt, component, radii)
            assert np.abs(got - expect).max() <= SEPARATED_RTOL * sup, component
        with pytest.raises(ValueError, match="ab"):
            gt.separated("ab")

    def test_flow_basis_times_shapes(self):
        calc = SphereCalc(l_max=6)
        y_fn, _ = make_test_vector_field(P13)
        gt = FlowLieDeformation(y_fn, P13, calc)
        radii = np.concatenate([gt._nodes[[0, 7, 32]], [3.3, 6.1, 11.9]])
        for component, expect_fn in (("rr", flow_rr), ("ra", flow_ra)):
            expect = expect_fn(gt, radii)
            got = evaluate(gt, component, radii)
            sup = np.abs(expect).max()
            assert np.abs(got - expect).max() <= SEPARATED_RTOL * sup, component
        with pytest.raises(ValueError, match="ab"):
            gt.separated("ab")


def tangential_ode(ra, X, calc, radii):
    """Frame components w_A at radii from the tangential ODE itself.

    w_A' = (H_sc/2) w_A - g~(dr, e_A) - e_A(X_perp), w_A(r0) = 0, with
    ra(r) the node samples of g~(dr, e_A), integrated by scipy's DOP853: an
    independent route to X.x_tan, which is a quadrature with the integrating
    factor rho.
    """
    def rhs(r, y):
        bg = background_at(P13, r)
        src = ra(r) + calc.grad_scalar_frame(X.x_perp(r)) / np.sqrt(bg.rho2)
        return (0.5 * bg.H_sc * y.reshape(-1, 2) - src).ravel()

    sol = solve_ivp(
        rhs, (X.r0, X.r1), np.zeros(2 * calc.n_nodes), method="DOP853",
        rtol=1e-12, atol=1e-14, t_eval=radii,
    )
    assert sol.success
    return sol.y.T.reshape(len(radii), calc.n_nodes, 2)


class TestTangentialOdeRoute:
    def test_random_deformation(self, calc):
        rng = np.random.default_rng(12)
        gt = random_deformation(rng, P13, calc, l_band=4, gauge_fixed=False)
        X = build_gauge_field(gt, P13, calc)
        radii = np.linspace(X.r0, X.r1, 10)
        quad = X.x_tan(radii)
        ode = tangential_ode(gt.ra, X, calc, radii)
        assert np.abs(quad - ode).max() <= 1e-9 * np.abs(quad).max()

    def test_flow_deformation(self):
        calc = SphereCalc(l_max=6)
        y_fn, _ = make_test_vector_field(P13)
        gt = FlowLieDeformation(y_fn, P13, calc)
        X = build_gauge_field(gt, P13, calc)
        radii = np.linspace(X.r0, X.r1, 10)
        quad = X.x_tan(radii)
        ode = tangential_ode(lambda r: flow_ra(gt, r), X, calc, radii)
        assert np.abs(quad - ode).max() <= 1e-9 * np.abs(quad).max()


class TestApplyGauge:
    def test_zero_gauge_field_keeps_deformation(self, calc):
        rng = np.random.default_rng(1)
        gt = random_deformation(rng, P13, calc, l_band=3, gauge_fixed=True)
        X = build_gauge_field(gt, P13, calc)  # zero since gt is transverse
        r_nodes = np.linspace(3.0, 9.0, 13)
        out = apply_gauge(gt, X, r_nodes)
        assert out.max_radial_residual <= 1e-10
        for i, r in enumerate(r_nodes):
            assert np.abs(out.ab[i] - gt.ab(r)).max() <= 1e-10
            assert np.abs(out.u[i] - gt.u(r)).max() <= 1e-12

    def test_annihilation_end_to_end(self, calc):
        rng = np.random.default_rng(2)
        gt = random_deformation(rng, P13, calc, l_band=4, gauge_fixed=False)
        X = build_gauge_field(gt, P13, calc)
        out = apply_gauge(gt, X, np.linspace(3.0, 11.5, 18))
        assert out.max_radial_residual <= 1e-8
        assert out.max_radial_residual <= GEODESIC_GAUGE_TOL

    def test_annihilation_converges_at_quadrature_order(self, calc):
        # oscillatory radial profile makes the cell quadrature the dominant
        # error; halving the cell width should shrink it by about 2^8
        gt = DeformationField(P13, calc)
        shape = calc.random_band_limited(np.random.default_rng(7), 3)
        gt.add_rr(oscillating_profile(3.0, 1.5, 18.0, 1.0), shape)
        r_nodes = np.linspace(3.0, 11.9, 15)

        def resid(n_cells):
            X = build_gauge_field(gt, P13, calc, n_cells=n_cells)
            return apply_gauge(gt, X, r_nodes).max_radial_residual

        coarse, fine = resid(8), resid(16)
        assert coarse / max(fine, 1e-14) > 60.0

    def test_scalar_update_uses_radial_potential_slope(self, calc):
        gt = DeformationField(P13, calc)
        gt.add_rr(constant_profile(1.0), np.ones(calc.n_nodes))
        X = build_gauge_field(gt, P13, calc)
        r = 6.0
        out = apply_gauge(gt, X, np.array([r]))
        bg = background_at(P13, r)
        expect = X.x_perp(r) * bg.du_sc
        assert_allclose(out.u[0], expect, atol=1e-14)

    def test_batched_radii_match_one_radius_calls(self, calc):
        # radii within two stencil steps of r0 or r1 take one-sided stencils
        rng = np.random.default_rng(10)
        gt = random_deformation(rng, P13, calc, l_band=4, gauge_fixed=False)
        X = build_gauge_field(gt, P13, calc)
        r_nodes = np.array([3.0, 3.001, 4.7, 8.2, 11.999, 12.0])
        out = apply_gauge(gt, X, r_nodes)
        lie_sup = np.abs(out.lie_cart).max()
        for i, r in enumerate(r_nodes):
            one = apply_gauge(gt, X, np.array([r]))
            for name, sup in (
                ("lie_cart", lie_sup),
                ("rr_residual", lie_sup),
                ("ra_residual", lie_sup),
                ("ab", np.abs(out.ab).max()),
                ("u", np.abs(out.u).max()),
            ):
                diff = np.abs(getattr(out, name)[i] - getattr(one, name)[0]).max()
                assert diff <= 1e-14 * sup, (r, name)


class TestFlowOracle:
    def test_rotational_killing_field(self, calc):
        # L_Z g_sc = 0 for the rotation generator Z = e_z x x
        def z_fn(x):
            x = np.atleast_2d(x)
            return np.cross(np.array([0.0, 0.0, 1.0]), x)

        pts = 4.0 * calc.normal
        lie = flow_lie_derivative(z_fn, P13, pts)
        assert np.abs(lie).max() <= 1e-7

    def test_radial_field_closed_form(self, calc):
        # Y = y(r) n: L_Y g_sc has rr row 2 y', tangential rows y H_sc delta,
        # and mixed rows e_A(y) when y carries angular dependence
        c = 0.05

        def y_fn(x):
            x = np.atleast_2d(x)
            r = np.linalg.norm(x, axis=-1)
            return (c * (r - 3.0) ** 2 / r)[:, None] * x / r[:, None]

        r = 5.0
        pts = r * calc.normal
        lie = flow_lie_derivative(y_fn, P13, pts)
        y = c * (r - 3.0) ** 2 / r
        dy = c * (2.0 * (r - 3.0) / r - (r - 3.0) ** 2 / r**2)
        rr = np.einsum("nij,ni,nj->n", lie, calc.normal, calc.normal)
        assert_allclose(rr, 2.0 * dy, atol=5e-7)
        bg = background_at(P13, r)
        e = parallel_frame(calc, r)
        ab = np.einsum("nij,nai,nbj->nab", lie, e, e)
        expect = y * bg.H_sc
        assert_allclose(ab[:, 0, 0], expect, atol=5e-7)
        assert_allclose(ab[:, 1, 1], expect, atol=5e-7)
        assert np.abs(ab[:, 0, 1]).max() <= 5e-7

    def test_stacked_flow_table_equals_per_shell_calls(self):
        # the table is one flow over all Chebyshev shells stacked; each
        # point's flow is independent, so per-shell calls give the same bits
        calc = SphereCalc(l_max=4)
        y_fn, _ = make_test_vector_field(P13)
        gt = FlowLieDeformation(y_fn, P13, calc)
        per_shell = np.stack([
            flow_lie_derivative(y_fn, P13, r * calc.normal)
            for r in gt._nodes
        ])
        assert np.array_equal(gt._lie_tab, per_shell)
        y_perp = np.stack([
            np.einsum("ni,ni->n", y_fn(r * calc.normal), calc.normal) for r in gt._nodes
        ])
        assert np.array_equal(gt._yperp_tab, y_perp)

    def test_array_radii_match_scalar_calls(self):
        calc = SphereCalc(l_max=4)
        y_fn, _ = make_test_vector_field(P13)
        gt = FlowLieDeformation(y_fn, P13, calc)
        # exact Chebyshev nodes first, then points between them
        radii = np.concatenate([gt._nodes[[0, 5, 16, 32]], [3.3, 4.1, 7.3, 11.9]])
        methods = {
            "rr": lambda r: evaluate(gt, "rr", r),
            "ra": lambda r: evaluate(gt, "ra", r),
            "u": gt.u,
            "cartesian": gt.cartesian,
        }
        for method, fn in methods.items():
            batched = fn(radii)
            scalar = np.stack([fn(r) for r in radii])
            assert np.array_equal(batched[:4], scalar[:4]), method
            assert np.abs(batched - scalar).max() <= 1e-14 * np.abs(scalar).max(), method
        assert np.array_equal(evaluate(gt, "rr", gt._nodes), gt._rr_tab)
        assert np.array_equal(gt.cartesian(gt._nodes), gt._lie_tab)

    def test_window_beyond_the_last_shell_is_rejected(self):
        # the shells end at 4 r0 = 12; past them the barycentric interpolant
        # extrapolates (a window to r1 = 24 read x_perp off by 174 at r = 14
        # and nan at r = 20), so the build refuses such a window
        calc = SphereCalc(l_max=4)
        y_fn, _ = make_test_vector_field(P13)
        gt = FlowLieDeformation(y_fn, P13, calc)
        assert gt.r1 == 4.0 * P13.r0
        with pytest.raises(ValueError, match="beyond"):
            build_gauge_field(gt, P13, calc, r1=24.0)
        with pytest.raises(ValueError, match="beyond"):
            build_gauge_field(gt, P13, calc, r1=np.nextafter(gt.r1, np.inf))
        X = build_gauge_field(gt, P13, calc, r1=gt.r1, n_cells=8)
        assert np.isfinite(X.x_perp(np.linspace(P13.r0, gt.r1, 5))).all()

    def test_recovery_of_minus_y(self):
        # uniqueness: feeding L_Y g_sc recovers X = -Y
        calc = SphereCalc(l_max=6)
        y_fn, _ = make_test_vector_field(P13)
        gt = FlowLieDeformation(y_fn, P13, calc)
        X = build_gauge_field(gt, P13, calc, n_cells=24)
        scale = 0.2
        for r in [4.0, 6.5, 10.0]:
            y = y_fn(r * calc.normal)
            y_perp = np.einsum("ni,ni->n", y, calc.normal)
            assert np.abs(X.x_perp(r) + y_perp).max() <= 1e-6 * scale
            rho = np.sqrt(r * (r - 2.0))
            w = np.einsum("ni,nai->na", y, calc.frame) * (rho / r)
            assert np.abs(X.x_tan(r) + w).max() <= 1e-6 * scale

    def test_apply_gauge_lie_matches_flow(self):
        # the grid Lie-derivative path inside apply_gauge agrees with the
        # flow pullback on the same vector field
        calc = SphereCalc(l_max=6)
        y_fn, _ = make_test_vector_field(P13)
        gt = FlowLieDeformation(y_fn, P13, calc)
        X = build_gauge_field(gt, P13, calc, n_cells=24)
        r = 5.5
        out = apply_gauge(gt, X, np.array([r]))
        flow = flow_lie_derivative(y_fn, P13, r * calc.normal)
        assert np.abs(out.lie_cart[0] + flow).max() <= 1e-6

    def test_one_step_matches_multistep_reference(self):
        # one RK4 step per flow time: the table is the steps=1 reference bit
        # for bit and within the oracle's roundoff floor of the steps=8 one
        calc = SphereCalc(l_max=6)
        y_fn, _ = make_test_vector_field(P13)
        gt = FlowLieDeformation(y_fn, P13, calc)
        points = (gt._nodes[:, None, None] * calc.normal).reshape(-1, 3)
        table = gt._lie_tab.reshape(-1, 3, 3)
        one = reference_flow_lie_derivative(y_fn, P13, points, eps=1e-3, steps=1)
        assert np.array_equal(table, one)
        eight = reference_flow_lie_derivative(y_fn, P13, points, eps=1e-3, steps=8)
        assert np.abs(table - eight).max() <= 2e-7

    def test_field_call_counts(self):
        calc = SphereCalc(l_max=4)
        y_fn, _ = make_test_vector_field(P13)
        y_count = counting(y_fn)
        flow_lie_derivative(y_count, P13, 5.0 * calc.normal)
        assert y_count.calls == 13
        y_count = counting(y_fn)
        FlowLieDeformation(y_count, P13, calc)
        assert y_count.calls == 14

    @pytest.mark.parametrize(
        "shape", [(3,), (5, 2), (2, 4, 3), (4, 4)], ids=["vector", "two-columns",
                                                        "three-axes", "four-columns"],
    )
    def test_oracle_rejects_points_not_n_by_3(self, shape):
        y_fn, _ = make_test_vector_field(P13)
        y_count = counting(y_fn)
        with pytest.raises(ValueError, match="shape"):
            flow_lie_derivative(y_count, P13, np.full(shape, 4.0))
        assert y_count.calls == 0
