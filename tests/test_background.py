import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from schwarzstatic.background import (
    RoundData,
    SchwarzschildParams,
    background_at,
    conformal_metric_cartesian,
    match_round_data,
)

from reference import bartnik_data


def schwarzschild_metric_chart(params: SchwarzschildParams, r, theta) -> np.ndarray:
    """Original metric in the (r, theta, phi) chart: diag(f^-2, r^2, r^2 sin^2)."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(r.shape, theta.shape)
    g = np.zeros(shape + (3, 3))
    rr = np.broadcast_to(1.0 / (1.0 - 2.0 * params.m / r), shape)
    g[..., 0, 0] = rr
    g[..., 1, 1] = np.broadcast_to(r * r, shape)
    g[..., 2, 2] = np.broadcast_to(r * r, shape) * np.sin(theta) ** 2
    return g


def conformal_metric_chart(params: SchwarzschildParams, r: float, theta: float) -> np.ndarray:
    """The package's Cartesian conformal metric pulled back to the chart at phi = 0."""
    st, ct = np.sin(theta), np.cos(theta)
    normal = np.array([st, 0.0, ct])
    # columns d/dr, d/dtheta, d/dphi of the chart map
    jac = np.column_stack([normal, r * np.array([ct, 0.0, -st]), [0.0, r * st, 0.0]])
    return jac.T @ conformal_metric_cartesian(params, r, normal) @ jac


def conformal_forward(f, metric):
    """Map a pair (potential f, metric) to the conformal picture (f^2*metric, ln f).

    f must be positive at every sample; raises ValueError otherwise.
    """
    f = np.asarray(f, dtype=float)
    metric = np.asarray(metric, dtype=float)
    if np.any(f <= 0.0):
        raise ValueError("static potential must be positive at every sample")
    g = f[..., None, None] ** 2 * metric
    return g, np.log(f)


def conformal_inverse(g, u):
    """Inverse of conformal_forward: (exp(-2u)*g, exp(u))."""
    g = np.asarray(g, dtype=float)
    u = np.asarray(u, dtype=float)
    return np.exp(-2.0 * u)[..., None, None] * g, np.exp(u)


def deformation_forward(gamma_t, f_t, params: SchwarzschildParams, r, theta):
    """Push an original-picture deformation to the conformal picture.

    Given samples (gamma_t, f_t) of a metric/potential deformation at chart
    points (r, theta), returns (g_t, u_t) with

        g_t = f_sc^2 * gamma_t + 2 f_t f_sc * metric_sc,   u_t = f_t / f_sc.
    """
    gamma_t = np.asarray(gamma_t, dtype=float)
    f_t = np.asarray(f_t, dtype=float)
    bg = background_at(params, r)
    gsc = schwarzschild_metric_chart(params, r, theta)
    fsc = np.broadcast_to(bg.f_sc, f_t.shape)
    g_t = fsc[..., None, None] ** 2 * gamma_t + 2.0 * (f_t * fsc)[..., None, None] * gsc
    return g_t, f_t / fsc


def deformation_inverse(g_t, u_t, params: SchwarzschildParams, r, theta):
    """Inverse of deformation_forward: gamma_t = f_sc^-2 g_t - 2 u_t metric_sc."""
    g_t = np.asarray(g_t, dtype=float)
    u_t = np.asarray(u_t, dtype=float)
    bg = background_at(params, r)
    gsc = schwarzschild_metric_chart(params, r, theta)
    fsc = np.broadcast_to(bg.f_sc, u_t.shape)
    gamma_t = g_t / fsc[..., None, None] ** 2 - 2.0 * u_t[..., None, None] * gsc
    return gamma_t, fsc * u_t


class TestParams:
    def test_rejects_radius_inside_horizon(self):
        with pytest.raises(ValueError):
            SchwarzschildParams(m=1.0, r0=2.0)
        with pytest.raises(ValueError):
            SchwarzschildParams(m=1.0, r0=1.5)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            SchwarzschildParams(m=-1.0, r0=0.0)

    def test_negative_mass_allows_small_radius(self):
        p = SchwarzschildParams(m=-1.0, r0=0.1)
        assert p.m0 == 0.0


class TestBackgroundAt:
    def test_positive_mass_values(self):
        bg = background_at(SchwarzschildParams(m=1.0, r0=3.0), 4.0)
        assert_allclose(bg.f_sc, np.sqrt(0.5), rtol=1e-15)
        assert_allclose(bg.H_sc, 0.75, rtol=1e-15)
        assert_allclose(bg.du_sc, 0.125, rtol=1e-15)

    def test_flat_round_sphere(self):
        bg = background_at(SchwarzschildParams(m=0.0, r0=1.0), 1.0)
        assert_allclose(bg.f_sc, 1.0, rtol=1e-15)
        assert_allclose(bg.H_sc, 2.0, rtol=1e-15)

    def test_negative_mass(self):
        bg = background_at(SchwarzschildParams(m=-1.0, r0=1.0), 1.0)
        assert_allclose(bg.f_sc, np.sqrt(3.0), rtol=1e-15)
        assert_allclose(bg.rho2, 3.0, rtol=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            background_at(SchwarzschildParams(m=1.0, r0=3.0), 2.0)

    def test_internal_identities(self):
        params = SchwarzschildParams(m=0.7, r0=2.0)
        r = np.linspace(2.0, 20.0, 50)
        bg = background_at(params, r)
        assert_allclose(bg.f_sc, np.exp(bg.u_sc), rtol=1e-15)
        assert_allclose(bg.H_sc * bg.rho2 - 2.0 * (r - params.m), 0.0, atol=1e-13)
        # the conformal factor exactly flattens the radial coefficient
        assert_allclose(bg.f_sc**2 / (1.0 - 2.0 * params.m / r), 1.0, rtol=1e-15)


class TestConformalTransforms:
    def test_forward_on_schwarzschild(self):
        # the conformal picture of Schwarzschild is the package's background
        # pair: conformal_metric_cartesian in the chart, and u_sc
        params = SchwarzschildParams(m=1.0, r0=3.0)
        theta = 0.9
        gsc = schwarzschild_metric_chart(params, 4.0, theta)
        bg = background_at(params, 4.0)
        g, u = conformal_forward(bg.f_sc, gsc)
        assert_allclose(g[0, 0], 1.0, rtol=1e-15)
        assert_allclose(g[1, 1], 8.0, rtol=1e-15)
        assert_allclose(g[2, 2], 8.0 * np.sin(theta) ** 2, rtol=1e-15)
        assert_allclose(g, conformal_metric_chart(params, 4.0, theta), rtol=1e-14, atol=1e-14)
        assert_allclose(u, bg.u_sc, rtol=1e-15)

    def test_identity_potential(self):
        g = np.diag([1.0, 2.0, 3.0])
        out, u = conformal_forward(1.0, g)
        assert_allclose(out, g)
        assert u == 0.0

    def test_rejects_nonpositive_potential(self):
        with pytest.raises(ValueError):
            conformal_forward(0.0, np.eye(3))

    def test_inverse_on_schwarzschild(self):
        params = SchwarzschildParams(m=1.0, r0=3.0)
        g = conformal_metric_chart(params, 4.0, 0.5)
        bg = background_at(params, 4.0)
        frak_g, f = conformal_inverse(g, bg.u_sc)
        assert_allclose(frak_g[0, 0], 2.0, rtol=1e-14)
        assert_allclose(frak_g, schwarzschild_metric_chart(params, 4.0, 0.5), rtol=1e-14,
                        atol=1e-14)
        assert_allclose(f, bg.f_sc, rtol=1e-15)

    def test_inverse_of_zero_potential(self):
        g = np.diag([2.0, 5.0, 7.0])
        frak_g, f = conformal_inverse(g, 0.0)
        assert_allclose(frak_g, g)
        assert f == 1.0

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        sym = rng.standard_normal((10, 3, 3))
        g = np.eye(3) + 0.1 * (sym + np.swapaxes(sym, -1, -2))
        u = rng.standard_normal(10)
        # forward(inverse) round trip
        frak_g, f2 = conformal_inverse(g, u)
        g2, u2 = conformal_forward(f2, frak_g)
        assert_allclose(g2, g, rtol=1e-14, atol=1e-14)
        assert_allclose(u2, u, rtol=1e-14, atol=1e-14)


class TestDeformationTransforms:
    params = SchwarzschildParams(m=1.0, r0=3.0)

    def test_zero_maps_to_zero(self):
        g_t, u_t = deformation_forward(np.zeros((3, 3)), 0.0, self.params, 4.0, 1.0)
        assert_allclose(g_t, 0.0)
        assert_allclose(u_t, 0.0)

    def test_metric_direction(self):
        gsc = schwarzschild_metric_chart(self.params, 4.0, 1.1)
        g_t, u_t = deformation_forward(gsc, 0.0, self.params, 4.0, 1.1)
        fsc2 = background_at(self.params, 4.0).f_sc ** 2
        assert_allclose(g_t, fsc2 * gsc, rtol=1e-14)
        assert_allclose(u_t, 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        theta = rng.uniform(0.2, np.pi - 0.2, 20)
        r = rng.uniform(3.5, 9.0, 20)
        sym = rng.standard_normal((20, 3, 3))
        gamma_t = sym + np.swapaxes(sym, -1, -2)
        f_t = rng.standard_normal(20)
        g_t, u_t = deformation_forward(gamma_t, f_t, self.params, r, theta)
        back_g, back_f = deformation_inverse(g_t, u_t, self.params, r, theta)
        assert_allclose(back_g, gamma_t, rtol=1e-13, atol=1e-13)
        assert_allclose(back_f, f_t, rtol=1e-13, atol=1e-13)


class TestBartnikData:
    """Closed-form round data of three spheres, and match_round_data's inverse of each."""

    @staticmethod
    def matched(m, r0):
        data = bartnik_data(SchwarzschildParams(m=m, r0=r0))
        match = match_round_data(data)
        assert match.r0 == data.rho == r0
        assert abs(match.m - m) <= 1e-14 * r0
        return data

    def test_schwarzschild_sphere(self):
        data = self.matched(1.0, 4.0)
        assert_allclose(data.h, 0.35355339059327373, rtol=1e-12)

    def test_euclidean_sphere(self):
        data = self.matched(0.0, 1.0)
        assert_allclose(data.h, 2.0, rtol=1e-15)

    def test_negative_mass(self):
        data = self.matched(-1.0, 2.0)
        assert_allclose(data.h, np.sqrt(2.0), rtol=1e-15)


class TestMatchRoundData:
    def test_euclidean_anchor_is_exact(self):
        match = match_round_data(RoundData(rho=1.0, h=2.0))
        assert match.m == 0.0
        assert match.r0 == 1.0
        assert not match.horizon_degenerate

    def test_schwarzschild_round_trip(self):
        match = match_round_data(RoundData(rho=4.0, h=0.35355339059327373))
        assert_allclose(match.m, 1.0, rtol=1e-12)

    def test_large_curvature_gives_negative_mass(self):
        match = match_round_data(RoundData(rho=2.0, h=1.2))
        assert_allclose(match.m, -0.44, rtol=1e-14)
        back = bartnik_data(match.params)
        assert_allclose(back.h, 1.2, rtol=1e-14)

    def test_horizon_degenerate_flagged(self):
        match = match_round_data(RoundData(rho=2.0, h=0.0))
        assert match.horizon_degenerate
        assert_allclose(match.m, 1.0)
        with pytest.raises(ValueError):
            _ = match.params

    def test_rejects_negative_h(self):
        with pytest.raises(ValueError):
            match_round_data(RoundData(rho=1.0, h=-0.1))

    @pytest.mark.parametrize(
        "rho,h", [(float("nan"), 1.0), (1.0, float("nan")), (1.0, float("inf"))]
    )
    def test_rejects_nonfinite_round_data(self, rho, h):
        with pytest.raises(ValueError):
            RoundData(rho=rho, h=h)

    @pytest.mark.parametrize("rho,h", [(1.0, 1e200), (1e200, 1e-100)])
    def test_rejects_overflowing_mass(self, rho, h):
        # finite data whose matched mass (rho/2)(1 - (h rho/2)^2) is -inf
        with pytest.raises(ValueError, match="overflows"):
            match_round_data(RoundData(rho=rho, h=h))

    @given(
        m=st.floats(-3.0, 3.0, allow_nan=False),
        delta=st.floats(1e-3, 50.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_match_inverts_bartnik(self, m, delta):
        # conditioning-aware bound: the cancellation in 1 - f^2 costs one
        # ulp of 1 scaled by r0/2, so tiny masses lose relative accuracy
        params = SchwarzschildParams(m=m, r0=2.0 * max(0.0, m) + delta)
        match = match_round_data(bartnik_data(params))
        assert match.r0 == params.r0
        assert abs(match.m - params.m) <= 1e-12 * max(1.0, abs(params.m), params.r0)

    @given(
        rho=st.floats(1e-2, 1e2, allow_nan=False),
        q=st.floats(1e-4, 10.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_bartnik_inverts_match(self, rho, q):
        # exact in exact arithmetic; in floating point the relative error
        # grows like ulp / q^2 with q = h rho / 2 near the degenerate case
        h = 2.0 * q / rho
        match = match_round_data(RoundData(rho=rho, h=h))
        back = bartnik_data(match.params)
        assert abs(back.h - h) <= h * (1e-13 + 2e-16 / q**2)
