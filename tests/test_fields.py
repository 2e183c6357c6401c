import numpy as np
import pytest
from numpy.testing import assert_allclose

from schwarzstatic.background import SchwarzschildParams
from schwarzstatic.fields import (
    DeformationField,
    power_profile,
    random_deformation,
)
from schwarzstatic.sphere_ops import SphereCalc

from reference import (
    boundary_vanishing_profile,
    combine,
    constant_profile,
    oscillating_profile,
    single_mode_scalar,
)

P13 = SchwarzschildParams(m=1.0, r0=3.0)


@pytest.fixture(scope="module")
def calc():
    return SphereCalc(l_max=8)


def fd_check(profile, r, order):
    if order == 1:
        h = 1e-5
        return (profile.f(r + h) - profile.f(r - h)) / (2 * h)
    h = 1e-4  # noise/h^2 limits the centered second difference
    return (profile.f(r + h) - 2 * profile.f(r) + profile.f(r - h)) / h**2


class TestProfiles:
    @pytest.mark.parametrize(
        "profile",
        [
            power_profile(3.0, 1.5, 0.7),
            oscillating_profile(3.0, 2.0, 5.0, 0.4),
            boundary_vanishing_profile(3.0, 1.0, 1.2),
        ],
    )
    def test_derivatives_match_finite_differences(self, profile):
        for r in [3.2, 4.7, 9.0]:
            assert_allclose(profile(r, 1), fd_check(profile, r, 1), rtol=1e-8)
            assert_allclose(
                profile(r, 2), fd_check(profile, r, 2), rtol=1e-5, atol=1e-7
            )

    def test_boundary_vanishing_is_zero_at_r0(self):
        p = boundary_vanishing_profile(3.0, 2.0)
        assert abs(p.f(np.array(3.0))) <= 1e-15

    def test_constant_profile(self):
        p = constant_profile(2.5)
        assert p(np.array(7.0)) == 2.5
        assert p(np.array(7.0), 1) == 0.0

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            power_profile(3.0, 1.0)(4.0, 3)


class TestDeformationField:
    def test_gauge_flag(self, calc):
        rng = np.random.default_rng(0)
        assert random_deformation(rng, P13, calc, gauge_fixed=True).is_gauge_fixed
        assert not random_deformation(rng, P13, calc, gauge_fixed=False).is_gauge_fixed

    def test_cartesian_frame_round_trip(self, calc):
        # projecting the Cartesian assembly back onto the adapted frame
        # recovers the stored frame components
        rng = np.random.default_rng(1)
        field = random_deformation(rng, P13, calc, l_band=3, gauge_fixed=False)
        r = 4.2
        cart = field.cartesian(r)
        rho = np.sqrt(r * (r - 2.0))
        rr, ra, ab = calc.adapted_components(cart, r / rho)
        assert_allclose(rr, field.rr(r), atol=1e-13)
        assert_allclose(ra, field.ra(r), atol=1e-13)
        assert_allclose(ab, field.ab(r), atol=1e-13)

    def test_u_gradient_matches_finite_differences(self, calc):
        rng = np.random.default_rng(2)
        field = random_deformation(rng, P13, calc, l_band=3)
        r, h = 5.0, 1e-6
        grad = field.u_gradient_cart(r)
        radial = np.einsum("ni,ni->n", grad, calc.normal)
        fd_rad = (field.u(r + h) - field.u(r - h)) / (2 * h)
        assert_allclose(radial, fd_rad, atol=1e-9)
        # tangential part against the spectral surface gradient
        tang = grad - radial[:, None] * calc.normal
        expect = calc.grad_scalar(field.u(r)) / r
        assert_allclose(tang, expect, atol=1e-12)

    def test_linear_combinations(self, calc):
        rng = np.random.default_rng(3)
        f1 = random_deformation(rng, P13, calc, l_band=2, gauge_fixed=False)
        f2 = random_deformation(rng, P13, calc, l_band=2, gauge_fixed=False)
        combo = combine((2.0, f1), (-0.5, f2))
        r = 6.3
        assert_allclose(
            combo.cartesian(r), 2.0 * f1.cartesian(r) - 0.5 * f2.cartesian(r),
            atol=1e-14,
        )
        assert_allclose(combo.u(r, 1), 2.0 * f1.u(r, 1) - 0.5 * f2.u(r, 1), atol=1e-14)

    @pytest.mark.parametrize(
        "name,args",
        [pytest.param(n, (k,), id=f"{n}-order{k}")
         for n in ("rr", "ra", "ab", "u") for k in (0, 1, 2)]
        + [pytest.param(n, (), id=n) for n in ("cartesian", "u_gradient_cart")],
    )
    def test_array_radii_match_per_radius_calls(self, calc, name, args):
        # an array of radii adds a leading radial axis; each slice is the
        # scalar call up to the last-bit rounding of numpy's array power
        rng = np.random.default_rng(4)
        field = random_deformation(rng, P13, calc, l_band=3, gauge_fixed=False)
        extra = single_mode_scalar(P13, calc, 2, 1, oscillating_profile(3.0, 1.5, 4.0))
        field = combine((1.0, field), (1.0, extra))
        r = np.linspace(3.0, 9.0, 13)
        batch = getattr(field, name)(r, *args)
        single = np.stack([getattr(field, name)(s, *args) for s in r])
        assert batch.shape == single.shape
        assert single.shape[1] == calc.n_nodes
        assert np.abs(batch - single).max() <= 1e-14 * np.abs(single).max()

    def test_single_mode_scalar(self, calc):
        from schwarzstatic.harmonics import mode_position

        field = single_mode_scalar(P13, calc, 3, -2, power_profile(3.0, 1.0))
        u = field.u(3.0)
        expect = calc.grid.Y[:, mode_position(3, -2)]
        assert_allclose(u, expect, atol=1e-13)

    def test_mismatched_grids_rejected(self, calc):
        other = SphereCalc(l_max=6)
        f1 = DeformationField(P13, calc)
        f2 = DeformationField(P13, other)
        with pytest.raises(ValueError):
            combine((1.0, f1), (1.0, f2))
