import numpy as np
import pytest
from numpy.testing import assert_allclose

from schwarzstatic.fd import apply_radial, cumulative_integral, stencil_coefficients
from schwarzstatic.harmonics import mode_position
from schwarzstatic.sphere_ops import SphereCalc


@pytest.fixture(scope="module")
def calc():
    return SphereCalc(l_max=12)


def harmonic(calc, ell, k):
    return calc.grid.Y[:, mode_position(ell, k)]


def reference_frame_to_cart_sym2(calc, t, scale=1.0):
    """The three-operand contraction t_ab (scale e_a)^i (scale e_b)^j, node by node."""
    e = calc.frame * np.asarray(scale)[..., None, None, None]
    return np.einsum("...nab,...nai,...nbj->...nij", t, e, e)


def reference_adapted_components(calc, t, scale=1.0):
    """(rr, ra, ab) by three-operand contractions with normal and scale * frame."""
    n, e = calc.normal, calc.frame
    scale = np.asarray(scale)[..., None, None]
    rr = np.einsum("...nij,ni,nj->...n", t, n, n)
    ra = np.einsum("...nij,ni,naj->...na", t, n, e) * scale
    ab = np.einsum("...nij,nai,nbj->...nab", t, e, e) * scale[..., None] ** 2
    return rr, ra, ab


def assert_close_on_scale(got, expect, rtol):
    # elementwise rtol fails on entries that cancel to near zero; the bound
    # is relative to the largest entry, for real and imaginary parts apart
    for part in (np.real, np.imag):
        scale = np.abs(part(expect)).max()
        assert np.abs(part(got) - part(expect)).max() <= rtol * scale


def dense_derivative(n, h, order):
    """The n x n matrix apply_radial applies on its band, built row by row."""
    points = order + 5
    d = np.zeros((n, n))
    centre = stencil_coefficients([-2, -1, 0, 1, 2], order) / h**order
    for row in range(2, n - 2):
        d[row, row - 2 : row + 3] = centre
    for row in (0, 1):
        d[row, :points] = stencil_coefficients(np.arange(points) - row, order) / h**order
        d[n - 1 - row, n - points :] = (
            stencil_coefficients(np.arange(1 - points, 1) + row, order) / h**order
        )
    return d


class TestRadialStencils:
    def test_first_derivative_exact_on_quartics(self):
        r = np.linspace(1.0, 3.0, 24)
        for p in range(5):
            d1 = apply_radial(r**p, r[1] - r[0], 1)
            assert_allclose(d1, p * r ** max(p - 1, 0) * (p > 0), atol=1e-10)

    def test_second_derivative_exact_on_quintics(self):
        r = np.linspace(1.0, 3.0, 24)
        for p in range(6):
            expect = p * (p - 1) * r ** max(p - 2, 0) if p >= 2 else np.zeros_like(r)
            assert_allclose(apply_radial(r**p, r[1] - r[0], 2), expect, atol=1e-8)

    def test_fourth_order_convergence(self):
        def err(n):
            r = np.linspace(1.0, 2.0, n)
            return np.abs(apply_radial(np.exp(r), r[1] - r[0], 1) - np.exp(r)).max()

        ratio = err(33) / err(65)
        assert 12.0 < ratio < 22.0

    @pytest.mark.parametrize("order", [1, 2])
    def test_apply_radial_matches_dense_product(self, order):
        rng = np.random.default_rng(3)
        for n in range(7, 41):
            r = np.linspace(1.0, 3.0, n)
            h = r[1] - r[0]
            d = dense_derivative(n, h, order)
            for shape in [(n,), (n, 5), (n, 4, 3, 3)]:
                re, im = rng.standard_normal((2, *shape))
                for f in (re, re + 1j * im):
                    dense = np.einsum("ab,b...->a...", d, f)
                    # rounding of two summation orders is bounded by the
                    # sum of the absolute terms, not by the (cancelling) result
                    bound = np.einsum("ab,b...->a...", np.abs(d), np.abs(f))
                    assert np.all(np.abs(apply_radial(f, h, order) - dense) <= 1e-14 * bound)
                banded = apply_radial(re + 1j * im, h, order)
                assert_allclose(banded.real, apply_radial(re, h, order), rtol=1e-14, atol=0)
                assert_allclose(banded.imag, apply_radial(im, h, order), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_rejects_short_grid(self, n):
        with pytest.raises(ValueError, match="at least 7"):
            apply_radial(np.ones(n), 0.1, 1)

    @pytest.mark.parametrize("order", [0, 3, -1])
    def test_rejects_unsupported_order(self, order):
        with pytest.raises(ValueError, match="1 or 2"):
            apply_radial(np.ones(9), 0.1, order)


def septic(s):
    return s**7 - 3.0 * s**3 + 2.0


def septic_integral(a, b):
    """int_a^b septic, exactly up to rounding."""
    def antiderivative(s):
        return s**8 / 8.0 - 0.75 * s**4 + 2.0 * s

    return antiderivative(b) - antiderivative(a)


class TestCumulativeIntegral:
    # the 4-point Gauss rule is exact on degree 7, so only rounding remains
    @pytest.mark.parametrize(
        "cells",
        [np.linspace(3.0, 12.0, 49), np.geomspace(3.0, 30.0, 65)],
        ids=["linspace", "geomspace"],
    )
    @pytest.mark.parametrize(
        "f,weights",
        [(septic, None), (lambda s: np.stack([septic(s), -0.5 * septic(s)], axis=-1),
                          np.array([1.0, -0.5]))],
        ids=["scalar", "vector"],
    )
    def test_exact_on_a_septic(self, cells, f, weights):
        r0, r1 = cells[0], cells[-1]
        interior = np.random.default_rng(5).uniform(r0, r1, 40)
        radii = np.concatenate([cells, [r0, r1], interior])
        expect = septic_integral(r0, radii)
        if weights is not None:
            expect = expect[:, None] * weights
        tol = 1e-14 * septic_integral(r0, r1)
        integral = cumulative_integral(f, cells)
        got = integral(radii)
        assert got.shape == expect.shape
        assert np.abs(got - expect).max() <= tol
        column = integral(radii[:, None])
        assert column.shape == (len(radii), 1) + expect.shape[1:]
        assert np.abs(column[:, 0] - expect).max() <= tol


class TestScalarOps:
    def test_random_band_limited_rejects_negative_band(self, calc):
        with pytest.raises(ValueError):
            calc.random_band_limited(np.random.default_rng(0), -1)

    def test_gradient_is_tangential(self, calc):
        f = harmonic(calc, 5, 3)
        g = calc.grad_scalar(f)
        assert np.abs(np.einsum("ni,ni->n", g, calc.normal)).max() <= 1e-12

    def test_laplacian_spectral_vs_ambient(self, calc):
        rng = np.random.default_rng(0)
        f = calc.random_band_limited(rng, 8)
        lap1 = calc.laplacian_scalar(f)
        lap2 = calc.div_vector(calc.grad_scalar(f))
        assert np.abs(lap1 - lap2).max() <= 1e-10

    def test_hessian_trace_is_laplacian(self, calc):
        f = harmonic(calc, 6, -4)
        h = calc.sym_grad_covector(calc.grad_scalar(f))
        assert_allclose(np.einsum("nii->n", h), calc.laplacian_scalar(f), atol=1e-10)

    def test_frame_gradient_components(self, calc):
        f = harmonic(calc, 3, 1)
        w = calc.grad_scalar_frame(f)
        cart = calc.frame_to_cart_covector(w)
        assert_allclose(cart, calc.grad_scalar(f), atol=1e-12)


class TestTensorOps:
    def test_frame_round_trip(self, calc):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((calc.n_nodes, 2, 2))
        t = 0.5 * (t + np.swapaxes(t, -1, -2))
        rr, ra, back = calc.adapted_components(calc.frame_to_cart_sym2(t))
        assert_allclose(back, t, atol=1e-13)
        assert np.abs(rr).max() <= 1e-13 and np.abs(ra).max() <= 1e-13

    def test_adapted_scale_broadcasts_against_leading_axes(self):
        # one radius per leading index: with as many radii as nodes, a scale
        # broadcast along the node axis would go unnoticed by its shape
        calc = SphereCalc(l_max=2)
        n = calc.n_nodes
        rng = np.random.default_rng(7)
        for n_r in (n, 4):
            t = rng.standard_normal((n_r, n, 3, 3))
            scale = rng.uniform(0.5, 2.0, n_r)
            rr, ra, ab = calc.adapted_components(t, scale)
            for i in range(n_r):
                rr_i, ra_i, ab_i = calc.adapted_components(t[i], scale[i])
                assert_allclose(rr[i], rr_i, rtol=1e-15, atol=0)
                assert_allclose(ra[i], ra_i, rtol=1e-15, atol=0)
                assert_allclose(ab[i], ab_i, rtol=1e-15, atol=0)
            sym = 0.5 * (t + np.swapaxes(t, -1, -2))
            back = calc.from_adapted(*calc.adapted_components(sym, scale), 1.0 / scale)
            assert_allclose(back, sym, atol=1e-13)

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_frame_conversions_match_three_operand_contractions(self, calc, complex_input):
        rng = np.random.default_rng(11)
        n_r = 5

        def sample(*shape):
            out = rng.standard_normal(shape)
            return out + 1j * rng.standard_normal(shape) if complex_input else out

        t2, t3 = sample(n_r, calc.n_nodes, 2, 2), sample(n_r, calc.n_nodes, 3, 3)
        for scale in (1.0, 1.7, rng.uniform(0.5, 2.0, n_r)):
            assert_close_on_scale(
                calc.frame_to_cart_sym2(t2, scale),
                reference_frame_to_cart_sym2(calc, t2, scale),
                1e-14,
            )
            for got, expect in zip(
                calc.adapted_components(t3, scale),
                reference_adapted_components(calc, t3, scale),
            ):
                assert got.shape == expect.shape
                assert_close_on_scale(got, expect, 1e-14)

    def test_tt_tensors_are_traceless(self, calc):
        rng = np.random.default_rng(2)
        chi = calc.random_band_limited(rng, 6)
        for odd in (False, True):
            t = calc.tt_from_potential(chi, odd=odd)
            assert np.abs(t[..., 0, 0] + t[..., 1, 1]).max() <= 1e-12
            assert np.abs(t[..., 0, 1] - t[..., 1, 0]).max() <= 1e-13

    def test_div_div_of_even_potential_tensor(self, calc):
        # div div (traceless Hessian of Y_lk) = l(l+1)(l(l+1)-2)/2 * Y_lk
        for ell, k in [(2, 0), (3, -2), (5, 4)]:
            y = harmonic(calc, ell, k)
            t = calc.tt_from_potential(y, odd=False)
            dd = calc.div_covector_frame(calc.div_sym2_frame(t))
            ll1 = ell * (ell + 1.0)
            assert np.abs(dd - 0.5 * ll1 * (ll1 - 2.0) * y).max() <= 1e-9

    def test_l1_potentials_generate_nothing(self, calc):
        # degree-1 potentials are conformal Killing; both TT classes vanish
        y = harmonic(calc, 1, 0)
        for odd in (False, True):
            t = calc.tt_from_potential(y, odd=odd)
            assert np.abs(t).max() <= 1e-12

    def test_divergence_of_metric_multiple_vanishes(self, calc):
        f = harmonic(calc, 4, 2)
        t_frame = np.zeros((calc.n_nodes, 2, 2))
        t_frame[:, 0, 0] = f
        t_frame[:, 1, 1] = f
        # div(f * gamma) = df as a covector
        div = calc.div_sym2_frame(t_frame)
        grad = calc.grad_scalar_frame(f)
        assert np.abs(div - grad).max() <= 1e-10

    def test_rotated_gradient_is_divergence_free(self, calc):
        f = harmonic(calc, 5, -1)
        g = calc.grad_scalar(f)
        rot = np.cross(calc.normal, g)
        assert np.abs(calc.div_vector(rot)).max() <= 1e-10
