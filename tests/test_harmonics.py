from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import lpmv

from schwarzstatic.harmonics import (
    _norm,
    make_grid,
    mode_list,
    mode_position,
)
from schwarzstatic.sphere_ops import SphereCalc


@dataclass(frozen=True)
class ModeIndex:
    """Degree ell >= 0 and order k with |k| <= ell."""

    ell: int
    k: int

    def __post_init__(self):
        if self.ell < 0 or abs(self.k) > self.ell:
            raise IndexError(f"invalid harmonic index (ell={self.ell}, k={self.k})")


def sh_eval(idx: ModeIndex, theta, phi):
    """Evaluate one real orthonormal harmonic at (theta, phi).

    A point evaluator independent of the tables make_grid builds: it goes
    through scipy's lpmv, not assoc_legendre_p_all.  Accepts scalars or
    broadcastable arrays.  The longitude factor is sqrt(2) cos(k phi) for
    k > 0 and sqrt(2) sin(|k| phi) for k < 0.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ka = abs(idx.k)
    # lpmv carries the Condon-Shortley factor (-1)^k; remove it.
    p = (-1.0) ** ka * lpmv(ka, idx.ell, np.cos(theta))
    val = _norm(np.float64(idx.ell), np.float64(ka)) * p
    if idx.k > 0:
        val = np.sqrt(2.0) * val * np.cos(ka * phi)
    elif idx.k < 0:
        val = np.sqrt(2.0) * val * np.sin(ka * phi)
    return val


@pytest.fixture(scope="module")
def grid8():
    return make_grid(8)


@pytest.fixture(scope="module")
def calc8():
    return SphereCalc(l_max=8)


class TestModeIndex:
    def test_rejects_bad_order(self):
        with pytest.raises(IndexError):
            ModeIndex(ell=2, k=3)
        with pytest.raises(IndexError):
            ModeIndex(ell=-1, k=0)

    def test_flat_layout(self):
        assert mode_position(0, 0) == 0
        assert mode_position(1, -1) == 1
        assert mode_position(1, 0) == 2
        assert mode_position(1, 1) == 3
        assert [mode_position(e, k) for e, k in mode_list(3)] == list(range(16))


class TestPointEvaluation:
    def test_constant_mode(self):
        v = sh_eval(ModeIndex(0, 0), 0.3, 1.2)
        assert_allclose(v, 1.0 / np.sqrt(4.0 * np.pi), rtol=1e-14)

    def test_axis_value_l1(self):
        v = sh_eval(ModeIndex(1, 0), 0.0, 0.0)
        assert_allclose(v, np.sqrt(3.0 / (4.0 * np.pi)), rtol=1e-14)

    def test_index_error(self):
        with pytest.raises(IndexError):
            sh_eval(ModeIndex(1, 2), 0.1, 0.1)


class TestGrid:
    def test_weights_sum_to_sphere_area(self, grid8):
        assert_allclose(grid8.weights.sum(), 4.0 * np.pi, rtol=1e-13)

    def test_rejects_undersized_grid(self):
        with pytest.raises(ValueError):
            make_grid(8, n_theta=8)

    def test_single_mode_quadrature(self, grid8):
        y21 = grid8.Y[:, mode_position(2, 1)]
        assert_allclose(grid8.weights @ y21**2, 1.0, atol=1e-12)

    def test_gram_matrix_is_identity(self, grid8):
        gram = grid8.analysis @ grid8.Y
        assert np.abs(gram - np.eye(grid8.n_modes)).max() <= 1e-12

    def test_basis_matches_point_evaluator(self, grid8):
        th, ph = grid8.nodes[:, 0], grid8.nodes[:, 1]
        for ell, k in [(0, 0), (3, 2), (5, -4), (8, 8)]:
            col = grid8.Y[:, mode_position(ell, k)]
            assert_allclose(col, sh_eval(ModeIndex(ell, k), th, ph), atol=1e-13)

    def test_derivative_columns(self, grid8):
        # compare against one-dimensional finite differences of sh_eval
        th, ph = grid8.nodes[:, 0], grid8.nodes[:, 1]
        h = 1e-6
        for ell, k in [(2, 1), (4, -3), (7, 0)]:
            idx = ModeIndex(ell, k)
            col = mode_position(ell, k)
            dth = (sh_eval(idx, th + h, ph) - sh_eval(idx, th - h, ph)) / (2 * h)
            dph = (sh_eval(idx, th, ph + h) - sh_eval(idx, th, ph - h)) / (2 * h)
            assert_allclose(grid8.dY_dtheta[:, col], dth, atol=1e-8)
            assert_allclose(grid8.dY_dphi[:, col], dph, atol=1e-8)


class TestTransforms:
    """Analysis (coeffs) and synthesis (from_coeffs) through SphereCalc."""

    def test_analyze_single_harmonic(self, calc8):
        field = calc8.grid.Y[:, mode_position(3, 2)]
        coeffs = calc8.coeffs(field)
        expected = np.zeros(calc8.grid.n_modes)
        expected[mode_position(3, 2)] = 1.0
        assert np.abs(coeffs - expected).max() <= 1e-12

    def test_analyze_constant(self, calc8):
        coeffs = calc8.coeffs(np.ones(calc8.n_nodes))
        assert_allclose(coeffs[mode_position(0, 0)], np.sqrt(4.0 * np.pi), rtol=1e-13)
        assert np.abs(coeffs[1:]).max() <= 1e-12

    def test_analyze_size_mismatch(self, calc8):
        with pytest.raises(ValueError):
            calc8.coeffs(np.ones(10))

    def test_synthesize_zero(self, calc8):
        assert_allclose(calc8.from_coeffs(np.zeros(81)), 0.0)

    def test_synthesize_constant(self, calc8):
        c = np.zeros(81)
        c[0] = np.sqrt(4.0 * np.pi)
        assert_allclose(calc8.from_coeffs(c), 1.0, rtol=1e-13)

    def test_band_limited_round_trip(self, calc8):
        rng = np.random.default_rng(11)
        c = np.zeros(81)
        c[:36] = rng.standard_normal(36)  # band limit L = 5
        field = calc8.from_coeffs(c)
        back = calc8.coeffs(field)
        assert np.abs(back - c).max() <= 1e-12
        again = calc8.from_coeffs(back)
        assert np.abs(again - field).max() <= 1e-12

    def test_parseval(self, calc8):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(81)
        field = calc8.from_coeffs(c)
        quad = calc8.grid.weights @ field**2
        assert_allclose(quad, np.sum(c**2), rtol=1e-12)

    def test_coefficient_space_laplacian(self):
        # the spectral Laplacian scales each coefficient by -l(l+1)
        calc = SphereCalc(l_max=3)
        c = np.zeros(16)
        c[mode_position(2, -1)] = 1.5
        out = calc.coeffs(calc.laplacian_scalar(calc.from_coeffs(c)))
        assert_allclose(out[mode_position(2, -1)], -6.0 * 1.5, rtol=1e-15)


class TestDiscreteLaplacian:
    def test_eigenvalue_property(self):
        """Two-round ambient Laplacian reproduces -l(l+1) to spectral accuracy.

        The discrete operator is div(grad) built from basis-derivative
        synthesis, independent of the coefficient-space eigenvalue shortcut.
        """
        calc = SphereCalc(l_max=12)
        for ell, k in [(0, 0), (1, 1), (4, -2), (8, 5), (8, -8)]:
            y = calc.grid.Y[:, mode_position(ell, k)]
            lap = calc.div_vector(calc.grad_scalar(y))
            assert np.abs(lap + ell * (ell + 1.0) * y).max() <= 1e-10
