import math
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import assoc_legendre_p_all, gammaln, lpmv

from schwarzstatic.harmonics import make_grid, mode_list, mode_position
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
    through scipy's lpmv and forms the normalisation
    sqrt((2l+1)/(4 pi) (l-k)!/(l+k)!) from exact factorials.  Accepts scalars
    or broadcastable arrays.  The longitude factor is sqrt(2) cos(k phi) for
    k > 0 and sqrt(2) sin(|k| phi) for k < 0.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ell, ka = idx.ell, abs(idx.k)
    # lpmv carries the Condon-Shortley factor (-1)^k; remove it.
    p = (-1.0) ** ka * lpmv(ka, ell, np.cos(theta))
    ratio = math.factorial(ell - ka) / math.factorial(ell + ka)
    val = math.sqrt((2 * ell + 1) / (4.0 * math.pi) * ratio) * p
    if idx.k > 0:
        val = np.sqrt(2.0) * val * np.cos(ka * phi)
    elif idx.k < 0:
        val = np.sqrt(2.0) * val * np.sin(ka * phi)
    return val


def reference_tables(grid):
    """Y, dY_dtheta and dY_dphi at grid's nodes from scipy's assoc_legendre_p_all.

    Built mode by mode: the Condon-Shortley phase is cancelled, the
    normalisation comes from gammaln, and the k != 0 columns carry sqrt(2).
    """
    th, ph = grid.nodes[:, 0], grid.nodes[:, 1]
    tab = assoc_legendre_p_all(grid.l_max, grid.l_max, np.cos(th), diff_n=1)
    Y, dY_dt, dY_dp = (np.empty((grid.n_nodes, grid.n_modes)) for _ in range(3))
    for col, (ell, k) in enumerate(mode_list(grid.l_max)):
        ka = abs(k)
        ratio = np.exp(gammaln(ell - ka + 1.0) - gammaln(ell + ka + 1.0))
        norm = (-1.0) ** ka * np.sqrt((2.0 * ell + 1.0) / (4.0 * np.pi) * ratio)
        if k != 0:
            norm *= np.sqrt(2.0)
        if k >= 0:
            trig, dtrig = np.cos(ka * ph), -ka * np.sin(ka * ph)
        else:
            trig, dtrig = np.sin(ka * ph), ka * np.cos(ka * ph)
        Y[:, col] = norm * tab[0, ell, ka] * trig
        dY_dt[:, col] = -np.sin(th) * norm * tab[1, ell, ka] * trig
        dY_dp[:, col] = norm * tab[0, ell, ka] * dtrig
    return Y, dY_dt, dY_dp


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

    def test_rejects_negative_l_max(self):
        with pytest.raises(ValueError):
            make_grid(-1)

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

    @pytest.mark.parametrize("l_max", [0, 1, 8, 18])
    def test_tables_match_scipy_reference(self, l_max):
        # 18 is the grid of gauge-test --l-band 16.  Largest deviation
        # measured, relative to the table's largest entry: 1.3e-14 (Y at
        # l_max 18); Gram identity error 5.1e-15 there.
        grid = make_grid(l_max)
        names = ("Y", "dY_dtheta", "dY_dphi")
        for name, ref in zip(names, reference_tables(grid)):
            err = np.abs(getattr(grid, name) - ref).max()
            assert err <= 1e-13 * np.abs(ref).max(), name
        gram = grid.analysis @ grid.Y
        assert np.abs(gram - np.eye(grid.n_modes)).max() <= 1e-12

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
