import numpy as np
import pytest
from numpy.testing import assert_allclose

from schwarzstatic.background import SchwarzschildParams
from schwarzstatic.curvature_lab import (
    _LOWER,
    _PAIR,
    LabGrid,
    _bilinear,
    _bilinear_sym,
    _christoffel,
    _gradient,
    _inverse_sym3,
    _ricci_linear,
    _ricci_quadratic,
    _sym,
    adapted_frame_components,
    boundary_data,
    conformal_static_residual,
    gradient_components,
    linearize_at_schwarzschild,
    make_lab_grid,
    ricci_tensor,
    schwarzschild_samples,
)
from schwarzstatic.fields import (
    DeformationField,
    RadialProfile,
    random_deformation,
)
from schwarzstatic.sphere_ops import SphereCalc

from reference import (
    combine,
    constant_profile,
    einsum_ricci_quadratic,
    gathered_lowering,
    unit_direction_gradient,
    unit_direction_ricci_linear,
)

P13 = SchwarzschildParams(m=1.0, r0=3.0)
H_STEP = 1e-20  # the complex step of linearize_at_schwarzschild


def flat_samples(grid):
    """The Euclidean pair (delta_ij, 0) on the grid."""
    G = np.broadcast_to(np.eye(3), (grid.n_r, grid.calc.n_nodes, 3, 3)).copy()
    U = np.zeros((grid.n_r, grid.calc.n_nodes))
    return G, U


def reference_ricci(grid, G):
    """Ricci tensor from the full Cartesian gradients of all 9 g_ij and 27 Gamma^a_ij.

    The textbook route, kept as the oracle for the contraction-only
    ricci_tensor: every component is differentiated in every direction and
    the divergence and trace gradient are read off the full gradient.
    """
    ginv = np.linalg.inv(G)
    dG = gradient_components(grid, G)  # [..., i, j, k] = d_k g_ij
    di_gbj = np.einsum("...bji->...bij", dG)
    db_gij = np.einsum("...ijb->...bij", dG)
    gamma = 0.5 * np.einsum("...ab,...bij->...aij", ginv, di_gbj + dG - db_gij)
    dgamma = gradient_components(grid, gamma)  # [..., a, i, j, k] = d_k Gamma^a_ij
    ric = np.einsum("...aija->...ij", dgamma)
    ric -= np.einsum("...aaji->...ij", dgamma)
    ric += np.einsum("...aab,...bij->...ij", gamma, gamma)
    ric -= np.einsum("...aib,...baj->...ij", gamma, gamma)
    return 0.5 * (ric + np.swapaxes(ric, -1, -2))


def complex_step_samples(grid, direction):
    """Background samples plus i * H_STEP times the direction, as the oracle forms them."""
    G, U = schwarzschild_samples(grid)
    return G + 1j * H_STEP * direction.cartesian(grid.r), U + 1j * H_STEP * direction.u(grid.r)


def random_direction(grid, seed):
    rng = np.random.default_rng(seed)
    return random_deformation(rng, grid.params, grid.calc, l_band=3, gauge_fixed=False)


@pytest.fixture(scope="module")
def grid():
    return make_lab_grid(P13, r_outer=4.5, n_r=97, calc=SphereCalc(l_max=10))


def mass_variation_direction(params, calc):
    """Direction d/dm of the background family: (-2 r gamma_sphere, -1/(r-2m)).

    Tangential frame components -2/(r-2m) delta_AB, scalar part -1/(r-2m);
    solves the linearized bulk equations exactly, so the oracle must return
    near-zero bulk rows.
    """
    m = params.m
    one = np.ones(calc.n_nodes)
    prof = RadialProfile(
        f=lambda r: 1.0 / (r - 2.0 * m),
        df=lambda r: -1.0 / (r - 2.0 * m) ** 2,
        d2f=lambda r: 2.0 / (r - 2.0 * m) ** 3,
    )
    field = DeformationField(params, calc)
    field.add_ab_conformal(prof.scaled(-2.0), one)
    field.add_u(prof.scaled(-1.0), one)
    return field


class TestNonlinearResidual:
    def test_flat_pair_is_static_to_roundoff(self):
        flat_grid = make_lab_grid(
            SchwarzschildParams(m=0.0, r0=1.0), n_r=33, calc=SphereCalc(l_max=6)
        )
        G, U = flat_samples(flat_grid)
        ric_row, lap = conformal_static_residual(flat_grid, G, U)
        assert np.abs(ric_row).max() <= 2e-12
        assert np.abs(lap).max() <= 2e-12

    def test_background_residual_fourth_order(self):
        # order measured on a fixed physical window: the max over all rows
        # tracks the strongest derivatives, which sit ever closer to r0 as
        # the grid refines, and the closure-transition rows carry one order
        # less under operator composition
        def window_resid(n_r):
            g = make_lab_grid(P13, n_r=n_r, calc=SphereCalc(l_max=10))
            ric_row, lap = conformal_static_residual(g, *schwarzschild_samples(g))
            mask = (g.r >= 3.3) & (g.r <= 7.0)
            return max(np.abs(ric_row[mask]).max(), np.abs(lap[mask]).max())

        coarse, fine = window_resid(33), window_resid(65)
        assert coarse <= 5e-4
        assert fine <= 5e-5
        assert 10.0 < coarse / fine < 26.0

    def test_pure_metric_residual_matches_warped_ricci(self, grid):
        # independent closed form: for dr^2 + rho2 dOmega^2 with
        # rho = sqrt(r(r-2m)), Ric_rr = -2 rho''/rho = 2 m^2/rho2^2 and the
        # tangential block vanishes; with u = 0 the residual is Ric itself
        G, _ = schwarzschild_samples(grid)
        U = np.zeros_like(G[..., 0, 0])
        ric_row, _ = conformal_static_residual(grid, G, U)
        comps = adapted_frame_components(grid, ric_row)
        rho2 = grid.r * (grid.r - 2.0 * P13.m)
        expect = (2.0 * P13.m**2 / rho2**2)[:, None]
        assert np.abs(comps["rr"] - expect).max() <= 1e-6
        assert np.abs(comps["ra"]).max() <= 1e-6
        assert np.abs(comps["ab"]).max() <= 1e-6
        # equals 2 du (x) du of the background potential (static property)
        du = P13.m / rho2
        assert_allclose(comps["rr"][:, 0], 2.0 * du**2, atol=1e-6)

    def test_flat_ricci_vanishes(self):
        g = make_lab_grid(SchwarzschildParams(m=0.0, r0=2.0), n_r=33,
                          calc=SphereCalc(l_max=6))
        G, _ = flat_samples(g)
        ric, _, _ = ricci_tensor(g, G)
        assert np.abs(ric).max() <= 2e-12

    def test_ricci_matches_full_gradient_reference(self, grid):
        G, _ = schwarzschild_samples(grid)
        ric, _, _ = ricci_tensor(grid, G)
        expect = reference_ricci(grid, G)
        assert np.abs(ric - expect).max() <= 1e-10 * np.abs(expect).max()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ricci_matches_full_gradient_reference_complex_step(self, grid, seed):
        # the real part is the background, the imaginary part H_STEP times the
        # linearization: each must agree on its own scale
        G, _ = complex_step_samples(grid, random_direction(grid, seed))
        ric, _, _ = ricci_tensor(grid, G)
        expect = reference_ricci(grid, G)
        for part in (np.real, np.imag):
            scale = np.abs(part(expect)).max()
            assert np.abs(part(ric) - part(expect)).max() <= 1e-10 * scale

    def test_rejects_degenerate_metric(self, grid):
        G, U = schwarzschild_samples(grid)
        bad = G.copy()
        bad[3, 5] = 0.0
        with pytest.raises(ValueError):
            conformal_static_residual(grid, bad, U)


class TestFusedSynthesis:
    """The fused Cartesian-gradient synthesis against the unit-direction route.

    The reference takes d/dtheta and d/dphi with calc.angular_derivatives,
    divides by r and r sin theta and spreads the three unit-direction
    derivatives onto the Cartesian axes; the fused path synthesizes the
    Cartesian components directly from calc.grad_table.  Both are the same
    linear map, so they agree to rounding on any samples, band-limited or not.
    """

    @pytest.fixture(scope="class", params=[8, 12], ids=["l8", "l12"])
    def lab(self, request):
        return make_lab_grid(P13, r_outer=4.5, n_r=33, calc=SphereCalc(l_max=request.param))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_gradient_matches_unit_direction_route(self, lab, kind):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((lab.n_r, 5, lab.calc.n_nodes))
        if kind == "complex":
            f = f + 1j * rng.standard_normal(f.shape)
        got, expect = _gradient(lab, f), unit_direction_gradient(lab, f)
        assert got.shape == expect.shape == (lab.n_r, 5, 3, lab.calc.n_nodes)
        assert got.dtype == expect.dtype
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ricci_linear_matches_unit_direction_route(self, lab, seed):
        # both parts of the Christoffels of a complex-step metric: the
        # background (real) and the linearization (imaginary), each on its scale
        G, _ = complex_step_samples(lab, random_direction(lab, seed))
        gamma, _ = _christoffel(lab, _sym(G))
        for part in (gamma.real, gamma.imag):
            got, expect = _ricci_linear(lab, part), unit_direction_ricci_linear(lab, part)
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


class TestRealProducts:
    """The Christoffel lowering and the Gamma Gamma terms against the forms
    they replaced: three fancy-index gathers, and one complex einsum."""

    def test_lowering_matrix_matches_the_three_gathers(self):
        rng = np.random.default_rng(11)
        dg = rng.standard_normal((9, 6, 3, 40))
        got = np.matmul(_LOWER, dg.reshape(9, 18, 40)).reshape(9, 3, 6, 40)
        expect = gathered_lowering(dg)
        assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_christoffel_matches_the_three_gathers(self, grid, seed):
        # the complex step's two parts, the background and the direction,
        # each on its own scale
        G, _ = complex_step_samples(grid, random_direction(grid, seed))
        g = _sym(G)
        gamma, ginv = _christoffel(grid, g)
        lower = gathered_lowering(_gradient(grid, g))
        expect = np.einsum("rabn,rbpn->rapn", ginv[:, _PAIR], lower)
        for part in (np.real, np.imag):
            scale = np.abs(part(expect)).max()
            assert np.abs(part(gamma) - part(expect)).max() <= 1e-15 * scale

    def test_bilinear_form_matches_the_einsum(self):
        rng = np.random.default_rng(12)
        gamma = rng.standard_normal((9, 3, 6, 40))
        expect = einsum_ricci_quadratic(gamma)
        for got in (_bilinear(gamma, gamma), _ricci_quadratic(gamma)):
            assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()

    def test_complex_gamma_gamma_matches_the_complex_einsum(self):
        rng = np.random.default_rng(13)
        re, im = rng.standard_normal((2, 9, 3, 6, 40))
        expect = einsum_ricci_quadratic(re + 1j * im)
        got = _ricci_quadratic(re + 1j * im)
        assert got.dtype == complex
        for part in (np.real, np.imag):
            assert np.abs(part(got) - part(expect)).max() <= 1e-14 * np.abs(part(expect)).max()
        # the imaginary half the linearization forms alone: X + X^T for the
        # two cross terms, one contraction
        sym = _bilinear_sym(re, im)
        assert np.abs(sym - (_bilinear(re, im) + _bilinear(im, re))).max() <= (
            1e-14 * np.abs(sym).max())
        assert np.array_equal(sym, got.imag)


class TestMetricInverse:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_cofactor_inverse_matches_lapack_complex_step(self, grid, seed):
        # _inverse_sym3 reads and returns symmetric storage (n_r, 6, n): the
        # upper triangle, component-major
        G, _ = complex_step_samples(grid, random_direction(grid, seed))
        upper = np.triu_indices(3)
        ginv, det = _inverse_sym3(np.moveaxis(G[..., upper[0], upper[1]], -1, 1))
        expect = np.moveaxis(np.linalg.inv(G)[..., upper[0], upper[1]], -1, 1)
        # real part: the background inverse; imaginary part: H_STEP times its
        # linearization, so each is compared on its own scale
        for part in (np.real, np.imag):
            scale = np.abs(part(expect)).max()
            assert np.abs(part(ginv) - part(expect)).max() <= 1e-14 * scale
        expect_det = np.linalg.det(G)
        for part in (np.real, np.imag):
            scale = np.abs(part(expect_det)).max()
            assert np.abs(part(det) - part(expect_det)).max() <= 1e-14 * scale


class TestBoundaryData:
    def test_rejects_degenerate_metric(self, grid):
        G, U = schwarzschild_samples(grid)
        bad = G.copy()
        bad[3, 5] = 0.0
        with pytest.raises(ValueError, match="positive definiteness"):
            boundary_data(grid, bad, U)

    def test_background_boundary_rows(self, grid):
        G, U = schwarzschild_samples(grid)
        tau, h_row = boundary_data(grid, G, U)
        # e^{-2u} g^T in the adapted frame is f^{-2} delta; the transformed
        # mean-curvature row recovers the original picture (2/r0) sqrt(f^2)
        f2 = 1.0 - 2.0 * P13.m / P13.r0
        assert_allclose(tau[:, 0, 0], 1.0 / f2, rtol=1e-7)
        assert_allclose(tau[:, 1, 1], 1.0 / f2, rtol=1e-7)
        assert np.abs(tau[:, 0, 1]).max() <= 1e-9
        expect_h = 2.0 / P13.r0 * np.sqrt(f2)
        assert_allclose(h_row, expect_h, rtol=1e-6)

    def test_edge_prefix_rows_are_bitwise_equal(self, grid):
        # the rows sit on row 0, whose one-sided stencil reads samples 0..6
        # only, so the 7-radius prefix that linearize_at_schwarzschild passes
        # must give the full grid's rows exactly
        direction = random_direction(grid, 2)
        G, U = complex_step_samples(grid, direction)
        edge = LabGrid(grid.params, grid.calc, grid.r[:7])
        full = boundary_data(grid, G, U)
        for whole, prefix in zip(full, boundary_data(edge, G[:7], U[:7])):
            assert np.array_equal(whole, prefix)
        lin = linearize_at_schwarzschild(grid, direction)
        assert np.array_equal(lin.boundary_tau, full[0].imag / H_STEP)
        assert np.array_equal(lin.boundary_h, full[1].imag / H_STEP)

    def test_flat_boundary_mean_curvature(self):
        g = make_lab_grid(SchwarzschildParams(m=0.0, r0=1.0), n_r=33,
                          calc=SphereCalc(l_max=6))
        _, h_row = boundary_data(g, *flat_samples(g))
        assert_allclose(h_row, 2.0, rtol=1e-9)


class TestLinearization:
    def test_zero_direction(self, grid):
        out = linearize_at_schwarzschild(grid, DeformationField(P13, grid.calc))
        assert np.abs(out.ric_row).max() == 0.0
        assert np.abs(out.lap_row).max() == 0.0

    def test_rows_are_real_float64(self, grid):
        rng = np.random.default_rng(5)
        d = random_deformation(rng, P13, grid.calc, l_band=2, gauge_fixed=False)
        out = linearize_at_schwarzschild(grid, d)
        for attr in ("ric_row", "lap_row", "boundary_tau", "boundary_h"):
            assert getattr(out, attr).dtype == np.float64, attr

    def test_mass_variation_is_bulk_kernel(self, grid):
        direction = mass_variation_direction(P13, grid.calc)
        out = linearize_at_schwarzschild(grid, direction)
        assert np.abs(out.ric_row[4:-4]).max() <= 5e-6
        assert np.abs(out.lap_row[4:-4]).max() <= 5e-6
        assert np.abs(out.ric_row).max() <= 1e-4
        assert np.abs(out.lap_row).max() <= 1e-4

    def test_scaling_direction(self, grid):
        # direction (g_sc, 0): the Ricci row vanishes by scale invariance of
        # the Ricci tensor with d u~ = 0; the Laplacian row vanishes too since
        # Lap_{(1+eps) g} u = (1+eps)^{-1} Lap_g u and the background potential
        # is harmonic.  The boundary rows are nonzero: tau -> f^{-2} delta and
        # the curvature row picks up the (1+eps)^{-1/2} scaling, giving -H/2.
        calc = grid.calc
        one = np.ones(calc.n_nodes)
        direction = DeformationField(P13, calc)
        direction.add_rr(constant_profile(1.0), one)
        direction.add_ab_conformal(constant_profile(1.0), one)
        G, _ = schwarzschild_samples(grid)
        gd = direction.cartesian(grid.r)
        assert_allclose(gd, G, rtol=1e-12)  # frame components of g_sc are delta

        out = linearize_at_schwarzschild(grid, direction)
        assert np.abs(out.ric_row[4:-4]).max() <= 5e-6
        assert np.abs(out.lap_row[4:-4]).max() <= 5e-6
        f2 = 1.0 - 2.0 * P13.m / P13.r0
        assert_allclose(out.boundary_tau[:, 0, 0], 1.0 / f2, rtol=1e-5)
        expect_h = -0.5 * 2.0 / P13.r0 * np.sqrt(f2)
        assert_allclose(out.boundary_h, expect_h, rtol=1e-5)

    def test_linearity_in_direction(self, grid):
        rng = np.random.default_rng(42)
        x = random_deformation(rng, P13, grid.calc, l_band=2, gauge_fixed=False)
        y = random_deformation(rng, P13, grid.calc, l_band=2, gauge_fixed=False)
        combo = combine((0.7, x), (-1.3, y))
        lx = linearize_at_schwarzschild(grid, x)
        ly = linearize_at_schwarzschild(grid, y)
        lc = linearize_at_schwarzschild(grid, combo)
        for attr in ("ric_row", "lap_row", "boundary_tau", "boundary_h"):
            expect = 0.7 * getattr(lx, attr) - 1.3 * getattr(ly, attr)
            got = getattr(lc, attr)
            scale = max(np.abs(expect).max(), 1e-10)
            assert np.abs(got - expect).max() <= 1e-6 * scale

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "lab",
        [
            (P13, None, 49, 8),
            (SchwarzschildParams(m=-0.5, r0=1.2), None, 49, 8),
            (P13, 4.5, 129, 12),  # selftest's structure-suite grid
        ],
        ids=["P13", "negative-mass", "selftest-grid"],
    )
    def test_rows_are_the_imaginary_part_of_the_complex_evaluation(self, lab, seed):
        # the linearization takes the Ricci tensor's linear terms on Im Gamma
        # alone and the Gamma Gamma terms as B(Re, Im) + B(Im, Re); its rows
        # must be Im / h of the full complex evaluation of the public
        # residual and boundary maps at the same samples
        params, r_outer, n_r, l_max = lab
        grid = make_lab_grid(params, r_outer, n_r=n_r, calc=SphereCalc(l_max=l_max))
        direction = random_direction(grid, seed)
        lin = linearize_at_schwarzschild(grid, direction)
        G, U = complex_step_samples(grid, direction)
        rows = (*conformal_static_residual(grid, G, U), *boundary_data(grid, G, U))
        names = ("ric_row", "lap_row", "boundary_tau", "boundary_h")
        for name, row in zip(names, rows):
            expect = row.imag / H_STEP
            got = getattr(lin, name)
            assert got.shape == expect.shape, name
            scale = np.abs(expect).max()
            assert scale > 0.0, name
            assert np.abs(got - expect).max() <= 1e-12 * scale, name

    def test_boundary_tau_row_of_gauge_fixed_direction(self, grid):
        # for u~ = 0 the linearized tau row is e^{-2 u_sc} g~^T in the frame
        rng = np.random.default_rng(3)
        d = random_deformation(rng, P13, grid.calc, l_band=3, gauge_fixed=True)
        d.u_terms = []
        out = linearize_at_schwarzschild(grid, d)
        f2 = 1.0 - 2.0 * P13.m / P13.r0
        expect = d.ab(P13.r0) / f2
        scale = max(np.abs(expect).max(), 1e-6)
        assert np.abs(out.boundary_tau - expect).max() <= 1e-6 * scale
