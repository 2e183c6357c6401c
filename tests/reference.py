"""Reference helpers shared by several test modules.

None of these is on a path that the package's commands run: they build test
inputs (radial profiles, single-mode fields, linear combinations of fields),
invert package results (the round Bartnik data of a Schwarzschild sphere),
solve a mode in closed form (the Euler solution at m = 0), take the
curvature lab's gradients along the unit directions (the route its fused
synthesis replaced), restate the lab's Christoffel lowering and Gamma
Gamma terms as the fancy-index gathers and complex einsum that its real
products replaced, or restate the gauge module's contractions (the flow
pullback, the Lie derivative's mixed term and the vector gradient's outer
products) and the scaled-frame covector conversion as the einsums and
frame products that its matmuls and broadcasts replaced.  pytest does not collect this module; the test modules
import it as `reference`.
"""

import numpy as np

from schwarzstatic.background import RoundData, SchwarzschildParams, background_at
from schwarzstatic.curvature_lab import _I, _J, _PAIR, _symmetric_part
from schwarzstatic.fd import apply_radial
from schwarzstatic.gauge import _STENCIL_COEFFS, _STENCIL_OFFSETS
from schwarzstatic.fields import DeformationField, RadialProfile, power_profile
from schwarzstatic.harmonics import mode_position
from schwarzstatic.sphere_ops import SphereCalc


def bartnik_data(params: SchwarzschildParams) -> RoundData:
    """Round Bartnik data induced on the boundary sphere r = r0."""
    bg = background_at(params, params.r0)
    return RoundData(rho=params.r0, h=float(2.0 * bg.f_sc / params.r0))


def oscillating_profile(r0: float, s: float, k: float, amp: float = 1.0) -> RadialProfile:
    """amp * (r0/r)^s * cos(k (r/r0 - 1)); rich high derivatives for order tests."""
    w = k / r0

    def f(r):
        return amp * (r0 / r) ** s * np.cos(w * (r - r0))

    def df(r):
        p = (r0 / r) ** s
        return amp * p * (-s / r * np.cos(w * (r - r0)) - w * np.sin(w * (r - r0)))

    def d2f(r):
        p = (r0 / r) ** s
        c, sn = np.cos(w * (r - r0)), np.sin(w * (r - r0))
        return amp * p * (
            (s * (s + 1.0) / r**2 - w * w) * c + 2.0 * s * w / r * sn
        )

    return RadialProfile(f=f, df=df, d2f=d2f)


def boundary_vanishing_profile(r0: float, s: float, amp: float = 1.0) -> RadialProfile:
    """amp * (1 - r0/r) * (r0/r)^s; vanishes at r0, decays like r^-s."""
    base = power_profile(r0, s, amp)
    extra = power_profile(r0, s + 1.0, amp)
    return RadialProfile(
        f=lambda r: base.f(r) - extra.f(r),
        df=lambda r: base.df(r) - extra.df(r),
        d2f=lambda r: base.d2f(r) - extra.d2f(r),
    )


def constant_profile(c: float) -> RadialProfile:
    return RadialProfile(
        f=lambda r: c * np.ones_like(np.asarray(r, dtype=float)),
        df=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        d2f=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
    )


def single_mode_scalar(
    params: SchwarzschildParams,
    calc: SphereCalc,
    ell: int,
    k: int,
    profile: RadialProfile,
) -> DeformationField:
    """u~ = a(r) Y_{k ell} with no metric part."""
    c = np.zeros(calc.grid.n_modes)
    c[mode_position(ell, k)] = 1.0
    field = DeformationField(params, calc)
    field.add_u(profile, calc.from_coeffs(c))
    return field


def combine(*terms: tuple[float, DeformationField]) -> DeformationField:
    """The field sum(c * f) over the (c, f) terms, which share one grid."""
    calc = terms[0][1].calc
    out = DeformationField(terms[0][1].params, calc)
    for c, f in terms:
        if f.calc is not calc:
            raise ValueError("fields must share one calculus grid")
        for name in ("rr_terms", "ra_terms", "ab_terms", "u_terms"):
            getattr(out, name).extend((p.scaled(c), arr) for p, arr in getattr(f, name))
    return out


def euler_coefficients(ell: int, r0: float, a0: float) -> tuple[float, float]:
    """The m = 0 mode in closed form: a = c1 r^(-l-1) + c2 r^l.

    At m = 0 the mode equation is the Euler equation (r^2 a')' = l(l+1) a;
    c1 and c2 fit a(r0) = a0 and the boundary condition
    a'(r0) = l(l+1) a0 / (2 r0).
    """
    da0 = ell * (ell + 1.0) / (2.0 * r0) * a0
    if ell == 0:
        return -(r0 * r0) * da0, a0 + r0 * da0  # a = c1/r + c2
    mat = np.array(
        [
            [r0 ** (-ell - 1.0), r0 ** (1.0 * ell)],
            [-(ell + 1.0) * r0 ** (-ell - 2.0), ell * r0 ** (ell - 1.0)],
        ]
    )
    c1, c2 = np.linalg.solve(mat, [a0, da0])
    return float(c1), float(c2)


def euler_eval(ell: int, c1, c2, r):
    """(a, a') of the Euler solution c1 r^(-l-1) + c2 r^l at r."""
    a = c1 * r ** (-ell - 1.0) + c2 * r ** (1.0 * ell)
    da = -(ell + 1.0) * c1 * r ** (-ell - 2.0) + ell * c2 * r ** (ell - 1.0)
    return a, da


def unit_direction_derivatives(grid, f):
    """Derivatives (3, n_r, C, n) of real samples (n_r, C, n) along the unit
    directions normal, theta_hat and phi_hat: d/dr, d/dtheta / r and
    d/dphi / (r sin theta), from calc.angular_derivatives."""
    calc = grid.calc
    f = np.ascontiguousarray(f)
    out = np.empty((3, *f.shape))
    out[0] = apply_radial(f, grid.h, 1)
    dt, dp = calc.angular_derivatives(f.reshape(-1, f.shape[-1]))
    inv_r = 1.0 / grid.r[:, None, None]
    out[1] = dt.reshape(f.shape) * inv_r
    out[2] = dp.reshape(f.shape) * (inv_r / calc.sin_theta)
    return out


def unit_frame(calc):
    """Cartesian components (direction, axis, n) of normal, theta_hat and phi_hat."""
    return np.stack([calc.normal.T, calc.theta_hat.T, calc.phi_hat.T])


def spread(d, calc):
    """Cartesian gradient (n_r, C, 3, n) from unit-direction derivatives (3, n_r, C, n)."""
    return np.einsum("drcn,dkn->rckn", d, unit_frame(calc))


def unit_direction_gradient(grid, f):
    """Cartesian gradient (n_r, C, 3, n) of samples (n_r, C, n), real or
    complex, each part through the unit directions and the frame spread."""
    if np.iscomplexobj(f):
        return (unit_direction_gradient(grid, f.real)
                + 1j * unit_direction_gradient(grid, f.imag))
    return spread(unit_direction_derivatives(grid, f), grid.calc)


def unit_direction_ricci_linear(grid, gamma):
    """d_a Gamma^a_ij - d_(i Gamma^a_|a|j) (n_r, 6, n) of real Gamma^a_(ij)
    (n_r, a, 6, n): all 18 differentiated along the unit directions, the
    divergence contracted against the frame and the trace gradient spread."""
    n_r, _, _, n = gamma.shape
    d = unit_direction_derivatives(grid, gamma.reshape(n_r, 18, n)).reshape(3, n_r, 3, 6, n)
    div = np.einsum("drapn,dan->rpn", d, unit_frame(grid.calc))
    dtrace = d[:, :, 0, _PAIR[0]] + d[:, :, 1, _PAIR[1]] + d[:, :, 2, _PAIR[2]]
    return div - _symmetric_part(spread(dtrace, grid.calc))


# (component q, direction k) in the gradient of g_(q) of the three terms of
# Gamma_b(ij), row b, column p = (i, j): d_i g_bj, d_j g_bi and d_b g_ij
_DI_GBJ = (_PAIR[:, _J], np.broadcast_to(_I, (3, 6)))
_DJ_GBI = (_PAIR[:, _I], np.broadcast_to(_J, (3, 6)))
_DB_GIJ = (np.broadcast_to(np.arange(6), (3, 6)), np.arange(3)[:, None].repeat(6, axis=1))


def gathered_lowering(dg):
    """Gamma_b(ij) = (d_i g_bj + d_j g_bi - d_b g_ij) / 2 (n_r, b, 6, n) of the
    gradient d_k g_(q) (n_r, q, k, n), real or complex, by three gathers."""
    lower = dg[:, _DI_GBJ[0], _DI_GBJ[1]] + dg[:, _DJ_GBI[0], _DJ_GBI[1]]
    lower -= dg[:, _DB_GIJ[0], _DB_GIJ[1]]
    return 0.5 * lower


def einsum_ricci_quadratic(gamma):
    """Gamma^a_ab Gamma^b_ij - Gamma^a_ib Gamma^b_aj (n_r, 6, n) of
    Gamma^a_(ij) (n_r, a, 6, n), real or complex, by einsum."""
    trace = gamma[:, 0, _PAIR[0]] + gamma[:, 1, _PAIR[1]] + gamma[:, 2, _PAIR[2]]
    full = gamma[:, :, _PAIR]  # [:, a, i, j]
    out = np.einsum("ran,rapn->rpn", trace, gamma)
    out -= np.einsum("raibn,rbajn->rijn", full, full)[:, _I, _J]
    return out


def einsum_pullback(jac, g):
    """jac^T g jac (N, 3, 3), sum_kl jac_ki g_kl jac_lj, by one three-operand einsum."""
    return np.einsum("nki,nlj,nkl->nij", jac, jac, g)


def scaled_frame_to_cart_covector(calc, w, scale=1.0):
    """(..., n, 2) components in the frame scale * frame -> (..., n, 3)
    Cartesian, by building the scaled frame (..., n, 2, 3)."""
    e = calc.frame * np.asarray(scale)[..., None, None, None]
    return w[..., 0:1] * e[..., 0, :] + w[..., 1:2] * e[..., 1, :]


def einsum_vector_gradient(X, r, h):
    """X.cartesian(r) and d_i X^k (n_r, n, i, k) at radii r, the radial
    stencils as in gauge._vector_gradient and the three outer products
    (normal, theta_hat and phi_hat with the derivatives) by einsum."""
    calc = X.calc
    kind = np.where(r - 2 * h < X.r0, 0, np.where(r + 2 * h > X.r1, 2, 1))
    offsets, coeff = _STENCIL_OFFSETS[kind], _STENCIL_COEFFS[kind] / h
    samples = X.cartesian(r[:, None] + offsets * h)
    xc = samples[np.arange(len(r)), (offsets == 0).argmax(axis=1)]
    dr = sum(coeff[:, k, None, None] * samples[:, k] for k in range(offsets.shape[1]))
    dt, dp = calc.angular_derivatives(np.moveaxis(xc, -1, 0))
    r_col = r[:, None, None, None]
    dang = np.einsum("ni,krn->rnik", calc.theta_hat, dt) / r_col
    dang += np.einsum("ni,krn->rnik", calc.phi_hat, dp / calc.sin_theta) / r_col
    return xc, np.einsum("ni,rnk->rnik", calc.normal, dr) + dang


def einsum_lie_derivative(xc, dX, g, dg):
    """L_X g = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k (n_r, n, 3, 3) from
    samples xc, dX[..., i, k] = d_i X^k, g and dg[..., k, i, j] = d_k g_ij,
    with the mixed term g_kj d_i X^k by einsum."""
    lie = np.einsum("rnk,rnkij->rnij", xc, dg)
    mixed = np.einsum("rnkj,rnik->rnij", g, dX)
    return lie + (mixed + np.swapaxes(mixed, -1, -2))
