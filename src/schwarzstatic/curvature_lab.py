"""Grid evaluation of the conformal static operator and its linearization.

The nonlinear residual (Ric_g - 2 du (x) du, Lap_g u) is evaluated from
Cartesian metric components sampled on a radial x spherical grid.  Every
derivative is taken along the grid's directions: radial derivatives use the
4th-order stencils of fd.apply_radial on the grid step, angular derivatives
go through harmonic synthesis of basis derivatives, which is exact on
band-limited data, so the radial truncation dominates and the residual of
the exact background converges at 4th order.  gradient_components
(gradient_scalar is its scalar case) assembles them into Cartesian
gradients.

The Ricci tensor forms only the contractions it needs.  christoffel
differentiates the 6 distinct metric components g_(ij) and returns the 18
distinct Gamma^a_(ij) in symmetric storage.  ricci_tensor
differentiates the 18 distinct Gamma^a_(ij) and contracts each derivative
direction with the upper index as soon as it is formed, giving the
divergence d_a Gamma^a_ij without the 81-component gradient of all 27
Gamma^a_ij; the trace Gamma^a_aj gets a gradient of its own.  The
Gamma Gamma terms are batched matrix products.

The linearization oracle is a complex step (Squire & Trapp, SIAM Rev. 40
(1998) 110): the nonlinear operator T is evaluated once at q + i h d and
Im T(q + i h d) / h = T'(q) d + O(h^2).  No difference is taken, so there is
no cancellation and h = 1e-20 needs no tuning.  This needs T to be analytic
in the samples, which shapes two steps of the nonlinear path: the
positive-definiteness check runs its Cholesky factorization on G.real (a
complex Cholesky would test the Hermitian matrix, not the symmetric one),
and the metric is inverted by cofactors, the adjugate over the determinant,
which is rational in the samples: no pivoting, no abs and no conj.  The
same determinant gives boundary_data its log-determinant as log(det), the
principal branch, analytic near the positive real axis where every sampled
metric's determinant lies.  The banded radial stencils, the harmonic
transforms and the frame conversions only multiply samples by real weights
and add them, so they act on the real and imaginary parts separately and
keep T analytic.  The boundary rows sit on row 0, whose one-sided stencil
reads the first 7 radii only, so the linearization evaluates boundary_data
on those 7 radii.  This path never touches the hand-coded structure
equations, which it exists to check.

oracle_combinations recombines a linearization into the values the five
hand-coded structure residuals must take, staying on the oracle side of the
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import SchwarzschildParams, background_at, conformal_metric_cartesian
from .fd import apply_radial
from .fields import DeformationField
from .sphere_ops import SphereCalc

__all__ = [
    "LabGrid",
    "make_lab_grid",
    "schwarzschild_samples",
    "gradient_scalar",
    "gradient_components",
    "christoffel",
    "ricci_tensor",
    "conformal_static_residual",
    "boundary_data",
    "LinearizedLc",
    "linearize_at_schwarzschild",
    "adapted_frame_components",
    "ric_prime_cartesian",
    "oracle_combinations",
]

# symmetric storage of a 3 x 3 symmetric tensor: entry p holds (_I[p], _J[p]),
# the upper triangle, and _PAIR[i, j] is the entry that holds (i, j)
_I, _J = np.triu_indices(3)
_PAIR = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


@dataclass
class LabGrid:
    """Radial nodes tensored with a spherical calculus grid."""

    params: SchwarzschildParams
    calc: SphereCalc
    r: np.ndarray

    @property
    def n_r(self) -> int:
        return len(self.r)

    @property
    def h(self) -> float:
        return float(self.r[1] - self.r[0])


def make_lab_grid(
    params: SchwarzschildParams,
    r_outer: float | None = None,
    n_r: int = 97,
    *,
    calc: SphereCalc,
) -> LabGrid:
    if r_outer is None:
        r_outer = 2.5 * params.r0
    return LabGrid(params, calc, np.linspace(params.r0, r_outer, n_r))


def schwarzschild_samples(grid: LabGrid):
    """Cartesian samples of the conformal background pair on the grid."""
    calc, r = grid.calc, grid.r
    G = conformal_metric_cartesian(grid.params, r[:, None], calc.normal)
    U = 0.5 * np.log(1.0 - 2.0 * grid.params.m / r)[:, None] * np.ones((1, calc.n_nodes))
    return G, U


def gradient_scalar(grid: LabGrid, f: np.ndarray) -> np.ndarray:
    """Cartesian gradient of scalar samples (n_r, n) -> (n_r, n, 3)."""
    return gradient_components(grid, f)


def gradient_components(grid: LabGrid, field: np.ndarray) -> np.ndarray:
    """Componentwise Cartesian gradient: (n_r, n, *c) -> (n_r, n, *c, 3)."""
    tail = field.shape[2:]
    calc = grid.calc
    flat = field.reshape(grid.n_r, calc.n_nodes, -1)
    dr = np.moveaxis(apply_radial(flat, grid.h, 1), -1, 0)
    dt, dp = calc.angular_derivatives(np.moveaxis(flat, -1, 0))
    inv_r = 1.0 / grid.r[None, :, None]
    g = (
        dr[..., None] * calc.normal
        + (dt * inv_r)[..., None] * calc.theta_hat
        + (dp * inv_r / calc.sin_theta)[..., None] * calc.phi_hat
    )  # (C, n_r, n, 3)
    g = np.moveaxis(g, 0, -2)
    return g.reshape(grid.n_r, calc.n_nodes, *tail, 3)


def _inverse_sym3(G: np.ndarray):
    """Inverse and determinant of symmetric 3 x 3 samples (..., 3, 3).

    The adjugate over the determinant, read from the upper triangle: rational
    in the entries, so a complex step through it stays analytic.  Raises
    ValueError before dividing where Re det <= 0.
    """
    a, b, c, d, e, f = np.moveaxis(G[..., _I, _J], -1, 0)
    cof = np.stack(
        [d * f - e * e, c * e - b * f, b * e - c * d, a * f - c * c, b * c - a * e, a * d - b * b],
        axis=-1,
    )
    det = a * cof[..., 0] + b * cof[..., 1] + c * cof[..., 2]
    if np.any(det.real <= 0):
        raise ValueError("metric lost positive definiteness")
    return (cof / det[..., None])[..., _PAIR], det


def christoffel(grid: LabGrid, G: np.ndarray):
    """Christoffel symbols Gamma^a_(ij) (n_r, n, a, 6) of metric samples, in
    symmetric storage, and the inverse metric.

    Only the 6 distinct components g_(ij) (the upper triangle) are
    differentiated, and only the 6 distinct columns (ij) of
    d_i g_bj + d_j g_bi - d_b g_ij are formed and raised.
    """
    ginv, _ = _inverse_sym3(G)
    dG = gradient_components(grid, G[..., _I, _J])  # [..., q, k] = d_k g_q
    lower = (dG[..., _DI_GBJ[0], _DI_GBJ[1]] + dG[..., _DJ_GBI[0], _DJ_GBI[1]]
             - dG[..., _DB_GIJ[0], _DB_GIJ[1]])  # [..., b, p]
    return 0.5 * (ginv @ lower), ginv


# (component, direction) in the gradient of g_(q) of the three terms of
# Gamma_b(ij), row b, column p = (i, j): d_i g_bj, d_j g_bi and d_b g_ij
_DI_GBJ = (_PAIR[:, _J], np.broadcast_to(_I, (3, 6)))
_DJ_GBI = (_PAIR[:, _I], np.broadcast_to(_J, (3, 6)))
_DB_GIJ = (np.broadcast_to(np.arange(6), (3, 6)), np.arange(3)[:, None].repeat(6, axis=1))


def _christoffel_divergence(grid: LabGrid, sym: np.ndarray) -> np.ndarray:
    """d_a Gamma^a_ij (n_r, n, 6) in symmetric storage, from (n_r, n, a, 6).

    The 18 distinct Gamma^a_(ij) are differentiated once; each derivative
    direction (d/dr along the normal, d/dtheta / r along theta_hat and
    d/dphi / (r sin theta) along phi_hat) is contracted with the a slot as
    soon as it is formed, so no (..., 3) gradient axis is ever stored.
    """
    calc = grid.calc
    flat = sym.reshape(grid.n_r, calc.n_nodes, 18)
    dr = apply_radial(flat, grid.h, 1).reshape(sym.shape)
    dt, dp = calc.angular_derivatives(np.moveaxis(flat, -1, 0))
    dt, dp = dt.reshape(3, 6, *flat.shape[:2]), dp.reshape(3, 6, *flat.shape[:2])
    n, th, ph = calc.normal, calc.theta_hat, calc.phi_hat / calc.sin_theta[:, None]
    div = sum(dr[:, :, a] * n[:, a, None] for a in range(3))
    tangential = sum(dt[a] * th[:, a] + dp[a] * ph[:, a] for a in range(3))  # (p, n_r, n)
    return div + np.moveaxis(tangential, 0, -1) / grid.r[:, None, None]


def ricci_tensor(grid: LabGrid, G: np.ndarray):
    """Ricci tensor (n_r, n, 3, 3) of metric samples, the Christoffels
    (n_r, n, a, i, j) and the inverse metric.

    Ric_ij = d_a Gamma^a_ij - d_(i Gamma^a_|a|j) + Gamma^a_ab Gamma^b_ij
    - Gamma^a_ib Gamma^b_aj: only the divergence of the Christoffels and the
    gradient of their trace are formed, never the full gradient.  The
    Christoffels are expanded from symmetric storage for the trace and the
    Gamma Gamma terms only.
    """
    sym, ginv = christoffel(grid, G)
    gamma = sym[..., _PAIR]
    trace = np.einsum("...aaj->...j", gamma)  # Gamma^a_aj
    dtrace = gradient_components(grid, trace)  # [..., j, i] = d_i Gamma^a_aj
    ric = _christoffel_divergence(grid, sym)[..., _PAIR] - dtrace
    ric += (trace[..., None, :] @ gamma.reshape(*G.shape[:-2], 3, 9)).reshape(G.shape)
    s = np.swapaxes(gamma, -3, -2).copy()  # s[..., i, a, b] = Gamma^a_ib
    ric -= s.reshape(*G.shape[:-2], 3, 9) @ s.reshape(*G.shape[:-2], 9, 3)
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))  # mixed-partial symmetrization
    return ric, gamma, ginv


def _check_metric(G: np.ndarray):
    try:
        np.linalg.cholesky(G.real)
    except np.linalg.LinAlgError as exc:
        raise ValueError("metric not positive definite at some node") from exc


def conformal_static_residual(grid: LabGrid, G: np.ndarray, U: np.ndarray):
    """(Ric_g - 2 du (x) du, Lap_g u) on the grid.

    G holds the metric components (n_r, n, 3, 3); raises ValueError if the
    metric loses positive definiteness.
    """
    _check_metric(G)
    ric, gamma, ginv = ricci_tensor(grid, G)
    du = gradient_scalar(grid, U)
    d2u = gradient_components(grid, du)
    d2u = 0.5 * (d2u + np.swapaxes(d2u, -1, -2))
    hess = d2u - np.einsum("...aij,...a->...ij", gamma, du)
    lap = np.einsum("...ij,...ij->...", ginv, hess)
    ric_row = ric - 2.0 * np.einsum("...i,...j->...ij", du, du)
    return ric_row, lap


def boundary_data(grid: LabGrid, G: np.ndarray, U: np.ndarray):
    """Transformed boundary rows at r = r0.

    Returns (tau, h): tau are frame components of e^(-2u) g restricted to the
    boundary sphere, h = e^u (H_g - 2 nu(u)) with nu the g-unit normal of the
    foliation pointing to infinity and H_g its g-divergence.
    """
    calc = grid.calc
    ginv, det = _inverse_sym3(G)
    raw = np.einsum("rnij,nj->rni", ginv, calc.normal)
    norm = np.sqrt(np.einsum("rni,ni->rn", raw, calc.normal))
    nu = raw / norm[..., None]

    logdet = np.log(det)
    dnu = gradient_components(grid, nu)  # [..., i, k] = d_k nu^i
    div = np.einsum("rnii->rn", dnu)
    dhalf = gradient_scalar(grid, 0.5 * logdet)
    div += np.einsum("rni,rni->rn", nu, dhalf)

    du = gradient_scalar(grid, U)
    nu_u = np.einsum("rni,rni->rn", nu, du)
    h_row = np.exp(U[0]) * (div[0] - 2.0 * nu_u[0])

    r0, m = grid.params.r0, grid.params.m
    _, _, tau = calc.adapted_components(G[0], r0 / np.sqrt(r0 * (r0 - 2.0 * m)))
    tau = np.exp(-2.0 * U[0])[:, None, None] * tau
    return tau, h_row


_H = 1e-20  # complex step: no cancellation, so it need not balance truncation
_EDGE_ROWS = 7  # the boundary rows sit on row 0, whose fd.apply_radial edge block reads f[:7]


@dataclass
class LinearizedLc:
    """Directional derivative of the conformal static boundary-value map."""

    ric_row: np.ndarray  # (n_r, n, 3, 3)
    lap_row: np.ndarray  # (n_r, n)
    boundary_tau: np.ndarray  # (n, 2, 2) frame components
    boundary_h: np.ndarray  # (n,)


def linearize_at_schwarzschild(grid: LabGrid, direction: DeformationField) -> LinearizedLc:
    """Complex-step directional linearization at the background pair."""
    G0, U0 = schwarzschild_samples(grid)
    G = G0 + 1j * _H * direction.cartesian(grid.r)
    U = U0 + 1j * _H * direction.u(grid.r)
    edge = LabGrid(grid.params, grid.calc, grid.r[:_EDGE_ROWS])
    rows = (
        *conformal_static_residual(grid, G, U),
        *boundary_data(edge, G[:_EDGE_ROWS], U[:_EDGE_ROWS]),
    )
    return LinearizedLc(*(row.imag / _H for row in rows))


def adapted_frame_components(grid: LabGrid, T: np.ndarray):
    """Project (n_r, n, 3, 3) tensor samples onto the adapted frame.

    Returns dict with 'rr' (n_r, n), 'ra' (n_r, n, 2), 'ab' (n_r, n, 2, 2);
    frame vectors are d/dr and the parallel tangential frame (r/rho) * unit.
    """
    fac = grid.r / np.sqrt(grid.r * (grid.r - 2.0 * grid.params.m))
    rr, ra, ab = grid.calc.adapted_components(T, fac)
    return {"rr": rr, "ra": ra, "ab": ab}


def ric_prime_cartesian(grid: LabGrid, direction: DeformationField, lin: LinearizedLc):
    """Cartesian components of Ric'(g~) from the linearized static row.

    The static row is Ric'(g~) - 2 du~ (x) du_sc - 2 du_sc (x) du~, so
    Ric'(g~) is recovered by adding back the analytic bilinear correction.
    """
    du_sc = background_at(grid.params, grid.r).du_sc[:, None, None, None]
    outer = np.einsum("rni,nj->rnij", direction.u_gradient_cart(grid.r), grid.calc.normal)
    return lin.ric_row + 2.0 * du_sc * (outer + np.swapaxes(outer, -1, -2))


def oracle_combinations(grid: LabGrid, direction: DeformationField, lin: LinearizedLc):
    """Oracle-side values of the five structure residuals.

    For an arbitrary transverse direction the linearized Riccati, traced
    Gauss, Codazzi, and tangential-Gauss identities let the oracle predict
    exactly what each hand-coded residual must evaluate to:

      dg2 -> 4 u_sc' u~' - Ric'_rr
      dg4 -> 2 Ric'_rr - R'(g~) - 4 u_sc' u~'
      dg5 -> 2 u_sc' (d/ u~)_A - Ric'(dr)^T_A
      dg3 -> -(Ric'^T - (1/2) tr/ Ric'^T gamma)_AB
      dg1 -> linearized Laplacian row
    """
    bg = background_at(grid.params, grid.r)
    dusc = bg.du_sc[:, None]
    rho = np.sqrt(bg.rho2)[:, None, None]

    ric_prime = ric_prime_cartesian(grid, direction, lin)
    comps = adapted_frame_components(grid, ric_prime)

    du_rad = direction.u(grid.r, 1)
    grad_u = grid.calc.grad_scalar_frame(direction.u(grid.r)) / rho

    ab = comps["ab"]
    tr_ab = ab[..., 0, 0] + ab[..., 1, 1]
    # R'(g~) = g_sc-trace of Ric'(g~), taken in the orthonormal adapted frame;
    # the correction <g~, Ric_sc> = 2 u_sc'^2 g~(dr, dr) vanishes for
    # transverse directions
    rprime = comps["rr"] + tr_ab
    traceless = ab.copy()
    traceless[..., 0, 0] -= 0.5 * tr_ab
    traceless[..., 1, 1] -= 0.5 * tr_ab

    return {
        "dg2": 4.0 * dusc * du_rad - comps["rr"],
        "dg4": 2.0 * comps["rr"] - rprime - 4.0 * dusc * du_rad,
        "dg5": 2.0 * dusc[..., None] * grad_u - comps["ra"],
        "dg3": -traceless,
        "dg1": lin.lap_row,
    }
