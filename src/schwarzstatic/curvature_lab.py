"""Grid evaluation of the conformal static operator and its linearization.

The nonlinear residual (Ric_g - 2 du (x) du, Lap_g u) is evaluated from
Cartesian metric components sampled on a radial x spherical grid.  Every
derivative is taken along the grid's directions: radial derivatives use the
4th-order stencils of fd.apply_radial on the grid step, angular derivatives
go through harmonic synthesis of basis derivatives, which is exact on
band-limited data, so the radial truncation dominates and the residual of
the exact background converges at 4th order.  gradient_components
(gradient_scalar is its scalar case) returns the Cartesian gradients.

Layout.  The public functions take and return node-major samples, (n_r, n,
*components).  Inside, every stage keeps them component-major, (n_r, C, n)
with the n nodes last, and holds a symmetric 3 x 3 tensor in symmetric
storage, its upper triangle of 6 components.  The harmonic transforms then
act on the (n_r C, n) rows as they lie, and every pointwise step (the
cofactor inverse, raising the Christoffels, the Gamma Gamma terms, the
Hessian and the Laplacian) is one einsum or a short sum over whole
component slices, each looping over all n_r n points with the nodes
innermost: no per-node 3 x 3 matrix product and no length-3 inner loop.
Lowering is one product: Gamma_b(ij) = (d_i g_bj + d_j g_bi - d_b g_ij) / 2
is a constant real 18 x 18 matrix, _LOWER, applied to the 18 distinct
d_k g_(q) of each real part in a single np.matmul.
A Cartesian gradient, (n_r, C, 3, n), is one analysis of the n_r C rows,
the coefficients divided by r, and one synthesis against the three rows of
SphereCalc.grad_table side by side, theta_hat_k dY/dtheta + phi_hat_k
dY/dphi / sin for axis k, which writes all three axes at once; normal_k
times the radial stencil adds the rest.  No derivative along theta_hat or
phi_hat is stored and then spread onto the axes.

The Ricci tensor forms only the contractions it needs.  Only the 6
distinct metric components g_(ij) are differentiated, into the 18 distinct
Gamma^a_(ij).  In Ric_ij = d_a Gamma^a_ij - d_(i Gamma^a_|a|j)
+ Gamma^a_ab Gamma^b_ij - Gamma^a_ib Gamma^b_aj the two linear terms come
from one analysis and one radial stencil of the 18 Gamma^a_(ij).  The
divergence synthesizes block a along axis a alone, one row of grad_table,
so the 81-component gradient of all 27 Gamma^a_ij is never formed.  The
trace Gamma^a_aj is linear in them, so its coefficients and radial
derivative are the traces of theirs, and only the trace gets a full
Cartesian gradient.

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
metric's determinant lies.

The linear stages run on real arrays.  The banded radial stencils and the
harmonic transforms with their Cartesian synthesis only multiply samples by
real weights and add them, so they map real parts to real parts and imaginary
parts to imaginary parts, and T stays analytic.  They take real float64
samples: a complex operand (the metric, the potential and its gradient) goes
through as one real batch, its real parts followed by its imaginary parts,
and is joined back afterwards; no real table is cast to complex.  The
Ricci tensor's two linear terms go through one such helper, _ricci_linear,
which ricci_tensor and conformal_static_residual call on each real part
present.  linearize_at_schwarzschild needs only Im Ric, and the imaginary
part of a real-weight linear stage is that stage applied to the imaginary
part alone, so it calls _ricci_linear on Im Gamma only.  This is exact: it
is the very imaginary part the complex path computes, by the same
operations in the same order, and the real part of those terms is never
formed.  The Christoffels, the Hessian and the Laplacian need both parts
and are the same code on both paths.  The Gamma Gamma terms are one real
bilinear form, B(G1, G2) = tr(G1)_b G2^b_ij - G1^a_ib G2^b_aj on the stored
(i, j), so Gamma Gamma of Gamma = Re + i Im is B(Re, Re) - B(Im, Im) +
i (B(Re, Im) + B(Im, Re)).  That is the complex product exact only to
rounding: its sums run in another order than a complex einsum's.  The
imaginary part takes one contraction, as X_ij = Re^a_ib Im^b_aj of
B(Re, Im) is the transpose of that of B(Im, Re), and it is one function,
_bilinear_sym, on both paths: linearize_at_schwarzschild forms it alone,
and its rows remain the very imaginary part of the complex evaluation.  The
boundary rows sit on row 0, whose one-sided stencil reads the first 7 radii
only, so boundary_data reads those 7 radii and no more.  This path never
touches the hand-coded structure equations, which it exists to check.

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
# how often each stored entry occurs among the 9 components
_MULTIPLICITY = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])


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


def _sym(T: np.ndarray) -> np.ndarray:
    """Node-major symmetric tensors (n_r, n, 3, 3) -> symmetric storage (n_r, 6, n)."""
    return np.ascontiguousarray(np.moveaxis(T[..., _I, _J], -1, 1))


def _full(s: np.ndarray) -> np.ndarray:
    """Symmetric storage (n_r, 6, n) -> node-major tensors (n_r, n, 3, 3)."""
    return np.ascontiguousarray(np.moveaxis(s[:, _PAIR], -1, 1))


def _join(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array re + i im, each part copied exactly."""
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _coeffs_over_r(grid: LabGrid, f: np.ndarray) -> np.ndarray:
    """Harmonic coefficients (n_r, C, n_modes) of real samples (n_r, C, n),
    divided by r: one analysis of the n_r C rows as one batch."""
    n_r, c, n = f.shape
    coeffs = grid.calc.coeffs(f.reshape(n_r * c, n)).reshape(n_r, c, -1)
    coeffs /= grid.r[:, None, None]
    return coeffs


def _cartesian(calc: SphereCalc, coeffs: np.ndarray, df_dr: np.ndarray) -> np.ndarray:
    """Cartesian gradient (n_r, C, 3, n) from the coefficients over r (n_r, C,
    n_modes) and the radial derivative (n_r, C, n): one synthesis against all
    three rows of calc.grad_table, plus normal_k times the radial derivative."""
    n_r, c, n_modes = coeffs.shape
    table = np.moveaxis(calc.grad_table, 0, 1).reshape(n_modes, -1)  # a view
    out = (coeffs.reshape(n_r * c, n_modes) @ table).reshape(n_r, c, 3, -1)
    for k in range(3):  # one axis at a time: no (n_r, C, 3, n) temporary
        out[:, :, k] += df_dr * calc.normal[:, k]
    return out


def _gradient(grid: LabGrid, f: np.ndarray) -> np.ndarray:
    """Cartesian gradient of component-major samples: (n_r, C, n) -> (n_r, C, 3, n).

    Complex samples go through the stencil and the transforms as one real
    batch of 2C components, the real parts then the imaginary parts, joined
    back afterwards.
    """
    if np.iscomplexobj(f):
        c = f.shape[1]
        g = _gradient(grid, np.concatenate([f.real, f.imag], axis=1))
        return _join(g[:, :c], g[:, c:])
    f = np.ascontiguousarray(f)  # rows of unit stride, as the transforms' BLAS products need
    return _cartesian(grid.calc, _coeffs_over_r(grid, f), apply_radial(f, grid.h, 1))


def _symmetric_part(g: np.ndarray) -> np.ndarray:
    """(g_ij + g_ji) / 2 in symmetric storage (n_r, 6, n) of (n_r, 3, 3, n)."""
    return 0.5 * (g[:, _I, _J] + g[:, _J, _I])


def gradient_scalar(grid: LabGrid, f: np.ndarray) -> np.ndarray:
    """Cartesian gradient of scalar samples (n_r, n) -> (n_r, n, 3)."""
    return gradient_components(grid, f)


def gradient_components(grid: LabGrid, field: np.ndarray) -> np.ndarray:
    """Componentwise Cartesian gradient: (n_r, n, *c) -> (n_r, n, *c, 3)."""
    n_r, n = grid.n_r, grid.calc.n_nodes
    g = _gradient(grid, np.moveaxis(field.reshape(n_r, n, -1), -1, 1))
    return np.moveaxis(g, -1, 1).reshape(n_r, n, *field.shape[2:], 3)


def _inverse_sym3(g: np.ndarray):
    """Inverse and determinant of symmetric 3 x 3 samples in symmetric
    storage (..., 6, n): the inverse in symmetric storage and det (..., n).

    The adjugate over the determinant: rational in the entries, so a complex
    step through it stays analytic.  Raises ValueError before dividing where
    Re det <= 0.
    """
    a, b, c, d, e, f = np.moveaxis(g, -2, 0)
    cof = np.stack(
        [d * f - e * e, c * e - b * f, b * e - c * d, a * f - c * c, b * c - a * e, a * d - b * b],
        axis=-2,
    )
    det = a * cof[..., 0, :] + b * cof[..., 1, :] + c * cof[..., 2, :]
    if np.any(det.real <= 0):
        raise ValueError("metric lost positive definiteness")
    return cof / det[..., None, :], det


def _lowering_matrix() -> np.ndarray:
    """The 18 x 18 map from d_k g_(q), row 3 q + k, to Gamma_b(ij), row 6 b + p
    for p = (i, j): 1/2 (d_i g_bj + d_j g_bi - d_b g_ij)."""
    lower = np.zeros((3, 6, 6, 3))  # [b, p, q, k]
    for b in range(3):
        for p, (i, j) in enumerate(zip(_I, _J)):
            lower[b, p, _PAIR[b, j], i] += 0.5
            lower[b, p, _PAIR[b, i], j] += 0.5
            lower[b, p, p, b] -= 0.5
    return lower.reshape(18, 18)


_LOWER = _lowering_matrix()


def _christoffel(grid: LabGrid, g: np.ndarray):
    """Gamma^a_(ij) (n_r, a, 6, n) and the inverse metric (n_r, 6, n) of
    metric samples g_(ij) (n_r, 6, n).

    The gradient of g is one real batch, the real parts then any imaginary
    parts, and each part is lowered by one product with _LOWER.
    """
    ginv, _ = _inverse_sym3(g)
    n_r, _, n = g.shape
    complex_ = np.iscomplexobj(g)
    dg = _gradient(grid, np.concatenate([g.real, g.imag], axis=1) if complex_ else g)
    lower = np.matmul(_LOWER, dg.reshape(n_r, -1, 18, n))  # [:, part, 6 b + p]
    lower = (_join(lower[:, 0], lower[:, 1]) if complex_ else lower[:, 0]).reshape(n_r, 3, 6, n)
    return np.einsum("rabn,rbpn->rapn", ginv[:, _PAIR], lower), ginv


def _trace(gamma: np.ndarray) -> np.ndarray:
    """Gamma^a_aj (n_r, 3, n) of Gamma^a_(ij) (n_r, a, 6, n); the same for
    their coefficients or derivatives, (n_r, a, 6, k) -> (n_r, 3, k)."""
    return gamma[:, 0, _PAIR[0]] + gamma[:, 1, _PAIR[1]] + gamma[:, 2, _PAIR[2]]


def _ricci_linear(grid: LabGrid, gamma: np.ndarray) -> np.ndarray:
    """d_a Gamma^a_ij - d_(i Gamma^a_|a|j) (n_r, 6, n) of real Gamma^a_(ij) (n_r, a, 6, n).

    The 18 Gamma^a_(ij) are analysed and stenciled once, as one real batch.
    Block a is synthesized along direction a alone, row a of
    calc.grad_table, which is all the divergence reads.  The trace
    Gamma^a_aj is linear, so its coefficients and radial derivative are the
    traces of those of the Christoffels, and only the trace gets a full
    Cartesian gradient.
    """
    calc = grid.calc
    n_r, _, _, n = gamma.shape
    gamma = np.ascontiguousarray(gamma)
    coeffs = _coeffs_over_r(grid, gamma.reshape(n_r, 18, n)).reshape(n_r, 3, 6, -1)
    dr = apply_radial(gamma, grid.h, 1)
    by_a = np.ascontiguousarray(np.moveaxis(coeffs, 1, 0)).reshape(3, n_r * 6, -1)
    div = np.matmul(by_a, calc.grad_table).sum(axis=0).reshape(n_r, 6, n)
    div += np.einsum("rapn,an->rpn", dr, calc.normal.T)
    dtrace = _cartesian(calc, _trace(coeffs), _trace(dr))
    return div - _symmetric_part(dtrace)  # [:, j, i] = d_i tr_j


def _gamma_products(g1: np.ndarray, g2: np.ndarray):
    """The halves of the real bilinear form B(g1, g2) of Gamma^a_(ij) (n_r, a,
    6, n): tr(g1)_b g2^b_(ij) (n_r, 6, n) and X_ij = g1^a_ib g2^b_aj
    (n_r, 3, 3, n), which is symmetric only when g1 = g2."""
    trace = np.einsum("rbn,rbpn->rpn", _trace(g1), g2)
    return trace, np.einsum("raibn,rbajn->rijn", g1[:, :, _PAIR], g2[:, :, _PAIR])


def _bilinear(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """B(g1, g2) = tr(g1)_b g2^b_ij - g1^a_ib g2^b_aj on the stored (i, j);
    B(Gamma, Gamma) = Gamma^a_ab Gamma^b_ij - Gamma^a_ib Gamma^b_aj."""
    trace, x = _gamma_products(g1, g2)
    return trace - x[:, _I, _J]


def _bilinear_sym(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """B(re, im) + B(im, re): the X of B(im, re) is the transpose of that of
    B(re, im), so one contraction serves both."""
    trace, x = _gamma_products(re, im)
    trace += np.einsum("rbn,rbpn->rpn", _trace(im), re)
    return trace - (x[:, _I, _J] + x[:, _J, _I])


def _ricci_quadratic(gamma: np.ndarray) -> np.ndarray:
    """Gamma^a_ab Gamma^b_ij - Gamma^a_ib Gamma^b_aj (n_r, 6, n) of Gamma^a_(ij)
    (n_r, a, 6, n): B(Re, Re) - B(Im, Im) + i (B(Re, Im) + B(Im, Re))."""
    if not np.iscomplexobj(gamma):
        return _bilinear(gamma, gamma)
    re, im = gamma.real, gamma.imag
    return _join(_bilinear(re, re) - _bilinear(im, im), _bilinear_sym(re, im))


def _ricci(grid: LabGrid, g: np.ndarray):
    """Ric_(ij) (n_r, 6, n), Gamma^a_(ij) and the inverse metric of g_(ij) (n_r, 6, n)."""
    gamma, ginv = _christoffel(grid, g)
    linear = _ricci_linear(grid, gamma.real)
    if np.iscomplexobj(gamma):
        linear = _join(linear, _ricci_linear(grid, gamma.imag))
    return linear + _ricci_quadratic(gamma), gamma, ginv


def ricci_tensor(grid: LabGrid, G: np.ndarray):
    """Ricci tensor (n_r, n, 3, 3) of metric samples, the Christoffels
    (n_r, n, a, i, j) and the inverse metric.

    Ric_ij = d_a Gamma^a_ij - d_(i Gamma^a_|a|j) + Gamma^a_ab Gamma^b_ij
    - Gamma^a_ib Gamma^b_aj: only the divergence of the Christoffels and the
    gradient of their trace are formed, never the full gradient, and the
    linear terms are taken on the real and imaginary parts separately.
    """
    ric, gamma, ginv = _ricci(grid, _sym(G))
    gamma = np.ascontiguousarray(np.moveaxis(gamma[:, :, _PAIR], -1, 1))
    return _full(ric), gamma, _full(ginv)


def _check_metric(G: np.ndarray):
    try:
        np.linalg.cholesky(G.real)
    except np.linalg.LinAlgError as exc:
        raise ValueError("metric not positive definite at some node") from exc


def _potential_terms(grid: LabGrid, gamma: np.ndarray, ginv: np.ndarray, U: np.ndarray):
    """2 du (x) du (n_r, 6, n) and Lap_g u (n_r, n) of potential samples
    U (n_r, n), given Gamma^a_(ij) and the inverse metric."""
    du = _gradient(grid, U[:, None])[:, 0]  # (n_r, i, n)
    hess = _symmetric_part(_gradient(grid, du)) - np.einsum("rapn,ran->rpn", gamma, du)
    return 2.0 * du[:, _I] * du[:, _J], np.einsum("rpn,rpn,p->rn", ginv, hess, _MULTIPLICITY)


def conformal_static_residual(grid: LabGrid, G: np.ndarray, U: np.ndarray):
    """(Ric_g - 2 du (x) du, Lap_g u) on the grid.

    G holds the metric components (n_r, n, 3, 3); raises ValueError if the
    metric loses positive definiteness.
    """
    _check_metric(G)
    ric, gamma, ginv = _ricci(grid, _sym(G))
    dudu, lap = _potential_terms(grid, gamma, ginv, U)
    return _full(ric - dudu), lap


_EDGE_ROWS = 7  # the boundary rows sit on row 0, whose fd.apply_radial edge block reads f[:7]


def boundary_data(grid: LabGrid, G: np.ndarray, U: np.ndarray):
    """Transformed boundary rows at r = r0.

    Returns (tau, h): tau are frame components of e^(-2u) g restricted to the
    boundary sphere, h = e^u (H_g - 2 nu(u)) with nu the g-unit normal of the
    foliation pointing to infinity and H_g its g-divergence.  The rows read
    the first 7 radii only, the reach of row 0's one-sided stencil, so they
    are the same, bit for bit, on any grid that shares those radii.
    """
    calc = grid.calc
    grid = LabGrid(grid.params, calc, grid.r[:_EDGE_ROWS])
    G, U = G[:_EDGE_ROWS], U[:_EDGE_ROWS]
    normal = calc.normal.T
    ginv, det = _inverse_sym3(_sym(G))
    raw = np.einsum("rijn,jn->rin", ginv[:, _PAIR], normal)
    nu = raw / np.sqrt(np.einsum("rin,in->rn", raw, normal))[:, None]

    # one gradient of (nu^i, log(det) / 2, u), read on row 0
    d = _gradient(grid, np.concatenate([nu, 0.5 * np.log(det)[:, None], U[:, None]], axis=1))[0]
    div = d[0, 0] + d[1, 1] + d[2, 2]
    div += nu[0, 0] * d[3, 0] + nu[0, 1] * d[3, 1] + nu[0, 2] * d[3, 2]
    nu_u = nu[0, 0] * d[4, 0] + nu[0, 1] * d[4, 1] + nu[0, 2] * d[4, 2]
    h_row = np.exp(U[0]) * (div - 2.0 * nu_u)

    r0, m = grid.params.r0, grid.params.m
    _, _, tau = calc.adapted_components(G[0], r0 / np.sqrt(r0 * (r0 - 2.0 * m)))
    tau = np.exp(-2.0 * U[0])[:, None, None] * tau
    return tau, h_row


_H = 1e-20  # complex step: no cancellation, so it need not balance truncation


@dataclass
class LinearizedLc:
    """Directional derivative of the conformal static boundary-value map."""

    ric_row: np.ndarray  # (n_r, n, 3, 3)
    lap_row: np.ndarray  # (n_r, n)
    boundary_tau: np.ndarray  # (n, 2, 2) frame components
    boundary_h: np.ndarray  # (n,)


def linearize_at_schwarzschild(grid: LabGrid, direction: DeformationField) -> LinearizedLc:
    """Complex-step directional linearization at the background pair.

    The samples are the background plus i h times the direction.  Only the
    imaginary parts of the rows are read, so the Ricci tensor's linear terms
    are taken on Im Gamma alone and its Gamma Gamma terms as B(Re, Im) +
    B(Im, Re) alone (see the module docstring); the Christoffels, the
    potential rows and the boundary rows are the complex evaluation of
    conformal_static_residual and boundary_data.  The real part is the
    background, so the Cholesky check is not repeated; the cofactor inverse
    still refuses Re det <= 0.
    """
    G0, U0 = schwarzschild_samples(grid)
    G = G0 + 1j * _H * direction.cartesian(grid.r)
    U = U0 + 1j * _H * direction.u(grid.r)
    gamma, ginv = _christoffel(grid, _sym(G))
    ric = _ricci_linear(grid, gamma.imag) + _bilinear_sym(gamma.real, gamma.imag)
    dudu, lap = _potential_terms(grid, gamma, ginv, U)
    tau, h_row = boundary_data(grid, G, U)
    return LinearizedLc(
        _full(ric - dudu.imag) / _H, lap.imag / _H, tau.imag / _H, h_row.imag / _H
    )


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
