"""Constructive global transverse gauge for metric deformations.

Given a deformation g~ of the conformal background, there is a unique vector
field X vanishing on the boundary sphere such that g~ + L_X g_sc has no
radial components anywhere.  The normal component is a radial integral,

    X_perp(r, theta) = -1/2 int_{r0}^{r} g~(dr, dr)(s, theta) ds,

and each tangential frame component w_A = g_sc(X, e_A) solves the linear ODE

    w_A' - (H_sc/2) w_A = -g~(dr, e_A) - e_A(X_perp),   w_A(r0) = 0,

which uses that the constant-r spheres are umbilic with second fundamental
form (H_sc/2) gamma_sc and that the frame {e_A} is radially parallel.

X_perp is built by composite 4-point Gauss quadrature per radial cell; the
tangential ODE runs through the same adaptive integrator family as the mode
module.  Both components evaluate at arbitrary radii, so the verification in
apply_gauge can differentiate X with small independent stencils instead of
reusing the construction identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .background import SchwarzschildParams, background_at, conformal_metric_cartesian
from .fd import stencil_coefficients
from .sphere_ops import SphereCalc

__all__ = [
    "GaugeVectorField",
    "build_gauge_field",
    "apply_gauge",
    "GaugedDeformation",
    "schwarzschild_cartesian",
    "flow_lie_derivative",
    "FlowLieDeformation",
]

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)


def _gauss_cell(rr, a: float, b: float) -> np.ndarray:
    """4-point Gauss rule for int_a^b rr(s) ds on node samples."""
    nodes = a + (b - a) * 0.5 * (_GAUSS_X + 1.0)
    w = 0.5 * (b - a) * _GAUSS_W
    return sum(wi * rr(float(s)) for s, wi in zip(nodes, w))


def schwarzschild_cartesian(params: SchwarzschildParams, x: np.ndarray) -> np.ndarray:
    """Cartesian components of the conformal background metric at points x."""
    r = np.linalg.norm(x, axis=-1)
    return conformal_metric_cartesian(params, r, x / r[..., None])


@dataclass
class GaugeVectorField:
    """Boundary-vanishing gauge vector with evaluable components.

    x_perp(r) and x_tan(r) return node samples of the normal component and
    the tangential frame components; cartesian(r) assembles the full vector.
    """

    params: SchwarzschildParams
    calc: SphereCalc
    r0: float
    r1: float
    _cells: np.ndarray
    _cum: np.ndarray  # (n_cells + 1, n_nodes) cumulative -1/2 integrals
    _rr: object  # callable r -> (n,)
    _tan_sol: object  # dense ODE solution

    def x_perp(self, r: float) -> np.ndarray:
        if r < self.r0 - 1e-12 or r > self.r1 + 1e-9:
            raise ValueError("radius outside the gauge window")
        idx = min(int((r - self.r0) / (self._cells[1] - self._cells[0])),
                  len(self._cells) - 2)
        return self._cum[idx] - 0.5 * _gauss_cell(self._rr, self._cells[idx], r)

    def x_tan(self, r: float) -> np.ndarray:
        return self._tan_sol(r).reshape(self.calc.n_nodes, 2)

    def e_a_x_perp(self, r: float) -> np.ndarray:
        """Frame components of the tangential derivative of x_perp."""
        rho = np.sqrt(r * (r - 2.0 * self.params.m))
        return self.calc.grad_scalar_frame(self.x_perp(r)) / rho

    def cartesian(self, r: float) -> np.ndarray:
        calc = self.calc
        rho = np.sqrt(r * (r - 2.0 * self.params.m))
        return self.x_perp(r)[:, None] * calc.normal + calc.frame_to_cart_covector(
            self.x_tan(r), r / rho
        )

    def boundary_norm(self) -> float:
        return float(
            max(np.abs(self.x_perp(self.r0)).max(), np.abs(self.x_tan(self.r0)).max())
        )


def build_gauge_field(
    gt,
    params: SchwarzschildParams,
    calc: SphereCalc,
    r1: float | None = None,
    n_cells: int = 48,
    rtol: float = 1e-12,
    atol: float = 1e-14,
) -> GaugeVectorField:
    """Solve for the unique boundary-vanishing gauge vector of a deformation.

    gt must expose rr(r) and ra(r) returning node samples of the radial
    components in the adapted frame (DeformationField does).
    """
    r0 = params.r0
    if r1 is None:
        r1 = 4.0 * r0
    cells = np.linspace(r0, r1, n_cells + 1)
    n = calc.n_nodes

    cum = np.zeros((n_cells + 1, n))
    for i in range(n_cells):
        cum[i + 1] = cum[i] - 0.5 * _gauss_cell(gt.rr, cells[i], cells[i + 1])

    field = GaugeVectorField(
        params=params, calc=calc, r0=r0, r1=r1,
        _cells=cells, _cum=cum, _rr=gt.rr, _tan_sol=None,
    )

    def rhs(r, y):
        bg = background_at(params, r)
        w = y.reshape(n, 2)
        src = gt.ra(r) + field.e_a_x_perp(r)
        return (0.5 * bg.H_sc * w - src).ravel()

    sol = solve_ivp(
        rhs, (r0, r1), np.zeros(2 * n), method="DOP853",
        rtol=rtol, atol=atol, dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(f"tangential gauge ODE failed: {sol.message}")
    field._tan_sol = sol.sol
    return field


@dataclass
class GaugedDeformation:
    """Grid samples of a gauge-transformed deformation with residuals."""

    r: np.ndarray
    ab: np.ndarray  # (n_r, n, 2, 2) tangential frame components
    u: np.ndarray  # (n_r, n)
    rr_residual: np.ndarray
    ra_residual: np.ndarray
    lie_cart: np.ndarray  # (n_r, n, 3, 3) the Lie-derivative samples used

    @property
    def max_radial_residual(self) -> float:
        return float(max(np.abs(self.rr_residual).max(), np.abs(self.ra_residual).max()))

    @property
    def global_geodesic_gauge(self) -> bool:
        return self.max_radial_residual <= 1e-8


def _metric_gradient_cart(params: SchwarzschildParams, calc: SphereCalc, r: float):
    """Analytic d_k g_ij of the conformal background at radius r."""
    n, proj = calc.normal, calc.projector
    fac = 1.0 - 2.0 * params.m / r
    dfac = 2.0 * params.m / r**2
    out = dfac * np.einsum("nk,nij->nkij", n, proj)
    sym = np.einsum("nki,nj->nkij", proj, n)
    out += (1.0 - fac) / r * (sym + np.swapaxes(sym, -1, -2))
    return out


def _vector_gradient(X: GaugeVectorField, r: float, h: float, xc: np.ndarray) -> np.ndarray:
    """Cartesian gradient d_i X^k at radius r from small independent stencils.

    xc is X.cartesian(r), the stencil's centre sample.
    """
    calc, lo, hi = X.calc, X.r0, X.r1
    offsets = np.arange(-2, 3)
    if r - 2 * h < lo:
        offsets = np.arange(0, 5)
    elif r + 2 * h > hi:
        offsets = np.arange(-4, 1)
    coeff = stencil_coefficients(offsets, 1) / h
    dr = sum(c * (xc if o == 0 else X.cartesian(r + o * h)) for c, o in zip(coeff, offsets))

    dt, dp = calc.angular_derivatives(np.moveaxis(xc, -1, 0))
    dang = np.einsum("ni,kn->nik", calc.theta_hat, dt) / r
    dang += np.einsum("ni,kn->nik", calc.phi_hat, dp / calc.sin_theta) / r
    return np.einsum("ni,nk->nik", calc.normal, dr) + dang


def apply_gauge(gt, X: GaugeVectorField, r_nodes: np.ndarray) -> GaugedDeformation:
    """Form g~ + L_X g_sc and u~ + X(u_sc) on radial nodes and audit the gauge.

    The Lie derivative is assembled from independently differentiated samples
    of X (small radial stencils on the evaluable field, spectral tangential
    derivatives), not from the defining ODE, so the reported radial residuals
    measure the construction end to end.
    """
    params, calc = X.params, X.calc
    r_nodes = np.asarray(r_nodes, dtype=float)
    n = calc.n_nodes
    h = 3e-4 * (X.r1 - X.r0)

    ab = np.empty((len(r_nodes), n, 2, 2))
    u = np.empty((len(r_nodes), n))
    rr_res = np.empty((len(r_nodes), n))
    ra_res = np.empty((len(r_nodes), n, 2))
    lie_all = np.empty((len(r_nodes), n, 3, 3))

    for i, r in enumerate(r_nodes):
        bg = background_at(params, r)
        g = conformal_metric_cartesian(params, r, calc.normal)
        dg = _metric_gradient_cart(params, calc, r)
        xc = X.cartesian(r)
        dX = _vector_gradient(X, r, h, xc)
        lie = np.einsum("nk,nkij->nij", xc, dg)
        mixed = np.einsum("nkj,nik->nij", g, dX)
        lie += mixed + np.swapaxes(mixed, -1, -2)
        lie_all[i] = lie

        rr_res[i], ra_res[i], ab[i] = calc.adapted_components(
            gt.cartesian(r) + lie, r / np.sqrt(bg.rho2)
        )
        u[i] = gt.u(r) + X.x_perp(r) * bg.du_sc

    return GaugedDeformation(
        r=r_nodes, ab=ab, u=u, rr_residual=rr_res, ra_residual=ra_res,
        lie_cart=lie_all,
    )


def _rk4_flow(y_fn, x0: np.ndarray, t: float, steps: int) -> np.ndarray:
    dt = t / steps
    x = x0.copy()
    for _ in range(steps):
        k1 = y_fn(x)
        k2 = y_fn(x + 0.5 * dt * k1)
        k3 = y_fn(x + 0.5 * dt * k2)
        k4 = y_fn(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


_JAC_OFFS = (-2.0, -1.0, 1.0, 2.0)
_JAC_COEF = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)


def _flow_pullback_factory(y_fn, params, points, steps, jac_h):
    """Returns pullback(t) = (phi_t^* g_sc)(points) with a 4th-order Jacobian."""
    npts = len(points)
    probes = [points]
    for j in range(3):
        for o in _JAC_OFFS:
            shifted = points.copy()
            shifted[:, j] += o * jac_h
            probes.append(shifted)
    stacked = np.concatenate(probes, axis=0)

    def pullback(t):
        flowed = _rk4_flow(y_fn, stacked, t, steps)
        base = flowed[:npts]
        jac = np.zeros((npts, 3, 3))
        for j in range(3):
            for idx, c in enumerate(_JAC_COEF):
                block = flowed[(1 + 4 * j + idx) * npts : (2 + 4 * j + idx) * npts]
                jac[:, :, j] += c / jac_h * block  # d phi^k / d x^j
        gval = schwarzschild_cartesian(params, base)
        return np.einsum("nki,nlj,nkl->nij", jac, jac, gval)

    return pullback


def flow_lie_derivative(
    y_fn,
    params: SchwarzschildParams,
    points: np.ndarray,
    eps: float = 1e-4,
    steps: int = 16,
    jac_h: float = 1e-3,
) -> np.ndarray:
    """Lie derivative of the background metric along Y by flow pullback.

    Finite difference of phi_t^* g_sc in t with one Richardson halving; the
    flow map and its space Jacobian come from fixed-step RK4 runs, so this
    path shares nothing with the gauge ODE construction it cross-checks.
    """
    pullback = _flow_pullback_factory(y_fn, params, points, steps, jac_h)
    d_full = (pullback(eps) - pullback(-eps)) / (2.0 * eps)
    d_half = (pullback(0.5 * eps) - pullback(-0.5 * eps)) / eps
    return (4.0 * d_half - d_full) / 3.0


class FlowLieDeformation:
    """Deformation pair (L_Y g_sc, Y(u_sc)) generated by flow pullback.

    Flow samples are taken once on Chebyshev radial nodes and interpolated
    barycentrically, since the quadrature and ODE drivers downstream request
    thousands of radii; the interpolant of these smooth components converges
    spectrally and stays far below the oracle's own flow-difference error.
    Exposes the part of DeformationField's component interface that the
    gauge construction reads (rr, ra, u, cartesian); rr and ra interpolate
    the table's unit-frame projections, since the projection is linear.
    """

    def __init__(
        self,
        y_fn,
        params: SchwarzschildParams,
        calc: SphereCalc,
        r1: float | None = None,
        n_cheb: int = 33,
        eps: float = 1e-3,
        steps: int = 8,
    ):
        self.y_fn = y_fn
        self.params = params
        self.calc = calc
        r0 = params.r0
        if r1 is None:
            r1 = 4.0 * r0
        j = np.arange(n_cheb)
        x = np.cos(np.pi * j / (n_cheb - 1))
        self._nodes = 0.5 * (r0 + r1) + 0.5 * (r1 - r0) * x[::-1]
        self._bary = np.where(j % 2 == 0, 1.0, -1.0)
        self._bary[0] *= 0.5
        self._bary[-1] *= 0.5
        # all shells stacked into one point set: one flow, one field call
        points = (self._nodes[:, None, None] * calc.normal).reshape(-1, 3)
        lie = flow_lie_derivative(y_fn, params, points, eps=eps, steps=steps)
        self._lie_tab = lie.reshape(n_cheb, -1, 3, 3)
        self._rr_tab, self._ra_tab, _ = calc.adapted_components(self._lie_tab)
        y = y_fn(points).reshape(n_cheb, -1, 3)
        self._yperp_tab = np.einsum("sni,ni->sn", y, calc.normal)

    def _interp(self, tab: np.ndarray, r: float) -> np.ndarray:
        d = r - self._nodes
        hit = np.argmin(np.abs(d))
        if abs(d[hit]) < 1e-13:
            return tab[hit]
        w = self._bary / d
        return np.tensordot(w, tab, axes=(0, 0)) / w.sum()

    def cartesian(self, r: float) -> np.ndarray:
        return self._interp(self._lie_tab, r)

    def rr(self, r: float) -> np.ndarray:
        return self._interp(self._rr_tab, r)

    def ra(self, r: float) -> np.ndarray:
        rho = np.sqrt(r * (r - 2.0 * self.params.m))
        return self._interp(self._ra_tab, r) * (r / rho)

    def u(self, r: float) -> np.ndarray:
        bg = background_at(self.params, r)
        return self._interp(self._yperp_tab, r) * bg.du_sc
