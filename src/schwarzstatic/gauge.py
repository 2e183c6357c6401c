"""Constructive global transverse gauge for metric deformations.

Given a deformation g~ of the conformal background, there is a unique vector
field X vanishing on the boundary sphere such that g~ + L_X g_sc has no
radial components anywhere.  The normal component is a radial integral,

    X_perp(r, theta) = -1/2 int_{r0}^{r} g~(dr, dr)(s, theta) ds,

and each tangential frame component w_A = g_sc(X, e_A) solves the linear ODE

    w_A' - (H_sc/2) w_A = -src_A,   src_A = g~(dr, e_A) + e_A(X_perp),   w_A(r0) = 0,

which uses that the constant-r spheres are umbilic with second fundamental
form (H_sc/2) gamma_sc and that the frame {e_A} is radially parallel.  Its
coefficient is exactly a logarithmic derivative, H_sc/2 = (r-m)/(r(r-2m)) =
rho'/rho with rho = sqrt(r(r-2m)), so rho is an integrating factor and

    w_A(r) = -rho(r) int_{r0}^{r} src_A(s) / rho(s) ds.

Both components are therefore quadratures, and both are linear in g~.  The
deformation hands over each radial component in separated form,
g~(dr, dr) = sum_j b_j(r) S_j and g~(dr, e_A) = sum_k c_k(r) W_k, so that

    X_perp = P(r) @ S,   P_j(r) = -1/2 int_{r0}^{r} b_j,
    w_A    = -rho(r) T(r) @ [W; grad S],
    T(r)   = int_{r0}^{r} [c / rho, P / rho^2],

with grad S the frame gradients of the shapes S, taken once per field.
Only the scalar coefficient functions P and T are integrated, both by
fd.cumulative_integral over one grid of radial cells; the tangential
integrand reads P at its Gauss nodes from P's own cumulative integral.
Every evaluator takes a scalar radius or an array of radii.

apply_gauge differentiates X independently of these identities, with small
radial stencils on the evaluable field and spectral tangential derivatives,
so its audit measures the construction end to end.

flow_lie_derivative is the oracle for uniqueness: it forms L_Y g_sc for a
closed-form field Y from the pullback of g_sc along one RK4 step of Y's flow
per flow time, with difference Jacobians and no derivative of Y, and
FlowLieDeformation tabulates it on Chebyshev shells so that the gauge built
from it can be checked to be X = -Y.  The flow time (1e-3) and the shells
(33 of them on [r0, 4 r0]) are module constants.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .background import SchwarzschildParams, background_at, conformal_metric_cartesian
from .fd import cumulative_integral, stencil_coefficients
from .sphere_ops import SphereCalc

__all__ = [
    "GEODESIC_GAUGE_TOL",
    "GaugeVectorField",
    "build_gauge_field",
    "apply_gauge",
    "GaugedDeformation",
    "schwarzschild_cartesian",
    "flow_lie_derivative",
    "FlowLieDeformation",
]

# largest radial residual of apply_gauge's audit that certifies the gauge
GEODESIC_GAUGE_TOL = 1e-8


def schwarzschild_cartesian(params: SchwarzschildParams, x: np.ndarray) -> np.ndarray:
    """Cartesian components of the conformal background metric at points x."""
    r = np.linalg.norm(x, axis=-1)
    return conformal_metric_cartesian(params, r, x / r[..., None])


def _rho(params: SchwarzschildParams, r):
    return np.sqrt(r * (r - 2.0 * params.m))


@dataclass
class GaugeVectorField:
    """Boundary-vanishing gauge vector with evaluable components.

    x_perp(r) and x_tan(r) return node samples of the normal component and
    the tangential frame components; cartesian(r) assembles the full vector.
    Each takes a scalar radius or an array of radii in [r0, r1], which add
    leading axes: x_perp gives r.shape + (n,), x_tan r.shape + (n, 2) and
    cartesian r.shape + (n, 3).
    """

    params: SchwarzschildParams
    calc: SphereCalc
    r0: float
    r1: float
    _perp: object  # callable radii -> P(r), r.shape + (J,)
    _tan: object  # callable radii -> T(r), r.shape + (K + J,)
    _perp_shapes: np.ndarray  # (J, n) rr shapes S_j
    _tan_shapes: np.ndarray  # (K + J, n, 2) ra shapes W_k, then frame gradients of S_j

    def _radii(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if not np.all((r >= self.r0 - 1e-12) & (r <= self.r1 + 1e-9)):
            raise ValueError("radius outside the gauge window")
        return r

    def x_perp(self, r) -> np.ndarray:
        return self._perp(self._radii(r)) @ self._perp_shapes

    def x_tan(self, r) -> np.ndarray:
        r = self._radii(r)
        w = np.tensordot(self._tan(r), self._tan_shapes, axes=1)
        return -_rho(self.params, r)[..., None, None] * w

    def cartesian(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return self.x_perp(r)[..., None] * self.calc.normal + self.calc.frame_to_cart_covector(
            self.x_tan(r), r / _rho(self.params, r)
        )


def build_gauge_field(
    gt,
    params: SchwarzschildParams,
    calc: SphereCalc,
    r1: float | None = None,
    n_cells: int = 48,
    rtol: float | None = None,
    atol: float | None = None,
) -> GaugeVectorField:
    """Tabulate the unique boundary-vanishing gauge vector of a deformation.

    gt must expose separated(component) for "rr" and "ra", returning
    (basis, shapes) with g~(dr, dr) = basis(r) @ shapes in the adapted frame
    (and likewise g~(dr, e_A)), basis(r) of shape r.shape + (J,) and shapes
    of shape (J, n) or (J, n, 2); DeformationField and FlowLieDeformation do.
    The window [r0, r1] (r1 defaults to 4 r0) is split into n_cells equal
    cells.  A deformation known only out to some radius names it as gt.r1
    (FlowLieDeformation: its last shell, 4 r0); a window reaching past it
    raises ValueError here, once, rather than letting the quadrature read
    an extrapolation.  rtol and atol are accepted for old callers and
    ignored: both components are quadratures with no solver tolerance.
    """
    for name, value in (("rtol", rtol), ("atol", atol)):
        if value is not None:
            warnings.warn(
                f"build_gauge_field: {name} has no effect (the gauge vector is a"
                " quadrature on n_cells cells); stop passing it",
                DeprecationWarning,
                stacklevel=2,
            )
    if not isinstance(n_cells, numbers.Integral) or n_cells < 1:
        raise ValueError(f"n_cells must be a positive integer, got {n_cells!r}")
    r0 = params.r0
    if r1 is None:
        r1 = 4.0 * r0
    if not (np.isfinite(r1) and r1 > r0):
        raise ValueError(f"need a finite r1 > r0 = {r0}, got r1={r1}")
    known = getattr(gt, "r1", np.inf)
    if r1 > known:
        raise ValueError(f"r1={r1} lies beyond the deformation's outer radius {known}")

    rr_basis, rr_shapes = gt.separated("rr")
    ra_basis, ra_shapes = gt.separated("ra")
    cells = np.linspace(r0, r1, n_cells + 1)
    perp = cumulative_integral(lambda s: -0.5 * rr_basis(s), cells)

    def tan_integrand(s):
        """[c / rho, P / rho^2] at radii s, the coefficients of src_A / rho."""
        rho = _rho(params, s)[..., None]
        return np.concatenate([ra_basis(s) / rho, perp(s) / rho**2], axis=-1)

    return GaugeVectorField(
        params=params, calc=calc, r0=r0, r1=r1,
        _perp=perp, _tan=cumulative_integral(tan_integrand, cells),
        _perp_shapes=rr_shapes,
        _tan_shapes=np.concatenate([ra_shapes, calc.grad_scalar_frame(rr_shapes)]),
    )


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


def _metric_gradient_cart(params: SchwarzschildParams, calc: SphereCalc, r: np.ndarray):
    """Analytic d_k g_ij of the conformal background at radii r, (n_r, n, 3, 3, 3)."""
    n, proj = calc.normal, calc.projector
    r = r[:, None, None, None, None]
    fac = 1.0 - 2.0 * params.m / r
    dfac = 2.0 * params.m / r**2
    out = dfac * np.einsum("nk,nij->nkij", n, proj)
    sym = np.einsum("nki,nj->nkij", proj, n)
    out += (1.0 - fac) / r * (sym + np.swapaxes(sym, -1, -2))
    return out


# 5-point first-derivative stencils: one-sided at the window's lower end,
# centred inside, one-sided at its upper end
_STENCIL_OFFSETS = np.array([np.arange(0, 5), np.arange(-2, 3), np.arange(-4, 1)])
_STENCIL_COEFFS = np.array([stencil_coefficients(o, 1) for o in _STENCIL_OFFSETS])


def _vector_gradient(X: GaugeVectorField, r: np.ndarray, h: float):
    """Samples X.cartesian(r) and the Cartesian gradient d_i X^k at radii r.

    One X.cartesian call covers every radius and its radial stencil; a
    stencil that would leave the window [r0, r1] turns one-sided.
    """
    calc = X.calc
    kind = np.where(r - 2 * h < X.r0, 0, np.where(r + 2 * h > X.r1, 2, 1))
    offsets, coeff = _STENCIL_OFFSETS[kind], _STENCIL_COEFFS[kind] / h
    samples = X.cartesian(r[:, None] + offsets * h)  # (n_r, 5, n, 3)
    xc = samples[np.arange(len(r)), (offsets == 0).argmax(axis=1)]
    dr = sum(coeff[:, k, None, None] * samples[:, k] for k in range(offsets.shape[1]))

    dt, dp = calc.angular_derivatives(np.moveaxis(xc, -1, 0))
    r_col = r[:, None, None, None]
    dang = np.einsum("ni,krn->rnik", calc.theta_hat, dt) / r_col
    dang += np.einsum("ni,krn->rnik", calc.phi_hat, dp / calc.sin_theta) / r_col
    return xc, np.einsum("ni,rnk->rnik", calc.normal, dr) + dang


def apply_gauge(gt, X: GaugeVectorField, r_nodes: np.ndarray) -> GaugedDeformation:
    """Form g~ + L_X g_sc and u~ + X(u_sc) on radial nodes and audit the gauge.

    The Lie derivative is assembled from independently differentiated samples
    of X (small radial stencils on the evaluable field, spectral tangential
    derivatives), not from the defining quadratures, so the reported radial
    residuals measure the construction end to end.  All radii go through one
    batched evaluation of X, gt and the background.
    """
    params, calc = X.params, X.calc
    r = np.asarray(r_nodes, dtype=float)
    h = 3e-4 * (X.r1 - X.r0)

    bg = background_at(params, r)
    g = conformal_metric_cartesian(params, r[:, None], calc.normal)
    dg = _metric_gradient_cart(params, calc, r)
    xc, dX = _vector_gradient(X, r, h)
    lie = np.einsum("rnk,rnkij->rnij", xc, dg)
    mixed = np.einsum("rnkj,rnik->rnij", g, dX)
    lie += mixed + np.swapaxes(mixed, -1, -2)

    rr_res, ra_res, ab = calc.adapted_components(
        gt.cartesian(r) + lie, r / np.sqrt(bg.rho2)
    )
    u = gt.u(r) + X.x_perp(r) * bg.du_sc[:, None]
    return GaugedDeformation(
        r=r, ab=ab, u=u, rr_residual=rr_res, ra_residual=ra_res, lie_cart=lie,
    )


# 4-point central difference for the flow map's space Jacobian
_JAC_H = 1e-3
_JAC_OFFS = (-2.0, -1.0, 1.0, 2.0)
_JAC_COEF = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)
# flow time of the pullback difference
_FLOW_EPS = 1e-3
# FlowLieDeformation's Chebyshev shells on [r0, _FLOW_R1 * r0]
_FLOW_SHELLS = 33
_FLOW_R1 = 4.0


def flow_lie_derivative(
    y_fn,
    params: SchwarzschildParams,
    points: np.ndarray,
) -> np.ndarray:
    """Lie derivative of the background metric along Y by flow pullback.

    Finite difference of phi_t^* g_sc in t at t = +-eps and +-eps/2 with one
    Richardson halving, eps = _FLOW_EPS.  The flow map phi_t is one
    classical RK4 step of dx/dt = Y(x) from each point and from its 12
    Jacobian probes (4-point differences with spacing _JAC_H along each
    axis), so this path uses no derivative of Y and shares nothing with the
    gauge quadratures it cross-checks.  The first stage Y(probes) is the
    same for every t, which leaves 13 calls of y_fn, each on all 13 * N
    probes at once.

    One step is enough: its local error O(eps^5) becomes O(eps^4), about
    1e-12 at eps = 1e-3, after the difference in t.  The floor is roundoff,
    about ulp(|x|) / (_JAC_H * eps), near 1e-8 for |x| ~ 12 at eps = 1e-3;
    more RK4 steps per flow time do not lower it.

    points has shape (N, 3); the result has shape (N, 3, 3).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {points.shape}")
    eps = _FLOW_EPS
    npts = len(points)
    probes = [points]
    for j in range(3):
        for o in _JAC_OFFS:
            shifted = points.copy()
            shifted[:, j] += o * _JAC_H
            probes.append(shifted)
    stacked = np.concatenate(probes, axis=0)
    k1 = y_fn(stacked)

    def pullback(t):
        k2 = y_fn(stacked + 0.5 * t * k1)
        k3 = y_fn(stacked + 0.5 * t * k2)
        k4 = y_fn(stacked + t * k3)
        flowed = stacked + t / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        base = flowed[:npts]
        jac = np.zeros((npts, 3, 3))
        for j in range(3):
            for idx, c in enumerate(_JAC_COEF):
                block = flowed[(1 + 4 * j + idx) * npts : (2 + 4 * j + idx) * npts]
                jac[:, :, j] += c / _JAC_H * block  # d phi^k / d x^j
        gval = schwarzschild_cartesian(params, base)
        return np.einsum("nki,nlj,nkl->nij", jac, jac, gval)

    d_full = (pullback(eps) - pullback(-eps)) / (2.0 * eps)
    d_half = (pullback(0.5 * eps) - pullback(-0.5 * eps)) / eps
    return (4.0 * d_half - d_full) / 3.0


class FlowLieDeformation:
    """Deformation pair (L_Y g_sc, Y(u_sc)) generated by flow pullback.

    Flow samples are taken once on _FLOW_SHELLS = 33 Chebyshev radial nodes
    in [r0, 4 r0] and interpolated barycentrically, since the gauge
    quadratures downstream request thousands of radii; the interpolant of
    these smooth components converges spectrally and stays far below the
    oracle's own flow-difference error.  All shells go through one
    flow_lie_derivative call (13 calls of y_fn) and one more y_fn call for
    the Y(u_sc) table.
    The interpolant is sum_j w_j(r) table_j with the normalised barycentric
    weights w_j, so the deformation is already in separated form: cartesian
    and u read the weights, and separated("rr") and separated("ra") return
    them with the table's unit-frame projections as shapes (the projection
    is linear), for a scalar radius or an array of radii.  r1 is the last
    shell: past it the interpolant extrapolates, so build_gauge_field
    refuses a window beyond it.
    """

    def __init__(self, y_fn, params: SchwarzschildParams, calc: SphereCalc):
        r0 = params.r0
        r1 = _FLOW_R1 * r0
        self.r1 = r1
        self.y_fn = y_fn
        self.params = params
        self.calc = calc
        j = np.arange(_FLOW_SHELLS)
        x = np.cos(np.pi * j / (_FLOW_SHELLS - 1))
        self._nodes = 0.5 * (r0 + r1) + 0.5 * (r1 - r0) * x[::-1]
        self._bary = np.where(j % 2 == 0, 1.0, -1.0)
        self._bary[0] *= 0.5
        self._bary[-1] *= 0.5
        # all shells stacked into one point set: one flow
        points = (self._nodes[:, None, None] * calc.normal).reshape(-1, 3)
        lie = flow_lie_derivative(y_fn, params, points)
        self._lie_tab = lie.reshape(_FLOW_SHELLS, -1, 3, 3)
        self._rr_tab, self._ra_tab, _ = calc.adapted_components(self._lie_tab)
        y = y_fn(points).reshape(_FLOW_SHELLS, -1, 3)
        self._yperp_tab = np.einsum("sni,ni->sn", y, calc.normal)

    def _weights(self, r) -> np.ndarray:
        """Normalised barycentric weights at radii r, shape r.shape + (_FLOW_SHELLS,).

        A radius within 1e-13 of a node gets that node's unit weight, so the
        interpolant takes the node's sample exactly.
        """
        r = np.asarray(r, dtype=float)
        d = r.reshape(-1, 1) - self._nodes
        hit = np.abs(d) < 1e-13
        w = self._bary / np.where(hit, 1.0, d)
        on_node = hit.any(axis=1)
        w[on_node] = hit[on_node]
        w /= w.sum(axis=1, keepdims=True)
        return w.reshape(r.shape + self._nodes.shape)

    def _ra_weights(self, r) -> np.ndarray:
        """Weights times r / rho: the unit-frame table read in the parallel frame."""
        r = np.asarray(r, dtype=float)
        return self._weights(r) * (r / _rho(self.params, r))[..., None]

    def separated(self, component: str):
        """(basis, shapes) of g~(dr, dr) ("rr") or g~(dr, e_A) ("ra")."""
        if component == "rr":
            return self._weights, self._rr_tab
        if component == "ra":
            return self._ra_weights, self._ra_tab
        raise ValueError(f"no separated form of component {component!r}")

    def cartesian(self, r) -> np.ndarray:
        return np.tensordot(self._weights(r), self._lie_tab, axes=1)

    def u(self, r) -> np.ndarray:
        bg = background_at(self.params, r)
        return (self._weights(r) @ self._yperp_tab) * bg.du_sc[..., None]
