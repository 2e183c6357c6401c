"""Real orthonormal spherical harmonics, quadrature grids and transform tables.

The basis is L2-orthonormal on the unit sphere with the standard area form.
It uses unsigned associated Legendre functions (no Condon-Shortley phase in
the real basis) with cosine factors for k > 0 and sine factors for k < 0.
Coefficients are stored flat, mode (ell, k) at position ell*ell + ell + k.

The Legendre tables come from scipy.special.assoc_legendre_p_all, every
degree, order and first derivative in one call, and the normalisation from
gammaln.

Grids are Gauss-Legendre in cos(theta) tensored with uniform longitudes, so
quadrature is exact for integrands of total degree <= 2*n_theta - 1.  A
SphereGrid carries the synthesis matrices (Y and its angular derivatives)
and the quadrature-weighted analysis matrix; the transforms themselves
(sphere_ops.SphereCalc.coeffs, from_coeffs, laplacian_scalar) are direct
O(L^4) products with them, exact on band-limited fields.  No FFT path is
provided.  The tests check the tables against a point evaluator of their
own, built on scipy's lpmv rather than on assoc_legendre_p_all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import assoc_legendre_p_all, gammaln

__all__ = [
    "SphereGrid",
    "mode_position",
    "mode_list",
    "degree_table",
    "make_grid",
]


def mode_position(ell: int, k: int) -> int:
    """Flat position of mode (ell, k) in a coefficient array."""
    if abs(k) > ell:
        raise IndexError(f"invalid harmonic index (ell={ell}, k={k})")
    return ell * ell + ell + k


def mode_list(l_max: int):
    """All (ell, k) pairs up to l_max, in flat-position order."""
    return [(ell, k) for ell in range(l_max + 1) for k in range(-ell, ell + 1)]


def degree_table(l_max: int) -> np.ndarray:
    """Array of ell values per flat coefficient position."""
    return np.array([ell for ell, _ in mode_list(l_max)], dtype=float)


def _norm(ell: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Orthonormalization constant sqrt((2l+1)/(4 pi) * (l-k)!/(l+k)!)."""
    return np.sqrt(
        (2.0 * ell + 1.0)
        / (4.0 * np.pi)
        * np.exp(gammaln(ell - k + 1.0) - gammaln(ell + k + 1.0))
    )


def _legendre_tables(l_max: int, x: np.ndarray):
    """Unsigned P_l^k(x) and d/dx P_l^k(x) tables, shape (len(x), L+1, L+1)."""
    sign = (-1.0) ** np.arange(l_max + 1)  # cancel the Condon-Shortley phase
    tab = assoc_legendre_p_all(l_max, l_max, x, diff_n=1)
    p = np.moveaxis(tab[0][:, : l_max + 1], -1, 0) * sign
    dp = np.moveaxis(tab[1][:, : l_max + 1], -1, 0) * sign
    return p, dp


@dataclass
class SphereGrid:
    """Gauss-Legendre x uniform-longitude quadrature grid with cached basis.

    nodes are ordered theta-major; weights are in steradians and sum to 4 pi.
    Y, dY_dtheta, dY_dphi are (n_nodes, n_modes) synthesis matrices and
    analysis is the (n_modes, n_nodes) quadrature adjoint.
    """

    l_max: int
    n_theta: int
    n_phi: int
    theta: np.ndarray
    phi: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    Y: np.ndarray
    dY_dtheta: np.ndarray
    dY_dphi: np.ndarray
    analysis: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_modes(self) -> int:
        return (self.l_max + 1) ** 2


def make_grid(l_max: int = 8, n_theta: int | None = None, n_phi: int | None = None) -> SphereGrid:
    """Build a quadrature grid exact for products of harmonics up to l_max."""
    if l_max < 0:
        raise ValueError("l_max must be nonnegative")
    if n_theta is None:
        n_theta = l_max + 1
    if n_phi is None:
        n_phi = 2 * l_max + 1
    if n_theta < l_max + 1 or n_phi < 2 * l_max + 1:
        raise ValueError("grid too small for exact transforms at this l_max")

    x, w_gl = leggauss(n_theta)
    order = np.argsort(-x)  # theta increasing from the north pole
    x, w_gl = x[order], w_gl[order]
    theta = np.arccos(x)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi

    th_nodes = np.repeat(theta, n_phi)
    ph_nodes = np.tile(phi, n_theta)
    nodes = np.column_stack([th_nodes, ph_nodes])
    weights = np.repeat(w_gl, n_phi) * (2.0 * np.pi / n_phi)

    p, dp = _legendre_tables(l_max, x)
    n_modes = (l_max + 1) ** 2
    n_nodes = n_theta * n_phi
    Y = np.zeros((n_nodes, n_modes))
    dY_dt = np.zeros((n_nodes, n_modes))
    dY_dp = np.zeros((n_nodes, n_modes))
    sin_th = np.sin(th_nodes)

    for ell in range(l_max + 1):
        for k in range(-ell, ell + 1):
            ka = abs(k)
            col = mode_position(ell, k)
            norm = _norm(np.float64(ell), np.float64(ka))
            if k != 0:
                norm = norm * np.sqrt(2.0)
            pv = np.repeat(p[:, ell, ka], n_phi)
            dpv = np.repeat(dp[:, ell, ka], n_phi)
            if k > 0:
                trig, dtrig = np.cos(ka * ph_nodes), -ka * np.sin(ka * ph_nodes)
            elif k < 0:
                trig, dtrig = np.sin(ka * ph_nodes), ka * np.cos(ka * ph_nodes)
            else:
                trig, dtrig = np.ones(n_nodes), np.zeros(n_nodes)
            Y[:, col] = norm * pv * trig
            dY_dt[:, col] = norm * (-sin_th) * dpv * trig
            dY_dp[:, col] = norm * pv * dtrig

    analysis = (Y * weights[:, None]).T
    return SphereGrid(
        l_max=l_max,
        n_theta=n_theta,
        n_phi=n_phi,
        theta=theta,
        phi=phi,
        nodes=nodes,
        weights=weights,
        Y=Y,
        dY_dtheta=dY_dt,
        dY_dphi=dY_dp,
        analysis=analysis,
    )
