"""Real orthonormal spherical harmonics, quadrature grids and transform tables.

The basis is L2-orthonormal on the unit sphere with the standard area form.
It uses unsigned associated Legendre functions (no Condon-Shortley phase in
the real basis) with cosine factors for k > 0 and sine factors for k < 0.
Coefficients are stored flat, mode (ell, k) at position ell*ell + ell + k.

The Legendre tables come from the normalised three-term recurrence (Holmes
& Featherstone, J. Geodesy 76 (2002) 279), in numpy only.  It yields the
orthonormal functions directly, sqrt(2) of the k != 0 modes included, so no
factorial or gamma function is ever formed; the theta derivative follows
from the degree-lowering identity, divided by sin(theta), which never
vanishes at a Gauss-Legendre node.

Grids are Gauss-Legendre in cos(theta) tensored with uniform longitudes:
l_max + 1 latitudes and 2 l_max + 1 longitudes, the smallest grid on which
quadrature is exact for products of two harmonics up to l_max.  A SphereGrid
carries the synthesis matrices (Y and its angular derivatives) and the
quadrature-weighted analysis matrix; the transforms themselves
(sphere_ops.SphereCalc.coeffs, from_coeffs, laplacian_scalar) are direct
O(L^4) products with them, exact on band-limited fields.  No FFT path is
provided.  The tests check the tables against scipy's assoc_legendre_p_all
and against a point evaluator of their own, built on scipy's lpmv.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

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


def _legendre_tables(l_max: int, x: np.ndarray):
    """Orthonormal P_l^k(cos theta) and d/dtheta, shape (len(x), L+1, L+1).

    Entry [:, ell, k] (k <= ell) carries sqrt((2l+1)/(4 pi) (l-k)!/(l+k)!),
    times sqrt(2) for k > 0.  Each degree comes from the two below it, one
    array operation over its orders.
    """
    sin_th = np.sqrt(1.0 - x * x)
    p = np.zeros((x.size, l_max + 1, l_max + 1))
    dp = np.zeros_like(p)
    p[:, 0, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    for ell in range(1, l_max + 1):
        k = np.arange(ell)
        # the sectoral term; sqrt(2) enters with the first nonzero order
        sectoral = np.sqrt((2.0 * ell + 1.0) / (2.0 * ell) * (2.0 if ell == 1 else 1.0))
        p[:, ell, ell] = sectoral * sin_th * p[:, ell - 1, ell - 1]
        a = np.sqrt((2.0 * ell - 1.0) * (2.0 * ell + 1.0) / ((ell - k) * (ell + k)))
        p[:, ell, :ell] = a * x[:, None] * p[:, ell - 1, :ell]
        if ell >= 2:
            b = np.sqrt(
                (2.0 * ell + 1.0) * (ell + k - 1.0) * (ell - k - 1.0)
                / ((ell - k) * (ell + k) * (2.0 * ell - 3.0))
            )
            p[:, ell, :ell] -= b * p[:, ell - 2, :ell]
        # sin * dP/dtheta = ell cos P_l^k - sqrt((2l+1)/(2l-1) (l^2-k^2)) P_{l-1}^k
        k = np.arange(ell + 1)
        f = np.sqrt((2.0 * ell + 1.0) / (2.0 * ell - 1.0) * (ell * ell - k * k))
        dp[:, ell, : ell + 1] = (
            ell * x[:, None] * p[:, ell, : ell + 1] - f * p[:, ell - 1, : ell + 1]
        ) / sin_th[:, None]
    return p, dp


@dataclass
class SphereGrid:
    """Gauss-Legendre x uniform-longitude quadrature grid with cached basis.

    nodes are ordered theta-major; weights are in steradians and sum to 4 pi.
    Y, dY_dtheta, dY_dphi are (n_nodes, n_modes) synthesis matrices and
    analysis is the (n_modes, n_nodes) quadrature adjoint.
    """

    l_max: int
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


def make_grid(l_max: int) -> SphereGrid:
    """Build a quadrature grid exact for products of harmonics up to l_max."""
    if l_max < 0:
        raise ValueError("l_max must be nonnegative")
    n_theta, n_phi = l_max + 1, 2 * l_max + 1

    x, w_gl = leggauss(n_theta)
    order = np.argsort(-x)  # theta increasing from the north pole
    x, w_gl = x[order], w_gl[order]
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    nodes = np.column_stack([np.repeat(np.arccos(x), n_phi), np.tile(phi, n_theta)])
    weights = np.repeat(w_gl, n_phi) * (2.0 * np.pi / n_phi)

    # per mode: Legendre factor on the latitudes, trig factor on the longitudes
    ell, k = np.array(mode_list(l_max)).T
    ka = np.abs(k)
    p, dp = _legendre_tables(l_max, x)
    p, dp = p[:, ell, ka], dp[:, ell, ka]
    angle = ka * phi[:, None]
    trig = np.where(k < 0, np.sin(angle), np.cos(angle))
    dtrig = np.where(k < 0, ka * np.cos(angle), -ka * np.sin(angle))

    def tensor(lat, lon):
        return (lat[:, None, :] * lon[None, :, :]).reshape(n_theta * n_phi, -1)

    Y = tensor(p, trig)
    return SphereGrid(
        l_max=l_max,
        nodes=nodes,
        weights=weights,
        Y=Y,
        dY_dtheta=tensor(dp, trig),
        dY_dphi=tensor(p, dtrig),
        analysis=(Y * weights[:, None]).T,
    )
