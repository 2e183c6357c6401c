"""Finite-difference operators on uniform radial grids.

Interior rows use centered 5-point stencils (4th order).  The two rows at
each end use one-sided 6-point stencils of order 5: the extra edge order
keeps composed operators (first derivative applied twice) uniformly 4th
order, which plain 4th-order closures would not, because their row-dependent
error constants inject an h^3 term under a second differentiation.  The
weights are the classical centred and one-sided ones (Fornberg, Math. Comp.
51 (1988) 699).

The matrices are the one source of the coefficients, but apply_radial never
forms the dense product: it applies the interior stencil as five shifted
slices and the two edge rows at each end as a 7-column block, each row
summed left to right.  Every term is a real weight times a sample, so for
complex samples the real and imaginary parts are each differentiated on
their own, exactly as for real input; the complex-step oracle in
curvature_lab relies on this.
"""

from __future__ import annotations

from math import factorial

import numpy as np

__all__ = [
    "stencil_coefficients",
    "d1_matrix",
    "d2_matrix",
    "apply_radial",
]


def stencil_coefficients(offsets, order: int) -> np.ndarray:
    """Weights c_j with sum_j c_j f(x + o_j h) = h^order f^(order)(x) + h.o.t."""
    offsets = np.asarray(offsets, dtype=float)
    n = len(offsets)
    if order >= n:
        raise ValueError("need more points than the derivative order")
    v = np.vander(offsets, n, increasing=True).T  # v[p, j] = o_j^p
    rhs = np.zeros(n)
    rhs[order] = factorial(order)
    c = np.linalg.solve(v, rhs)
    # re-impose the zero-sum constraint exactly so constants are annihilated
    j = int(np.argmax(np.abs(c)))
    c[j] -= c.sum()
    return c


def _derivative_matrix(n: int, h: float, order: int, edge_points: int) -> np.ndarray:
    if n < max(7, edge_points):
        raise ValueError("grid too small for the stencil set")
    d = np.zeros((n, n))
    center = stencil_coefficients([-2, -1, 0, 1, 2], order) / h**order
    for row in range(2, n - 2):
        d[row, row - 2 : row + 3] = center
    for row in (0, 1):
        offs = np.arange(edge_points) - row
        c = stencil_coefficients(offs, order) / h**order
        d[row, row + offs.astype(int)] = c
    for row in (n - 2, n - 1):
        back = n - 1 - row
        offs = -(np.arange(edge_points) - back)[::-1]
        c = stencil_coefficients(offs, order) / h**order
        d[row, row + offs.astype(int)] = c
    return d


def d1_matrix(n: int, h: float) -> np.ndarray:
    """First derivative: centered 4th order inside, order-5 one-sided edges."""
    return _derivative_matrix(n, h, order=1, edge_points=6)


def d2_matrix(n: int, h: float) -> np.ndarray:
    """Second derivative: centered 4th order inside, order-5 one-sided edges."""
    return _derivative_matrix(n, h, order=2, edge_points=7)


def apply_radial(d: np.ndarray, f: np.ndarray) -> np.ndarray:
    """d @ f along axis 0 for d from d1_matrix or d2_matrix, applied on its band.

    The interior rows 2 .. n-3 share the centred weights d[2, :5]; the two
    edge rows at each end reach at most 7 columns (d2's 7-point closure).
    Every row is summed left to right, so real and complex input round alike.
    """
    n = len(f)
    out = np.empty(f.shape, dtype=np.result_type(d, f))
    body = out[2:-2]  # c0*f[:-4] + c1*f[1:-3] + ... + c4*f[4:], in place
    np.multiply(d[2, 0], f[: n - 4], out=body)
    for j in range(1, 5):
        body += d[2, j] * f[j : n - 4 + j]
    out[:2] = _edge_rows(d[:2, :7], f[:7])
    out[-2:] = _edge_rows(d[-2:, -7:], f[-7:])
    return out


def _edge_rows(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    # an einsum here would sum 1-D real input in a different order than
    # complex input, and the complex step needs both parts rounded the same
    w = w.reshape(w.shape + (1,) * (f.ndim - 1))
    out = w[:, 0] * f[0]
    for j in range(1, w.shape[1]):
        out += w[:, j] * f[j]
    return out
