"""Finite-difference derivatives on uniform radial grids, and the radial
quadrature rule.

Interior rows use centered 5-point stencils (4th order).  The two rows at
each end use one-sided 6-point stencils of order 5: the extra edge order
keeps composed operators (first derivative applied twice) uniformly 4th
order, which plain 4th-order closures would not, because their row-dependent
error constants inject an h^3 term under a second differentiation.  The
weights are the classical centred and one-sided ones (Fornberg, Math. Comp.
51 (1988) 699).

apply_radial keeps the weights in their band layout and never forms an
n_r x n_r matrix: it applies the interior stencil as five shifted slices and
the two edge rows at each end as a 7-column block, each row summed left to
right.  Every term is a real weight times a sample, so for complex samples
the real and imaginary parts are each differentiated on their own, exactly
as for real input; the complex-step oracle in curvature_lab relies on this.

gauss_cell is the package's one quadrature rule, 4-point Gauss-Legendre on
each of a batch of cells.  cumulative_integral is its one cumulative form,
r -> int_{cells[0]}^{r} f: a running sum of gauss_cell over the whole cells
below r plus the rule on the partial cell up to r.  The gauge construction
and selftest's conservation suite take all their radial integrals from it.
"""

from __future__ import annotations

from functools import cache
from math import factorial

import numpy as np

__all__ = [
    "stencil_coefficients",
    "apply_radial",
    "gauss_cell",
    "cumulative_integral",
]

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)


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


@cache
def _band(order: int):
    """Weights for unit spacing: centre (5,), head and tail edge blocks (2, 7).

    head[i] acts on samples 0..6 for row i; tail[i] on the last seven samples
    for row n-2+i.  The order-5 closures take order + 5 points, so the first
    derivative's blocks carry a zero in the column farthest from the edge.
    """
    points = order + 5
    centre = stencil_coefficients([-2, -1, 0, 1, 2], order)
    head, tail = np.zeros((2, 7)), np.zeros((2, 7))
    for row in (0, 1):
        head[row, :points] = stencil_coefficients(np.arange(points) - row, order)
        tail[1 - row, 7 - points :] = stencil_coefficients(np.arange(1 - points, 1) + row, order)
    return centre, head, tail


def apply_radial(f: np.ndarray, h: float, order: int) -> np.ndarray:
    """Derivative of the given order (1 or 2) along axis 0 of samples spaced h.

    Centred 4th-order weights on rows 2 .. n-3, order-5 one-sided closures on
    the two rows at each end; needs at least 7 samples.
    """
    if order not in (1, 2):
        raise ValueError(f"radial derivative order must be 1 or 2, got {order}")
    n = len(f)
    if n < 7:
        raise ValueError(f"radial stencils need at least 7 samples, got {n}")
    centre, head, tail = (w / h**order for w in _band(order))
    out = np.empty(f.shape, dtype=np.result_type(centre, f))
    body = out[2:-2]  # c0*f[:-4] + c1*f[1:-3] + ... + c4*f[4:], in place
    np.multiply(centre[0], f[: n - 4], out=body)
    for j in range(1, 5):
        body += centre[j] * f[j : n - 4 + j]
    out[:2] = _edge_rows(head, f[:7])
    out[-2:] = _edge_rows(tail, f[-7:])
    return out


def _edge_rows(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    # an einsum here would sum 1-D real input in a different order than
    # complex input, and the complex step needs both parts rounded the same
    w = w.reshape(w.shape + (1,) * (f.ndim - 1))
    out = w[:, 0] * f[0]
    for j in range(1, w.shape[1]):
        out += w[:, j] * f[j]
    return out


def gauss_cell(f, a, b) -> np.ndarray:
    """4-point Gauss rule for int_a^b f(s) ds, one cell per entry of a and b.

    f maps an array of radii to samples with those radii as leading axes;
    the result has shape a.shape + the sample shape.
    """
    half = 0.5 * (b - a)
    vals = f(a[..., None] + half[..., None] * (_GAUSS_X + 1.0))
    w = half[..., None] * _GAUSS_W
    w = w.reshape(w.shape + (1,) * (vals.ndim - w.ndim))
    return (w * vals).sum(axis=np.ndim(a))


def cumulative_integral(f, cells):
    """r -> int_{cells[0]}^{r} f(s) ds, for radii r of any shape.

    cells are increasing cell edges.  The integral is a cumulative table of
    gauss_cell over the whole cells below r plus the rule on the partial
    cell from the last whole cell's edge to r; a radius outside the cells
    takes the first or last cell's rule.  f is as for gauss_cell, and the
    result has shape r.shape + the sample shape.
    """
    cells = np.asarray(cells, dtype=float)
    whole = np.cumsum(gauss_cell(f, cells[:-1], cells[1:]), axis=0)
    table = np.concatenate([np.zeros_like(whole[:1]), whole])
    inner = cells[1:-1]

    def integral(r):
        idx = np.searchsorted(inner, r, side="right")  # the cell holding r
        return table[idx] + gauss_cell(f, cells[idx], r)

    return integral
