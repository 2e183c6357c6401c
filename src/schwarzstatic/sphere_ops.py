"""Spectral tangential tensor calculus on the unit sphere.

Tensors are handled through their Cartesian components, which are smooth
functions on the sphere and therefore have spectrally convergent harmonic
expansions.  Every derivative goes through one analysis/synthesis round of
the grid basis, so results are exact (to roundoff) for band-limited data
with band limit below the grid's l_max minus the bandwidth the operation
itself adds (+1 per gradient, +2 per Hessian).

Intrinsic operators use the ambient projection: for tangential fields
extended to degree-0 homogeneity, the tangential projection of the flat
ambient derivative equals the intrinsic covariant derivative.

Orthonormal frame on the unit sphere: e1 = d/dtheta, e2 = (1/sin) d/dphi,
with Cartesian components `frame` = (theta_hat, phi_hat).  Frame components
of smooth tensors are well defined at the (pole-free) grid nodes; conversions
to and from Cartesian components are pointwise exact.

This module is the one home of the adapted frame of a constant-r sphere,
{normal, scale * frame}: the radially parallel orthonormal frame of the
conformal background has scale = r/rho, rho = sqrt(r(r-2m)), and its coframe
scale = rho/r.  Callers pass the scale; adapted_components projects
Cartesian tensors onto the frame and from_adapted assembles them back, both
batched over leading axes (one radius per leading index).
"""

from __future__ import annotations

import numpy as np

from .harmonics import SphereGrid, degree_table, make_grid

__all__ = ["SphereCalc"]


class SphereCalc:
    """Calculus engine bound to one quadrature grid."""

    def __init__(self, l_max: int, n_theta: int | None = None, n_phi: int | None = None):
        self.grid: SphereGrid = make_grid(l_max, n_theta, n_phi)
        th = self.grid.nodes[:, 0]
        ph = self.grid.nodes[:, 1]
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        self.sin_theta = st
        self.normal = np.column_stack([st * cp, st * sp, ct])
        self.theta_hat = np.column_stack([ct * cp, ct * sp, -st])
        self.phi_hat = np.column_stack([-sp, cp, np.zeros_like(sp)])
        self.frame = np.stack([self.theta_hat, self.phi_hat], axis=1)  # (n, 2, 3)
        # tangential projector P = I - n n^T at each node
        self.projector = np.eye(3) - np.einsum("ni,nj->nij", self.normal, self.normal)
        self._eig = -degree_table(self.grid.l_max) * (degree_table(self.grid.l_max) + 1.0)
        self._AT = self.grid.analysis.T  # (n_nodes, n_modes)
        self._YT = self.grid.Y.T
        self._DTT = self.grid.dY_dtheta.T
        self._DPT = self.grid.dY_dphi.T

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    # -- scalar spectral primitives -------------------------------------

    def coeffs(self, f: np.ndarray) -> np.ndarray:
        """Harmonic coefficients of node samples; batched over leading axes."""
        return np.asarray(f) @ self._AT

    def from_coeffs(self, c: np.ndarray) -> np.ndarray:
        return np.asarray(c) @ self._YT

    def dtheta(self, f: np.ndarray) -> np.ndarray:
        return self.coeffs(f) @ self._DTT

    def dphi(self, f: np.ndarray) -> np.ndarray:
        return self.coeffs(f) @ self._DPT

    def laplacian_scalar(self, f: np.ndarray) -> np.ndarray:
        return (self.coeffs(f) * self._eig) @ self._YT

    def angular_derivatives(self, f: np.ndarray):
        """(df/dtheta, df/dphi) at the nodes, batched over leading axes."""
        c = self.coeffs(f)
        return c @ self._DTT, c @ self._DPT

    # -- ambient tangential calculus ------------------------------------

    def grad_scalar(self, f: np.ndarray) -> np.ndarray:
        """Cartesian components of the surface gradient of a scalar.

        Equals the ambient derivative of the degree-0 extension; for batched
        input (..., n) returns (..., n, 3).
        """
        dt, dp = self.angular_derivatives(f)
        return (
            dt[..., None] * self.theta_hat
            + (dp / self.sin_theta)[..., None] * self.phi_hat
        )

    def div_vector(self, v: np.ndarray) -> np.ndarray:
        """Surface divergence of a tangential vector, Cartesian samples (..., n, 3)."""
        dt, dps = self.angular_derivatives(np.moveaxis(v, -1, 0))
        dps = dps / self.sin_theta
        out = np.einsum("p...n,np->...n", dt, self.theta_hat)
        out += np.einsum("p...n,np->...n", dps, self.phi_hat)
        return out

    def grad_covector(self, w: np.ndarray) -> np.ndarray:
        """Intrinsic covariant derivative of a tangential covector.

        Input (..., n, 3) Cartesian; output (..., n, 3, 3) with the derivative
        slot first: out[..., p, q] = (grad w)_{p q}.
        """
        dt, dp = self.angular_derivatives(np.moveaxis(w, -1, 0))
        dps = dp / self.sin_theta
        # ambient derivative d_p w_q
        amb = np.einsum("np,q...n->...npq", self.theta_hat, dt)
        amb += np.einsum("np,q...n->...npq", self.phi_hat, dps)
        # project the value slot back to the tangent space
        return np.einsum("...npq,nqr->...npr", amb, self.projector)

    def sym_grad_covector(self, w: np.ndarray) -> np.ndarray:
        g = self.grad_covector(w)
        return 0.5 * (g + np.swapaxes(g, -1, -2))

    def hess_scalar(self, f: np.ndarray) -> np.ndarray:
        """Intrinsic Hessian of a scalar, Cartesian components (..., n, 3, 3)."""
        return self.sym_grad_covector(self.grad_scalar(f))

    def div_sym2(self, t: np.ndarray) -> np.ndarray:
        """Surface divergence of a tangential symmetric 2-tensor.

        Input (..., n, 3, 3) Cartesian; output (..., n, 3) tangential covector.
        """
        comps = np.moveaxis(np.moveaxis(t, -1, 0), -1, 0)  # (p, q, ..., n)
        dt, dp = self.angular_derivatives(comps)
        dps = dp / self.sin_theta
        div = np.einsum("np,pq...n->...nq", self.theta_hat, dt)
        div += np.einsum("np,pq...n->...nq", self.phi_hat, dps)
        return np.einsum("...nq,nqr->...nr", div, self.projector)

    # -- frame conversions -----------------------------------------------

    def _scaled_frame(self, scale) -> np.ndarray:
        """scale * frame, shape (..., n, 2, 3) for scale of shape (...)."""
        return self.frame * np.asarray(scale)[..., None, None, None]

    def frame_to_cart_covector(self, w: np.ndarray, scale=1.0) -> np.ndarray:
        """(..., n, 2) components in the frame scale * frame -> (..., n, 3) Cartesian.

        scale broadcasts against the leading axes w.shape[:-2].
        """
        e = self._scaled_frame(scale)
        return w[..., 0:1] * e[..., 0, :] + w[..., 1:2] * e[..., 1, :]

    def cart_to_frame_covector(self, v: np.ndarray) -> np.ndarray:
        a = np.einsum("...ni,ni->...n", v, self.theta_hat)
        b = np.einsum("...ni,ni->...n", v, self.phi_hat)
        return np.stack([a, b], axis=-1)

    def frame_to_cart_sym2(self, t: np.ndarray, scale=1.0) -> np.ndarray:
        """(..., n, 2, 2) components in the frame scale * frame -> (..., n, 3, 3) Cartesian.

        scale broadcasts against the leading axes t.shape[:-3].
        """
        e = self._scaled_frame(scale)
        return np.einsum("...nab,...nai,...nbj->...nij", t, e, e)

    def adapted_components(self, t: np.ndarray, scale=1.0):
        """Components (rr, ra, ab) of Cartesian 2-tensors in the adapted frame.

        t has shape (..., n, 3, 3); the frame is {normal, scale * frame}, with
        scale broadcasting against the leading axes t.shape[:-3].  Returns
        rr (..., n), ra (..., n, 2) and ab (..., n, 2, 2).
        """
        n, e = self.normal, self.frame
        scale = np.asarray(scale)[..., None, None]
        rr = np.einsum("...nij,ni,nj->...n", t, n, n)
        ra = np.einsum("...nij,ni,naj->...na", t, n, e) * scale
        ab = np.einsum("...nij,nai,nbj->...nab", t, e, e) * scale[..., None] ** 2
        return rr, ra, ab

    def from_adapted(self, rr: np.ndarray, ra: np.ndarray, ab: np.ndarray, scale) -> np.ndarray:
        """Cartesian (..., n, 3, 3) symmetric tensor with adapted components rr, ra, ab.

        Assembles rr nn + ra_A (eps^A n + n eps^A) + ab_AB eps^A eps^B with
        eps^A = scale * frame_A; batched over leading axes, which scale
        broadcasts against, as in adapted_components.  Components on the
        parallel frame (r/rho) * frame assemble through its coframe, so pass
        rho/r.
        """
        n = self.normal
        out = np.einsum("...x,xi,xj->...xij", rr, n, n)
        mixed = self.frame_to_cart_covector(ra, scale)[..., None] * n[:, None, :]
        out += mixed + np.swapaxes(mixed, -1, -2)
        out += self.frame_to_cart_sym2(ab, scale)
        return out

    # -- frame-component intrinsic operators ------------------------------

    def div_sym2_frame(self, t_frame: np.ndarray) -> np.ndarray:
        """Divergence of a symmetric tangential 2-tensor, frame in, frame out."""
        return self.cart_to_frame_covector(
            self.div_sym2(self.frame_to_cart_sym2(t_frame))
        )

    def div_covector_frame(self, w_frame: np.ndarray) -> np.ndarray:
        cart = self.frame_to_cart_covector(w_frame)
        return self.div_vector(cart)

    def grad_scalar_frame(self, f: np.ndarray) -> np.ndarray:
        """(d/dtheta f, d/dphi f / sin), the unit-sphere frame gradient."""
        dt, dp = self.angular_derivatives(f)
        return np.stack([dt, dp / self.sin_theta], axis=-1)

    # -- traceless tensors from potentials --------------------------------

    def tt_from_potential(self, chi: np.ndarray, odd: bool = False) -> np.ndarray:
        """Traceless symmetric tangential 2-tensor generated by a potential.

        Even class: traceless Hessian of chi.  Odd class: symmetrized
        covariant derivative of the rotated gradient (automatically
        traceless since the rotated gradient is divergence free).
        Input scalar samples (n,); output frame components (n, 2, 2).
        """
        grad = self.grad_scalar(chi)
        if odd:
            rot = np.cross(self.normal, grad)
            sym = self.sym_grad_covector(rot)
        else:
            sym = self.sym_grad_covector(grad)
        tr = np.einsum("...nii->...n", sym)
        sym = sym - 0.5 * tr[..., None, None] * self.projector
        return self.adapted_components(sym)[2]

    def random_band_limited(self, rng: np.random.Generator, l_band: int, scale=1.0):
        """Random band-limited scalar samples with mildly decaying spectrum."""
        if l_band < 0:
            raise ValueError(f"band must be nonnegative, got l_band={l_band}")
        if l_band > self.grid.l_max:
            raise ValueError("band exceeds grid limit")
        c = np.zeros(self.grid.n_modes)
        n = (l_band + 1) ** 2
        ell = degree_table(self.grid.l_max)[:n]
        c[:n] = rng.standard_normal(n) * scale / (1.0 + ell) ** 2
        return self.from_coeffs(c)
