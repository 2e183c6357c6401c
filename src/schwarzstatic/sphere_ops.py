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

Every 2-tensor conversion is one batched matrix product against a per-node
table of the outer products e_a (x) e_b of the unit basis (normal,
theta_hat, phi_hat), built once per grid: a tensor flattened to a row of 9
(or, tangential only, 4) components times that node's table.  The scale
multiplies the components, not the table.  grad_table, built on first use,
synthesizes the Cartesian components of surface gradients straight from
harmonic coefficients; the curvature lab takes its gradients with it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .harmonics import SphereGrid, degree_table, make_grid

__all__ = ["SphereCalc"]


class SphereCalc:
    """Calculus engine bound to one quadrature grid."""

    def __init__(self, l_max: int):
        self.grid: SphereGrid = make_grid(l_max)
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
        # outer products of the unit adapted basis e = (normal, theta_hat,
        # phi_hat): _to_cart[n, 3a + b, 3i + j] = e_a^i e_b^j, so a row of
        # adapted components times it gives Cartesian components and a row of
        # Cartesian components times its transpose gives adapted ones
        basis = np.stack([self.normal, self.theta_hat, self.phi_hat], axis=1)
        self._to_cart = np.einsum("nai,nbj->nabij", basis, basis).reshape(-1, 9, 9)
        self._to_adapted = np.ascontiguousarray(np.swapaxes(self._to_cart, -1, -2))
        self._frame_to_cart = self._to_cart[:, [4, 5, 7, 8]]  # rows 3a + b, a and b tangential
        self._eig = -degree_table(self.grid.l_max) * (degree_table(self.grid.l_max) + 1.0)
        self._AT = self.grid.analysis.T  # (n_nodes, n_modes)
        self._YT = self.grid.Y.T
        self._DTT = self.grid.dY_dtheta.T
        self._DPT = self.grid.dY_dphi.T

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    @cached_property
    def grad_table(self) -> np.ndarray:
        """Synthesis of Cartesian surface gradients, (3, n_modes, n_nodes).

        Row k is theta_hat_k dY/dtheta + phi_hat_k dY/dphi / sin, so the
        coefficients of a scalar times row k give component k of its surface
        gradient.  Built on first use; the three rows are views of one
        contiguous (n_modes, 3, n_nodes) array, which reshapes to the single
        (n_modes, 3 n_nodes) synthesis of all three components.
        """
        dt = self.grid.dY_dtheta.T[:, None, :]
        dp = (self.grid.dY_dphi / self.sin_theta[:, None]).T[:, None, :]
        return np.moveaxis(dt * self.theta_hat.T + dp * self.phi_hat.T, 1, 0)

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
        # derivatives along theta_hat and phi_hat, value slot projected back
        # to the tangent space: d - (d . n) n
        d = np.moveaxis(np.stack([dt, dp / self.sin_theta]), 1, -1)  # (2, ..., n, q)
        d = d - self._normal_part(d)
        # ambient derivative d_p w_q = theta_hat_p d_0q + phi_hat_p d_1q
        return np.swapaxes(self.frame, -1, -2) @ np.moveaxis(d, 0, -2)

    def sym_grad_covector(self, w: np.ndarray) -> np.ndarray:
        g = self.grad_covector(w)
        return 0.5 * (g + np.swapaxes(g, -1, -2))

    def div_sym2(self, t: np.ndarray) -> np.ndarray:
        """Surface divergence of a tangential symmetric 2-tensor.

        Input (..., n, 3, 3) Cartesian; output (..., n, 3) tangential covector.
        """
        comps = np.moveaxis(np.moveaxis(t, -1, 0), -1, 0)  # (p, q, ..., n)
        dt, dp = self.angular_derivatives(comps)
        th, ph = self.theta_hat, self.phi_hat / self.sin_theta[:, None]
        div = sum(dt[p] * th[:, p] + dp[p] * ph[:, p] for p in range(3))  # (q, ..., n)
        div = np.moveaxis(div, 0, -1)
        return div - self._normal_part(div)

    def _normal_part(self, v: np.ndarray) -> np.ndarray:
        """(v . n) n of Cartesian vectors v (..., n, 3)."""
        return np.einsum("...ni,ni->...n", v, self.normal)[..., None] * self.normal

    # -- frame conversions -----------------------------------------------

    def frame_to_cart_covector(self, w: np.ndarray, scale=1.0) -> np.ndarray:
        """(..., n, 2) components in the frame scale * frame -> (..., n, 3) Cartesian.

        scale broadcasts against the leading axes w.shape[:-2].
        """
        w = w * np.asarray(scale)[..., None, None]
        return w[..., 0:1] * self.theta_hat + w[..., 1:2] * self.phi_hat

    def cart_to_frame_covector(self, v: np.ndarray) -> np.ndarray:
        a = np.einsum("...ni,ni->...n", v, self.theta_hat)
        b = np.einsum("...ni,ni->...n", v, self.phi_hat)
        return np.stack([a, b], axis=-1)

    def frame_to_cart_sym2(self, t: np.ndarray, scale=1.0) -> np.ndarray:
        """(..., n, 2, 2) components in the frame scale * frame -> (..., n, 3, 3) Cartesian.

        scale broadcasts against the leading axes t.shape[:-3].
        """
        t = t * np.asarray(scale)[..., None, None, None] ** 2
        out = t.reshape(*t.shape[:-2], 1, 4) @ self._frame_to_cart
        return out.reshape(*t.shape[:-2], 3, 3)

    def adapted_components(self, t: np.ndarray, scale=1.0):
        """Components (rr, ra, ab) of Cartesian 2-tensors in the adapted frame.

        t has shape (..., n, 3, 3); the frame is {normal, scale * frame}, with
        scale broadcasting against the leading axes t.shape[:-3].  Returns
        rr (..., n), ra (..., n, 2) and ab (..., n, 2, 2).
        """
        m = (t.reshape(*t.shape[:-2], 1, 9) @ self._to_adapted).reshape(t.shape)
        scale = np.asarray(scale)[..., None, None]
        # rr is copied so that it does not keep all 9 components of m alive
        return m[..., 0, 0].copy(), m[..., 0, 1:] * scale, m[..., 1:, 1:] * scale[..., None] ** 2

    def from_adapted(self, rr: np.ndarray, ra: np.ndarray, ab: np.ndarray, scale) -> np.ndarray:
        """Cartesian (..., n, 3, 3) symmetric tensor with adapted components rr, ra, ab.

        Assembles rr nn + ra_A (eps^A n + n eps^A) + ab_AB eps^A eps^B with
        eps^A = scale * frame_A; batched over leading axes, which scale
        broadcasts against, as in adapted_components.  Components on the
        parallel frame (r/rho) * frame assemble through its coframe, so pass
        rho/r.
        """
        scale = np.asarray(scale)[..., None, None]
        m = np.empty((*rr.shape, 3, 3), dtype=np.result_type(rr, ra, ab, scale))
        m[..., 0, 0] = rr
        m[..., 0, 1:] = ra * scale
        m[..., 1:, 0] = m[..., 0, 1:]
        m[..., 1:, 1:] = ab * scale[..., None] ** 2
        return (m.reshape(*rr.shape, 1, 9) @ self._to_cart).reshape(m.shape)

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

    def random_band_limited(self, rng: np.random.Generator, l_band: int):
        """Random band-limited scalar samples with mildly decaying spectrum."""
        if l_band < 0:
            raise ValueError(f"band must be nonnegative, got l_band={l_band}")
        if l_band > self.grid.l_max:
            raise ValueError("band exceeds grid limit")
        c = np.zeros(self.grid.n_modes)
        n = (l_band + 1) ** 2
        ell = degree_table(self.grid.l_max)[:n]
        c[:n] = rng.standard_normal(n) / (1.0 + ell) ** 2
        return self.from_coeffs(c)
