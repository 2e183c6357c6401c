"""Hand-coded radial structure equations for transverse-gauge deformations.

For a deformation with no radial metric components, the tangential data
(gamma~, H~, Kring~, u~) on the constant-r spheres obeys a first-order
evolution system in r.  The five residual evaluators return left minus right
of, in order:

  dg2:  dH~/dr + H_sc H~ + 4 u_sc' u~'                                = 0
  dg4: -4 u_sc' u~' + H_sc H~ - R'_gamma(gamma~)                      = 0
  dg5:  2 u_sc' d/u~ - Div/ Kring~ + (1/2) d/ H~                      = 0
  dg3:  L_{d/dr} Kring~  (= dKring~/dr + H_sc Kring~ in the frame)    = 0
  dg1:  u~'' + H_sc u~' + Lap/ u~ + u_sc' H~                          = 0

Tangential tensors are stored as components in the radially parallel
orthonormal frame, which turns the radial Lie derivative into a plain
derivative plus an H_sc multiple, and makes every slashed operator a unit
sphere operation divided by the appropriate power of rho = sqrt(r(r-2m)).

Derived fields: H~ = (1/2) d/dr tr gamma~ and Kring~ = (1/2) d/dr of the
traceless frame part of gamma~; constructors provide them from analytic
radial profiles or by 4th-order finite differences from samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import SchwarzschildParams, background_at
from .fd import apply_radial
from .fields import DeformationField
from .sphere_ops import SphereCalc

__all__ = [
    "MUTATIONS",
    "FoliationDeformation",
    "structure_residuals",
    "boundary_residuals",
    "linearized_scalar_curvature",
    "decoupled_residual",
]

# fault-injection hooks for the self-test machinery; normal runs leave empty
MUTATIONS: set[str] = set()


def _trace2(t: np.ndarray) -> np.ndarray:
    return t[..., 0, 0] + t[..., 1, 1]


def _traceless2(t: np.ndarray) -> np.ndarray:
    half = 0.5 * _trace2(t)
    out = t.copy()
    out[..., 0, 0] -= half
    out[..., 1, 1] -= half
    return out


@dataclass
class FoliationDeformation:
    """Tangential deformation data on a radial grid, frame components."""

    params: SchwarzschildParams
    calc: SphereCalc
    r: np.ndarray
    gamma: np.ndarray  # (n_r, n, 2, 2)
    H: np.ndarray  # (n_r, n)
    Kring: np.ndarray  # (n_r, n, 2, 2) traceless
    u: np.ndarray  # (n_r, n)
    dH: np.ndarray
    dKring: np.ndarray
    du: np.ndarray
    d2u: np.ndarray

    def __post_init__(self):
        if np.abs(_trace2(self.Kring)).max() > 1e-10:
            raise ValueError("Kring must be traceless in the frame")

    @classmethod
    def from_field(cls, field: DeformationField, r: np.ndarray) -> "FoliationDeformation":
        """Build from a separated-form field using its analytic derivatives."""
        if not field.is_gauge_fixed:
            raise ValueError("structure data requires a transverse deformation")
        r = np.asarray(r, dtype=float)
        g1, g2 = field.ab(r, 1), field.ab(r, 2)
        return cls(
            params=field.params,
            calc=field.calc,
            r=r,
            gamma=field.ab(r),
            H=0.5 * _trace2(g1),
            Kring=0.5 * _traceless2(g1),
            u=field.u(r),
            dH=0.5 * _trace2(g2),
            dKring=0.5 * _traceless2(g2),
            du=field.u(r, 1),
            d2u=field.u(r, 2),
        )

    @classmethod
    def from_samples(
        cls,
        params: SchwarzschildParams,
        calc: SphereCalc,
        r: np.ndarray,
        gamma: np.ndarray,
        u: np.ndarray,
    ) -> "FoliationDeformation":
        """Build from grid samples with 4th-order radial differencing."""
        r = np.asarray(r, dtype=float)
        h = r[1] - r[0]
        if np.abs(np.diff(r) - h).max() > 1e-10 * h:
            raise ValueError("sample constructor needs a uniform radial grid")
        dg = apply_radial(gamma, h, 1)
        d2g = apply_radial(gamma, h, 2)
        return cls(
            params=params,
            calc=calc,
            r=r,
            gamma=gamma,
            H=0.5 * _trace2(dg),
            Kring=0.5 * _traceless2(dg),
            u=u,
            dH=0.5 * _trace2(d2g),
            dKring=0.5 * _traceless2(d2g),
            du=apply_radial(u, h, 1),
            d2u=apply_radial(u, h, 2),
        )


def linearized_scalar_curvature(
    calc: SphereCalc, gamma_frame: np.ndarray, rho2
) -> np.ndarray:
    """Linearized intrinsic scalar curvature of the constant-r sphere.

    R'(h) = -Lap/ tr/ h + Div/ Div/ h - <Ric, h>; on the round sphere of
    squared radius rho2 every term scales with 1/rho2 of its unit-sphere
    counterpart, and <Ric, h> reduces to tr/ h / rho2.
    """
    t = _trace2(gamma_frame)
    divdiv = calc.div_covector_frame(calc.div_sym2_frame(gamma_frame))
    out = -calc.laplacian_scalar(t) + divdiv - t
    return out / np.asarray(rho2)[..., None]


def structure_residuals(d: FoliationDeformation) -> dict[str, np.ndarray]:
    """Left-minus-right of the five radial structure equations."""
    bg = background_at(d.params, d.r)
    H_sc = bg.H_sc[:, None]
    dusc = bg.du_sc[:, None]
    rho = np.sqrt(bg.rho2)[:, None]
    rho2 = bg.rho2[:, None]

    dg2 = d.dH + H_sc * d.H + 4.0 * dusc * d.du

    rprime = linearized_scalar_curvature(d.calc, d.gamma, bg.rho2)
    sign = -1.0 if "dg4-sign" in MUTATIONS else 1.0
    dg4 = -4.0 * dusc * d.du + H_sc * d.H - sign * rprime

    grad_u = d.calc.grad_scalar_frame(d.u) / rho[..., None]
    grad_H = d.calc.grad_scalar_frame(d.H) / rho[..., None]
    div_k = d.calc.div_sym2_frame(d.Kring) / rho[..., None]
    dg5 = 2.0 * dusc[..., None] * grad_u - div_k + 0.5 * grad_H

    dg3 = d.dKring + H_sc[..., None, None] * d.Kring

    lap_u = d.calc.laplacian_scalar(d.u) / rho2
    dg1 = d.d2u + H_sc * d.du + lap_u + dusc * d.H

    return {"dg2": dg2, "dg4": dg4, "dg5": dg5, "dg3": dg3, "dg1": dg1}


def boundary_residuals(d: FoliationDeformation) -> tuple[np.ndarray, np.ndarray]:
    """Homogeneous boundary rows at r = r0.

    Returns (gamma~ - 2 u~ gamma_sc, H~ - 2 du~/dr + (2/r0) u~) evaluated on
    the boundary ring, frame components for the first.
    """
    r0 = d.params.r0
    gamma_res = d.gamma[0].copy()
    gamma_res[..., 0, 0] -= 2.0 * d.u[0]
    gamma_res[..., 1, 1] -= 2.0 * d.u[0]
    h_res = d.H[0] - 2.0 * d.du[0] + (2.0 / r0) * d.u[0]
    return gamma_res, h_res


def decoupled_residual(
    params: SchwarzschildParams,
    calc: SphereCalc,
    r: np.ndarray,
    u: np.ndarray,
    du: np.ndarray | None = None,
) -> np.ndarray:
    """Residual of the decoupled second-order radial equation for u~.

    r(r-2m) u'' + 2(r-m) u' + Lap_sphere u - (4m^2/(r(r-2m))) u
      + (2m/(r(r-2m))) ((4m-r0) u(r0,.) + r0(r0-2m) u'(r0,.))

    The field enters with its first radial derivative when available (du);
    otherwise du is formed by 4th-order differences of the samples.  The
    second derivative is always one further difference of du, and the
    boundary source uses (u, du) at the first ring, which must sit at r0.
    """
    r = np.asarray(r, dtype=float)
    h = r[1] - r[0]
    if du is None:
        du = apply_radial(u, h, 1)
        d2u = apply_radial(u, h, 2)
    else:
        d2u = apply_radial(du, h, 1)
    m, r0 = params.m, params.r0
    rho2 = (r * (r - 2.0 * m))[:, None]
    lap = calc.laplacian_scalar(u)
    source = (4.0 * m - r0) * u[0] + r0 * (r0 - 2.0 * m) * du[0]
    return (
        rho2 * d2u
        + (2.0 * (r - m))[:, None] * du
        + lap
        - 4.0 * m * m / rho2 * u
        + 2.0 * m / rho2 * source[None, :]
    )

