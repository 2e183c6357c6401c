"""Deformation fields assembled from radial profiles and angular shapes.

A deformation of the conformal pair is a sum of separated terms: a radial
profile with closed-form derivatives times a fixed angular sample array on
the calculus grid.  Components live in the adapted orthonormal frame
{d/dr, e1, e2} of the background, where e_A are the radially parallel frame
vectors (1/rho times the unit-sphere frame).  Cartesian metric components
are assembled on demand for the curvature oracle.

Every evaluator takes a scalar radius or a 1-D array of radii; an array adds
a leading radial axis, so sampling a deformation on a radial x sphere grid is
one call, f.cartesian(r) or f.u(r, order), with no per-radius loop.

Angular shapes are band-limited by construction, which keeps every spectral
derivative taken downstream exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .background import SchwarzschildParams, background_at
from .sphere_ops import SphereCalc

__all__ = [
    "RadialProfile",
    "power_profile",
    "oscillating_profile",
    "boundary_vanishing_profile",
    "constant_profile",
    "DeformationField",
    "single_mode_scalar",
    "random_deformation",
]


@dataclass(frozen=True)
class RadialProfile:
    """Scalar radial factor with analytic first and second derivatives."""

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    d2f: Callable[[np.ndarray], np.ndarray]

    def __call__(self, r, order: int = 0):
        if order == 0:
            return self.f(r)
        if order == 1:
            return self.df(r)
        if order == 2:
            return self.d2f(r)
        raise ValueError(f"unsupported derivative order {order}")

    def scaled(self, a: float) -> "RadialProfile":
        return RadialProfile(
            f=lambda r: a * self.f(r),
            df=lambda r: a * self.df(r),
            d2f=lambda r: a * self.d2f(r),
        )


def power_profile(r0: float, s: float, amp: float = 1.0) -> RadialProfile:
    """amp * (r0/r)^s, the decaying shape used for generic directions."""
    return RadialProfile(
        f=lambda r: amp * (r0 / r) ** s,
        df=lambda r: -amp * s * (r0 / r) ** s / r,
        d2f=lambda r: amp * s * (s + 1.0) * (r0 / r) ** s / r**2,
    )


def oscillating_profile(r0: float, s: float, k: float, amp: float = 1.0) -> RadialProfile:
    """amp * (r0/r)^s * cos(k (r/r0 - 1)); rich high derivatives for order tests."""
    w = k / r0

    def f(r):
        return amp * (r0 / r) ** s * np.cos(w * (r - r0))

    def df(r):
        p = (r0 / r) ** s
        return amp * p * (-s / r * np.cos(w * (r - r0)) - w * np.sin(w * (r - r0)))

    def d2f(r):
        p = (r0 / r) ** s
        c, sn = np.cos(w * (r - r0)), np.sin(w * (r - r0))
        return amp * p * (
            (s * (s + 1.0) / r**2 - w * w) * c + 2.0 * s * w / r * sn
        )

    return RadialProfile(f=f, df=df, d2f=d2f)


def boundary_vanishing_profile(r0: float, s: float, amp: float = 1.0) -> RadialProfile:
    """amp * (1 - r0/r) * (r0/r)^s; vanishes at r0, decays like r^-s."""
    base = power_profile(r0, s, amp)
    extra = power_profile(r0, s + 1.0, amp)
    return RadialProfile(
        f=lambda r: base.f(r) - extra.f(r),
        df=lambda r: base.df(r) - extra.df(r),
        d2f=lambda r: base.d2f(r) - extra.d2f(r),
    )


def constant_profile(c: float) -> RadialProfile:
    return RadialProfile(
        f=lambda r: c * np.ones_like(np.asarray(r, dtype=float)),
        df=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        d2f=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
    )


class DeformationField:
    """Separated-form deformation (g~, u~) of the conformal background pair.

    Components are lists of (profile, angular array) terms:

      rr: g~(dr, dr), scalar shape (n,)
      ra: g~(dr, e_A), frame covector shape (n, 2)
      ab: g~(e_A, e_B), frame tensor shape (n, 2, 2)
      u : scalar deformation shape (n,)

    Evaluation at radii r returns samples over the calculus grid nodes with
    shape r.shape + the shapes above: a scalar gives (n, ...), an array of
    n_r radii gives (n_r, n, ...).  Derivative orders 0..2 come from the
    profiles, so no radial grid error enters on the construction side.
    """

    def __init__(self, params: SchwarzschildParams, calc: SphereCalc):
        self.params = params
        self.calc = calc
        self.rr_terms: list[tuple[RadialProfile, np.ndarray]] = []
        self.ra_terms: list[tuple[RadialProfile, np.ndarray]] = []
        self.ab_terms: list[tuple[RadialProfile, np.ndarray]] = []
        self.u_terms: list[tuple[RadialProfile, np.ndarray]] = []

    # -- construction -----------------------------------------------------

    def add_rr(self, profile: RadialProfile, shape: np.ndarray):
        self.rr_terms.append((profile, np.asarray(shape, dtype=float)))
        return self

    def add_ra(self, profile: RadialProfile, potential: np.ndarray, odd: bool = False):
        """Radial-tangential term from a scalar potential.

        Even kind uses the frame gradient of the potential, odd kind its
        90-degree rotation; both are genuinely tangential covector shapes.
        """
        w = self.calc.grad_scalar_frame(np.asarray(potential, dtype=float))
        if odd:
            w = np.stack([-w[..., 1], w[..., 0]], axis=-1)
        self.ra_terms.append((profile, w))
        return self

    def add_ab_conformal(self, profile: RadialProfile, shape: np.ndarray):
        """Pure-trace tangential term shape * delta_AB."""
        s = np.asarray(shape, dtype=float)
        t = np.zeros(s.shape + (2, 2))
        t[..., 0, 0] = s
        t[..., 1, 1] = s
        self.ab_terms.append((profile, t))
        return self

    def add_ab_tt(self, profile: RadialProfile, potential: np.ndarray, odd: bool = False):
        """Traceless tangential term generated from a scalar potential."""
        t = self.calc.tt_from_potential(np.asarray(potential, dtype=float), odd=odd)
        self.ab_terms.append((profile, t))
        return self

    def add_u(self, profile: RadialProfile, shape: np.ndarray):
        self.u_terms.append((profile, np.asarray(shape, dtype=float)))
        return self

    def scaled(self, a: float) -> "DeformationField":
        out = DeformationField(self.params, self.calc)
        for name in ("rr_terms", "ra_terms", "ab_terms", "u_terms"):
            setattr(
                out, name, [(p.scaled(a), arr) for p, arr in getattr(self, name)]
            )
        return out

    def __add__(self, other: "DeformationField") -> "DeformationField":
        if other.calc is not self.calc:
            raise ValueError("fields must share one calculus grid")
        out = DeformationField(self.params, self.calc)
        for name in ("rr_terms", "ra_terms", "ab_terms", "u_terms"):
            setattr(out, name, list(getattr(self, name)) + list(getattr(other, name)))
        return out

    # -- evaluation --------------------------------------------------------

    def _sum(self, terms, r, order, tail_shape):
        out = np.zeros(np.shape(r) + (self.calc.n_nodes,) + tail_shape)
        for profile, arr in terms:
            out += np.multiply.outer(profile(r, order), arr)
        return out

    def rr(self, r, order: int = 0) -> np.ndarray:
        return self._sum(self.rr_terms, r, order, ())

    def ra(self, r, order: int = 0) -> np.ndarray:
        return self._sum(self.ra_terms, r, order, (2,))

    def ab(self, r, order: int = 0) -> np.ndarray:
        return self._sum(self.ab_terms, r, order, (2, 2))

    def u(self, r, order: int = 0) -> np.ndarray:
        return self._sum(self.u_terms, r, order, ())

    @property
    def is_gauge_fixed(self) -> bool:
        return not self.rr_terms and not self.ra_terms

    def u_gradient_cart(self, r) -> np.ndarray:
        """Cartesian gradient of u~ at radii r, shape r.shape + (n, 3)."""
        out = np.zeros(np.shape(r) + (self.calc.n_nodes, 3))
        r_col = np.asarray(r)[..., None, None]
        for profile, arr in self.u_terms:
            out += np.multiply.outer(profile(r, 1), arr)[..., None] * self.calc.normal
            out += np.multiply.outer(profile(r, 0), self.calc.grad_scalar(arr)) / r_col
        return out

    def cartesian(self, r) -> np.ndarray:
        """Cartesian metric-deformation components at radii r, shape r.shape + (n, 3, 3).

        Frame components convert through the coframe of the adapted frame:
        eps^r = n dx, eps^A = (rho/r) * unit-sphere coframe.
        """
        rho_over_r = np.sqrt(background_at(self.params, r).rho2) / r
        return self.calc.from_adapted(self.rr(r), self.ra(r), self.ab(r), rho_over_r)


def single_mode_scalar(
    params: SchwarzschildParams,
    calc: SphereCalc,
    ell: int,
    k: int,
    profile: RadialProfile,
) -> DeformationField:
    """u~ = a(r) Y_{k ell} with no metric part."""
    from .harmonics import mode_position

    c = np.zeros(calc.grid.n_modes)
    c[mode_position(ell, k)] = 1.0
    field = DeformationField(params, calc)
    field.add_u(profile, calc.from_coeffs(c))
    return field


def random_deformation(
    rng: np.random.Generator,
    params: SchwarzschildParams,
    calc: SphereCalc,
    l_band: int = 4,
    gauge_fixed: bool = True,
) -> DeformationField:
    """Random band-limited deformation with decaying radial profiles."""
    r0 = params.r0
    field = DeformationField(params, calc)

    def prof():
        s = 1.5 + rng.uniform(0.0, 1.5)
        return power_profile(r0, s, amp=rng.uniform(0.5, 1.0))

    field.add_ab_conformal(prof(), calc.random_band_limited(rng, l_band))
    field.add_ab_tt(prof(), calc.random_band_limited(rng, l_band), odd=False)
    field.add_ab_tt(prof(), calc.random_band_limited(rng, l_band), odd=True)
    field.add_u(prof(), calc.random_band_limited(rng, l_band))
    if not gauge_fixed:
        field.add_rr(prof(), calc.random_band_limited(rng, l_band))
        field.add_ra(prof(), calc.random_band_limited(rng, l_band), odd=False)
        field.add_ra(prof(), calc.random_band_limited(rng, l_band), odd=True)
    return field
