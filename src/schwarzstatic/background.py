"""Exact Schwarzschild background quantities, conformal transforms, Bartnik data.

Geometric units G = c = 1; masses and lengths share one unit.  Negative mass
is allowed everywhere; the exterior region starts at r > 2*max(0, m), so for
m < 0 the only excluded point is the puncture r = 0.

Mean-curvature convention: tangential divergence of the unit normal pointing
to infinity, so a round sphere of radius rho in flat space has H = 2/rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SchwarzschildParams",
    "BackgroundAt",
    "RoundData",
    "RoundDataMatch",
    "background_at",
    "schwarzschild_metric_chart",
    "conformal_metric_chart",
    "conformal_metric_cartesian",
    "conformal_forward",
    "conformal_inverse",
    "deformation_forward",
    "deformation_inverse",
    "bartnik_data",
    "match_round_data",
]


@dataclass(frozen=True)
class SchwarzschildParams:
    """Mass m and boundary radius r0 of an exterior region."""

    m: float
    r0: float

    def __post_init__(self):
        if not (np.isfinite(self.m) and np.isfinite(self.r0)):
            raise ValueError("m and r0 must be finite")
        if self.r0 <= 0:
            raise ValueError(f"boundary radius must be positive, got r0={self.r0}")
        if self.r0 <= 2.0 * self.m0:
            raise ValueError(
                f"need r0 > 2*max(0, m): got r0={self.r0} with m={self.m}"
            )

    @property
    def m0(self) -> float:
        return max(0.0, self.m)


@dataclass(frozen=True)
class BackgroundAt:
    """Background quantities on the sphere of radius r.

    All fields follow from the static potential f_sc = sqrt(1 - 2m/r):
    rho2 = r(r-2m) is the angular coefficient of the conformal metric,
    H_sc the mean curvature of the constant-r sphere in that metric,
    R_gamma its intrinsic scalar curvature.
    """

    r: np.ndarray
    f_sc: np.ndarray
    u_sc: np.ndarray
    du_sc: np.ndarray
    H_sc: np.ndarray
    rho2: np.ndarray
    R_gamma: np.ndarray


def background_at(params: SchwarzschildParams, r) -> BackgroundAt:
    """Evaluate the exact background at radius r (scalar or array).

    Raises ValueError outside the manifold, i.e. for r <= 2*max(0, m).
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 2.0 * params.m0):
        raise ValueError(
            f"radius outside the exterior region: need r > {2.0 * params.m0}"
        )
    rho2 = r * (r - 2.0 * params.m)
    f = np.sqrt(1.0 - 2.0 * params.m / r)
    return BackgroundAt(
        r=r,
        f_sc=f,
        u_sc=np.log(f),
        du_sc=params.m / rho2,
        H_sc=2.0 * (r - params.m) / rho2,
        rho2=rho2,
        R_gamma=2.0 / rho2,
    )


def schwarzschild_metric_chart(params: SchwarzschildParams, r, theta) -> np.ndarray:
    """Original metric in the (r, theta, phi) chart: diag(f^-2, r^2, r^2 sin^2)."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(r.shape, theta.shape)
    g = np.zeros(shape + (3, 3))
    rr = np.broadcast_to(1.0 / (1.0 - 2.0 * params.m / r), shape)
    g[..., 0, 0] = rr
    g[..., 1, 1] = np.broadcast_to(r * r, shape)
    g[..., 2, 2] = np.broadcast_to(r * r, shape) * np.sin(theta) ** 2
    return g


def conformal_metric_chart(params: SchwarzschildParams, r, theta) -> np.ndarray:
    """Conformally flattened metric in the chart: diag(1, rho2, rho2 sin^2)."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(r.shape, theta.shape)
    rho2 = np.broadcast_to(r * (r - 2.0 * params.m), shape)
    g = np.zeros(shape + (3, 3))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = rho2
    g[..., 2, 2] = rho2 * np.sin(theta) ** 2
    return g


def conformal_metric_cartesian(params: SchwarzschildParams, r, normal) -> np.ndarray:
    """Conformally flattened metric in Cartesian components: nn + (1 - 2m/r)(I - nn).

    normal (..., 3) holds unit radial normals and r broadcasts against
    normal.shape[:-1], so r of shape (n_r, 1) with n nodal normals gives
    (n_r, n, 3, 3) samples.
    """
    fac = 1.0 - 2.0 * params.m / np.asarray(r, dtype=float)
    nn = np.einsum("...i,...j->...ij", normal, normal)
    return nn + fac[..., None, None] * (np.eye(3) - nn)


def conformal_forward(f, metric):
    """Map a pair (potential f, metric) to the conformal picture (f^2*metric, ln f).

    f must be positive at every sample; raises ValueError otherwise.
    """
    f = np.asarray(f, dtype=float)
    metric = np.asarray(metric, dtype=float)
    if np.any(f <= 0.0):
        raise ValueError("static potential must be positive at every sample")
    g = f[..., None, None] ** 2 * metric
    return g, np.log(f)


def conformal_inverse(g, u):
    """Inverse of conformal_forward: (exp(-2u)*g, exp(u))."""
    g = np.asarray(g, dtype=float)
    u = np.asarray(u, dtype=float)
    return np.exp(-2.0 * u)[..., None, None] * g, np.exp(u)


def deformation_forward(gamma_t, f_t, params: SchwarzschildParams, r, theta):
    """Push an original-picture deformation to the conformal picture.

    Given samples (gamma_t, f_t) of a metric/potential deformation at chart
    points (r, theta), returns (g_t, u_t) with

        g_t = f_sc^2 * gamma_t + 2 f_t f_sc * metric_sc,   u_t = f_t / f_sc.
    """
    gamma_t = np.asarray(gamma_t, dtype=float)
    f_t = np.asarray(f_t, dtype=float)
    bg = background_at(params, r)
    gsc = schwarzschild_metric_chart(params, r, theta)
    fsc = np.broadcast_to(bg.f_sc, f_t.shape)
    g_t = fsc[..., None, None] ** 2 * gamma_t + 2.0 * (f_t * fsc)[..., None, None] * gsc
    return g_t, f_t / fsc


def deformation_inverse(g_t, u_t, params: SchwarzschildParams, r, theta):
    """Inverse of deformation_forward: gamma_t = f_sc^-2 g_t - 2 u_t metric_sc."""
    g_t = np.asarray(g_t, dtype=float)
    u_t = np.asarray(u_t, dtype=float)
    bg = background_at(params, r)
    gsc = schwarzschild_metric_chart(params, r, theta)
    fsc = np.broadcast_to(bg.f_sc, u_t.shape)
    gamma_t = g_t / fsc[..., None, None] ** 2 - 2.0 * u_t[..., None, None] * gsc
    return gamma_t, fsc * u_t


@dataclass(frozen=True)
class RoundData:
    """Round Bartnik data: area radius rho and constant mean curvature h."""

    rho: float
    h: float

    def __post_init__(self):
        if not (np.isfinite(self.rho) and np.isfinite(self.h)):
            raise ValueError(f"round data must be finite, got rho={self.rho}, h={self.h}")
        if self.rho <= 0:
            raise ValueError(f"area radius must be positive, got rho={self.rho}")


def bartnik_data(params: SchwarzschildParams) -> RoundData:
    """Round Bartnik data induced on the boundary sphere r = r0."""
    bg = background_at(params, params.r0)
    return RoundData(rho=params.r0, h=float(2.0 * bg.f_sc / params.r0))


@dataclass(frozen=True)
class RoundDataMatch:
    """Closed-form Schwarzschild match of round data.

    horizon_degenerate marks the boundary case h = 0 (r0 = 2m exactly),
    which sits on the closure of the admissible family.
    """

    m: float
    r0: float
    horizon_degenerate: bool

    @property
    def params(self) -> SchwarzschildParams:
        if self.horizon_degenerate:
            raise ValueError("matched data is horizon-degenerate (h = 0)")
        return SchwarzschildParams(m=self.m, r0=self.r0)


def match_round_data(data: RoundData) -> RoundDataMatch:
    """Find the Schwarzschild exterior with the given round Bartnik data.

    Inverting h = (2/rho) sqrt(1 - 2m/rho) gives m = (rho/2)(1 - (h rho/2)^2).
    Valid for h >= 0; h = 0 is flagged rather than rejected.
    """
    if data.h < 0:
        raise ValueError(f"mean curvature must be nonnegative, got h={data.h}")
    half = 0.5 * data.h * data.rho
    m = 0.5 * data.rho * (1.0 - half * half)
    return RoundDataMatch(m=m, r0=data.rho, horizon_degenerate=(data.h == 0.0))
