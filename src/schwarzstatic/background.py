"""Exact Schwarzschild background quantities and the round-data match.

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
    "conformal_metric_cartesian",
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
    H_sc the mean curvature of the constant-r sphere in that metric.
    """

    r: np.ndarray
    f_sc: np.ndarray
    u_sc: np.ndarray
    du_sc: np.ndarray
    H_sc: np.ndarray
    rho2: np.ndarray


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
    )


def conformal_metric_cartesian(params: SchwarzschildParams, r, normal) -> np.ndarray:
    """Conformally flattened metric in Cartesian components: nn + (1 - 2m/r)(I - nn).

    normal (..., 3) holds unit radial normals and r broadcasts against
    normal.shape[:-1], so r of shape (n_r, 1) with n nodal normals gives
    (n_r, n, 3, 3) samples.
    """
    fac = 1.0 - 2.0 * params.m / np.asarray(r, dtype=float)
    nn = np.einsum("...i,...j->...ij", normal, normal)
    return nn + fac[..., None, None] * (np.eye(3) - nn)


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
    Valid for h >= 0; h = 0 is flagged rather than rejected.  Raises
    ValueError when m overflows the float range.
    """
    if data.h < 0:
        raise ValueError(f"mean curvature must be nonnegative, got h={data.h}")
    half = 0.5 * data.h * data.rho
    m = 0.5 * data.rho * (1.0 - half * half)
    if not np.isfinite(m):
        raise ValueError(f"matched mass overflows: rho={data.rho}, h={data.h}")
    return RoundDataMatch(m=m, r0=data.rho, horizon_degenerate=(data.h == 0.0))
