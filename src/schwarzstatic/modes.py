"""Per-mode radial ODE: integration, substitutions, the growth-coefficient verdict.

Each spherical-harmonic coefficient a(r) of the scalar deformation obeys

    (r(r-2m) a')' = (4 m^2 / (r(r-2m)) + l(l+1)) a - S / (r(r-2m)),
    a'(r0) = (l(l+1) - 2m/r0) a(r0) / (2 (r0 - 2m)),

where the constant S = 2m ((4m - r0) a(r0) + r0 (r0 - 2m) a'(r0)) comes from
the boundary data; S is regular in m, so the integrator never divides
by m.  The order does not enter; only the degree l matters.

Every lane steps in one scale-free variable, t = ln s with
s = r - 2 max(m, 0), from ln s0 to the lane end r1 = lane_end(m, r0).
s0 = r0 - 2 max(m, 0) is formed once from r0 and the right-hand side never
forms r, so the regular singular point (r = 2m for m > 0, r = 0 for m < 0)
lies at t = -inf and a boundary sphere next to it costs no more steps than
one far from it.  With rho^2 = s (s + 2|m|) the system in the state
(a, w = rho^2 a') is

    da/dt = s w / rho^2,    dw/dt = s ((4 m^2 / rho^2 + l(l+1)) a - S / rho^2),

evaluated as w / (s + 2|m|) and (4 m^2 / (s + 2|m|) + l(l+1) s) a - S / (s + 2|m|),
and s = exp(t) is np.exp of the lane array: each element of np.exp and
np.log is the same whatever the array around it, which keeps lanes
independent (the tests pin it).  w(r0) and S take r0 (r0 - 2m) a'(r0) from
_rho2_times, which never over- or underflows on the way.  Integration
stops early where |a| first reaches k_div |a(r0)|.  The problem is linear
in a(r0), so a lane's absolute tolerance is scaled by |a(r0)| (1 for zero
data), as its k_div threshold is.  A lane fails like a lane the solver
gives up on if s0 is not a normal float (exp(ln s0) would lose digits), or
its initial state or r_max is not finite.  A lane returns its end state and
its dense output; a profile is evaluated only when it is read, and an
a' = w / rho^2 past the float range reads inf there.

The stepper is DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10)
in this module, with scipy's tableau (vendored in _dop853) and scipy's step
control, so the steps are solve_ivp's up to rounding.  integrate_modes steps
a batch of modes in lockstep, one lane of numpy arrays per mode; each lane
rounds exactly as it would alone, and integrate_mode is a batch of one.
A lane stops at the end of the step in which |a| - k_div |a(r0)| changes
sign; after the loop one batched bisection on the dense-output table
locates every such crossing in t, each lane to 4 eps (1 + |t|).  The
package imports neither scipy.integrate nor scipy.optimize; the tests keep
solve_ivp and brentq as the independent checks.

The verdict.  With z = (r - m)/|m|, r(r-2m) = m^2 (z^2 - 1) and the mode
equation is the associated Legendre equation of order 2 with a constant
source (DLMF 14.2): a = a_p + alpha G + beta Q, with Q = Q_l^2 decaying,
G growing (P_l^2; (z-1)/(z+1) and (z-1)(z+2)/(6(z+1)) for l = 0 and 1)
and a_p = S / ((l(l+1) - 2) m^2 (z^2 - 1)) decaying (at l = 1 it enters
as W(a_p, Q) = -(S/m^2)(z/(z^2-1) - arccoth z)).  The class is the sign
of alpha = W(a - a_p, Q) / W(G, Q), W(f, g) = (z^2 - 1)(f g' - f' g), a
Wronskian: classify_modes reads it in closed form at r0 and again where
the lane ended (r1 = lane_end(m, r0), where z = 2 z0, or the k_div
crossing) and certifies the class when the alpha_drift
|alpha_end / alpha - 1| <= ALPHA_RTOL; else the mode is Undetermined,
with its reason.  G is 1 at r0 (at infinity for l = 0, so alpha is the
limit of a); m = 0, with the pair r^l and r^(-l-1), is the limit
z -> inf.  Q_l^2 enters through the offsets d_k = z - Q_{k-1}^2 / Q_k^2
of the recurrence in the degree (DLMF 14.10.3), forward from Q_1^2 and
Q_2^2 near z = 1 and Miller's backward recurrence (Gautschi, SIAM Rev. 9
(1967) 24) beyond, scaled by powers of z: z0 - 1 = s0/|m| survives
without cancellation, and alpha neither over- nor underflows.

The verdict settings are module constants, the same for every sweep:
DEFAULT_RTOL, DEFAULT_ATOL, K_DIV and ALPHA_RTOL; selftest's mode/PDE suite
tightens the first three, integrate_modes' defaults.

Substitution constant: alpha0 = (3/2 + r0 (l(l+1)-2)/(4m)) a(r0), None
where that is not a finite float (m = 0 included).
Derived views: A = a - alpha0, phi = r(r-2m) A, Phi = 2(r-m) A / (r(r-2m)) + A'.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._dop853 import DOP853
from .background import SchwarzschildParams

__all__ = [
    "ModeIVP",
    "ModeSolution",
    "AsymptoticKind",
    "AsymptoticClass",
    "make_ivp",
    "lane_end",
    "integrate_mode",
    "integrate_modes",
    "classify",
    "classify_modes",
]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
K_DIV = 1e3  # a mode has diverged once |a| reaches K_DIV |a(r0)|
# the two readouts of alpha agree when |alpha_end / alpha - 1| <= ALPHA_RTOL;
# the largest drift measured is 9e-4, at l = 0 and s0 = 1e-12 |m|
ALPHA_RTOL = 1e-2


@dataclass(frozen=True)
class ModeIVP:
    """Initial value problem for one mode coefficient."""

    params: SchwarzschildParams
    ell: int
    a0: float
    da0: float
    source: float  # ODE source constant S
    alpha0: float | None

    @property
    def m(self) -> float:
        return self.params.m

    @property
    def r0(self) -> float:
        return self.params.r0


def make_ivp(params: SchwarzschildParams, ell: int, a0: float) -> ModeIVP:
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    m, r0 = params.m, params.r0
    ll1 = ell * (ell + 1.0)
    da0 = (ll1 - 2.0 * m / r0) * a0 / (2.0 * (r0 - 2.0 * m))
    source = 2.0 * m * ((4.0 * m - r0) * a0 + _rho2_times(m, r0, da0))
    alpha0 = None
    if m != 0.0:
        # Python floats: r0 / (4m) is inf past the float range, not a warning
        alpha0 = (1.5 + float(r0) / (4.0 * float(m)) * (ll1 - 2.0)) * float(a0)
        if not math.isfinite(alpha0):
            alpha0 = None
    return ModeIVP(params=params, ell=ell, a0=a0, da0=da0, source=source, alpha0=alpha0)


def lane_end(m: float, r0: float) -> float:
    """The radius a mode is integrated out to: 2 r0 - m, where z = (r - m)/|m| is 2 z0.

    inf where that overflows; integrate_modes fails such a lane with a ValueError.
    """
    return 2.0 * float(r0) - float(m)


def _rho2_times(m, r0, x) -> float:
    """r0 (r0 - 2m) x, rounded as that product, or inf where the result overflows.

    r0 enters as mantissa * 2^exponent, which changes no rounding while the
    plain product stays normal, so r0 (r0 - 2m) never over- or underflows.
    """
    mantissa, exponent = math.frexp(r0)
    y = mantissa * (r0 - 2.0 * m) * x
    try:
        return math.ldexp(y, exponent)
    except OverflowError:
        return math.copysign(math.inf, y)


class AsymptoticKind(str, enum.Enum):
    DECAYS_TO_ZERO = "DecaysToZero"
    CONVERGES_NONZERO = "ConvergesNonzero"
    DIVERGES_PLUS = "DivergesPlus"
    DIVERGES_MINUS = "DivergesMinus"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class AsymptoticClass:
    kind: AsymptoticKind
    alpha: float  # the growth coefficient, read in closed form at r0
    alpha_drift: float  # |alpha_end / alpha - 1|, alpha_end read at r_max
    r_max: float
    reason: str | None = None  # why the mode is Undetermined


@dataclass
class ModeSolution:
    """One stepped mode: its end state, its dense output, and profiles formed on first read."""

    ivp: ModeIVP
    r_max_used: float
    diverged: bool
    n_steps: int  # accepted DOP853 steps in t = ln s
    nfev: int  # right-hand-side evaluations
    # (s, a, w) at the lane's last t, where the growth coefficient is read again
    end: tuple[float, float, float]
    # (batch dense output, this mode's lane in it)
    _dense: tuple = field(repr=False)

    @property
    def stop(self) -> str:
        """Why integration ended: the |a| = k_div |a0| crossing or r_max."""
        return "k_div" if self.diverged else "r_max"

    @cached_property
    def radii(self) -> np.ndarray:
        """The profile radii: geomspace from r0 to r_max_used, 48 per decade, at least 64."""
        r0, r1 = self.ivp.r0, self.r_max_used
        return np.geomspace(r0, r1, max(64, int(np.ceil(48 * np.log10(r1 / r0))) + 1))

    @cached_property
    def _profile(self) -> tuple[np.ndarray, np.ndarray]:
        return self.eval(self.radii)

    @property
    def a(self) -> np.ndarray:
        return self._profile[0]

    @property
    def da(self) -> np.ndarray:
        """a' at the radii; inf where that exceeds the float range."""
        return self._profile[1]

    @property
    def A(self) -> np.ndarray | None:
        if self.ivp.alpha0 is None:
            return None
        return self.a - self.ivp.alpha0

    @property
    def phi(self) -> np.ndarray | None:
        """r(r-2m) A; inf where that exceeds the float range (r above ~1e154)."""
        A = self.A
        if A is None:
            return None
        with np.errstate(over="ignore"):
            return self.radii * ((self.radii - 2.0 * self.ivp.m) * A)

    @property
    def Phi(self) -> np.ndarray | None:
        A = self.A
        if A is None:
            return None
        r, m = self.radii, self.ivp.m
        return 2.0 * (r - m) / r / (r - 2.0 * m) * A + self.da

    def eval(self, r) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate (a, a') at arbitrary radii within the integrated range.

        The batch's own evaluator on a batch of one mode.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r < self.ivp.r0) or np.any(r > self.r_max_used * (1 + 1e-12)):
            raise ValueError("evaluation outside the integrated range")
        dense, lane = self._dense
        return dense.eval(lane, self.ivp.m, r)


def integrate_mode(
    ivp: ModeIVP,
    r_max: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    k_div: float = K_DIV,
) -> ModeSolution:
    """Integrate the first-order system (a, w = r(r-2m) a') out to r_max.

    Integration terminates early once |a| crosses k_div * |a(r0)| (the mode
    has certifiably diverged); r_max_used records the reached radius.  This
    is integrate_modes on a batch of one; a failed lane is raised.
    """
    sol = integrate_modes([ivp], [r_max], rtol, atol, k_div)[0]
    if isinstance(sol, Exception):
        raise sol
    return sol


def integrate_modes(
    ivps: list[ModeIVP],
    r_max,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    k_div: float = K_DIV,
) -> list[ModeSolution | Exception]:
    """Integrate many modes at once, one DOP853 lane per mode.

    r_max holds each mode's outer radius.  The lanes step in lockstep on
    numpy arrays, but each keeps its own step size, rejections, k_div event
    and failure, and rounds exactly as it would alone: a lane's solution
    does not depend on the other lanes of the batch.  Returns, in the order
    of ivps, a ModeSolution or the ValueError or RuntimeError that ended the
    lane.  Every mass takes this path, m = 0 included.  Each lane's atol
    and k_div threshold are scaled by its |a(r0)| (1 for zero data).  A
    solution holds its end state and its lane of the batch's dense output;
    nothing is sampled until a profile is read.

    Raises ValueError for a negative atol; as in solve_ivp, rtol is raised
    to 100 eps with a warning.
    """
    r_max = [float(r) for r in r_max]
    if len(r_max) != len(ivps):
        raise ValueError("need one r_max per mode")
    if atol < 0:
        raise ValueError("atol must be nonnegative")
    if rtol < 100 * _EPS:
        warnings.warn(f"rtol is too small; using rtol = {100 * _EPS}", stacklevel=2)
    rtol, atol = max(float(rtol), 100 * _EPS), float(atol)

    out: list = [None] * len(ivps)
    idx, y0, r_end = [], [], []  # the modes to step
    for i, (ivp, rm) in enumerate(zip(ivps, r_max)):
        m, r0, a0 = float(ivp.m), float(ivp.r0), float(ivp.a0)
        w0 = _rho2_times(m, r0, ivp.da0)
        if not rm > r0:
            out[i] = ValueError("r_max must exceed r0")
        elif not math.isfinite(rm):  # ln s would be inf at the bound
            out[i] = ValueError("r_max must be finite")
        elif not r0 - 2.0 * max(m, 0.0) >= _TINY:  # exp(ln s0) would have lost digits
            out[i] = ValueError(f"r0 - 2 max(m, 0) must be a normal float, got r0={r0!r}")
        elif not (math.isfinite(a0) and math.isfinite(w0)):
            out[i] = ValueError("All components of the initial state y0 must be finite.")
        else:
            idx.append(i)
            y0.append((a0, w0))
            r_end.append(rm)
    if not idx:
        return out

    lanes = [ivps[i] for i in idx]
    m = np.array([float(ivp.m) for ivp in lanes])
    r0 = np.array([float(ivp.r0) for ivp in lanes])
    ll1 = np.array([ivp.ell * (ivp.ell + 1.0) for ivp in lanes])
    S = np.array([float(ivp.source) for ivp in lanes])
    with np.errstate(over="ignore"):  # an inf 4 m^2 makes the stages nan: the lane fails
        params = np.stack([np.abs(2.0 * m), 4.0 * m * m, ll1, S])
    scale0 = np.array([_scale0(ivp) for ivp in lanes])
    threshold, atol = k_div * scale0, atol * scale0
    r_end, shift = np.array(r_end), _shift(m)
    dense, failed, crossed, n_steps, nfev = _lockstep(
        params, np.log(r0 - shift), np.array(y0).T, np.log(r_end - shift), rtol, atol, threshold)

    for i, exc in zip(idx, failed):
        out[i] = exc
    done = np.flatnonzero([exc is None for exc in failed])
    if not done.size:  # no lane reached its end
        return out

    # lane j of the batch is lane j of the dense output; a lane that crossed
    # k_div ends at r = exp(t) + 2 max(m, 0) for the root t that ends its table
    t_end = dense.keys.imag[dense.last[done]]
    a_end, w_end = dense(done, t_end)
    r_reached, hit = r_end[done], crossed[done]
    r_reached[hit] = np.exp(t_end[hit]) + _shift(m[done][hit])
    for j, r1, t1, a1, w1 in zip(done, r_reached, t_end, a_end, w_end):
        out[idx[j]] = ModeSolution(
            ivp=lanes[j], r_max_used=float(r1), diverged=bool(crossed[j]),
            n_steps=int(n_steps[j]), nfev=int(nfev[j]),
            end=(math.exp(t1), float(a1), float(w1)), _dense=(dense, int(j)))
    return out


def _scale0(ivp: ModeIVP) -> float:
    """|a(r0)|, or 1 for zero data: the lane's atol and k_div threshold scale with it."""
    return abs(ivp.a0) if ivp.a0 != 0.0 else 1.0


def _shift(m):
    """2 max(m, 0), so that s = r - _shift(m) vanishes at the singular point."""
    return 2.0 * np.maximum(m, 0.0)


# -- DOP853 in lockstep -------------------------------------------------------
#
# One lane per mode, lanes on the last axis of every array.  The tableau is
# scipy's (its DOP853 class attributes, vendored in _dop853) and the step
# control is scipy's (initial step, error norm, step factors, min_step,
# t_bound clipping, a terminal event ending the step that crosses it), per
# lane, so each lane takes the steps solve_ivp(method="DOP853") takes, up to
# rounding.  Stage sums run left to right over every tableau entry, zeros
# included (0 * inf is nan), as one np.add.reduce over the stage axis (see
# _combine): no tensordot or BLAS, which would reorder the sums.  A stage
# that is not finite makes the error norm nan and the step is rejected, as
# in scipy; the lane fails once its step drops below min_step.  The step
# factors take Python's float ** per lane: np.power rounds differently from
# C's pow on some arguments.

_N_STAGES = DOP853.n_stages
# (A[s, :s], C[s]) for the stages after the first, then for the three extra
# stages of the dense output; weights shaped (k, 1, 1) to broadcast over the
# stage values K[j], shape (2, lanes)
_STAGES = tuple(
    (DOP853.A[s, :s, None, None], float(DOP853.C[s])) for s in range(1, _N_STAGES)
)
_EXTRA_STAGES = tuple(
    (row[:s, None, None], float(c))
    for s, (row, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=_N_STAGES + 1)
)
_B = DOP853.B[:, None, None]
_E53 = np.array([DOP853.E5, DOP853.E3])[:, :, None, None]  # the two error estimators
_D = DOP853.D[:, :, None, None]
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _rhs(p, t, y):
    """(a, w)' in t = ln s; p holds 2|m|, 4m^2, l(l+1) and S per lane.

    s / rho^2 = 1 / (s + 2|m|), so no factor overflows before s itself.
    """
    two_abs_m, four_mm, ll1, S = p
    s = np.exp(t)
    q = s + two_abs_m
    return y[1] / q, (four_mm / q + ll1 * s) * y[0] - S / q


class _Dense:
    """The dense output of every lane of a batch, evaluated as scipy's OdeSolution.

    Segment k belongs to one lane, starts at t_old[k] with step h[k] and
    state y_old[:, k], ends at t_end (crossings may end it inside its step)
    and has scipy's Dop853DenseOutput coefficients F[:, :, k].  Its key is
    lane + i t_end (complex, so numpy orders keys by lane, then by t_end).
    One searchsorted of lane + i t over the keys, clipped to the lane's last
    segment, finds the segment scipy's OdeSolution picks for t.  The
    polynomial is scipy's: with x = (t - t_old) / h, Horner over the rows
    of F from the last, multiplying alternately by x and 1 - x, plus y_old.
    """

    def __init__(self, lane, t_old, h, y_old, F, t_end, n_lanes):
        """The accepted steps of a lockstep run over n_lanes lanes, in the order they
        were taken: per step its lane, t_old, h and t_end, and y_old (2, steps)
        and F (rows, 2, steps)."""
        order = np.argsort(lane, kind="stable")
        self.keys = _complex(lane[order], t_end[order])
        self.last = np.cumsum(np.bincount(lane, minlength=n_lanes)) - 1
        self.t_old, self.h = t_old[order], h[order]
        # per component: y_old as (segments,), F as (rows, segments)
        self.y_old = y_old[:, order]
        self.F = F[:, :, order].transpose(1, 0, 2).copy()

    def __call__(self, lane, t) -> tuple[np.ndarray, np.ndarray]:
        """(a, w) at the points t of the given lanes."""
        seg = np.minimum(np.searchsorted(self.keys, _complex(lane, t)), self.last[lane])
        return self._horner(0, seg, t), self._horner(1, seg, t)

    def _horner(self, c, seg, t):
        """Component c (0 for a, 1 for w) at the points t of the segments seg."""
        x = (t - self.t_old.take(seg)) / self.h.take(seg)
        one_minus_x, y = 1 - x, np.zeros(len(seg))
        for i, row in enumerate(self.F[c][::-1]):
            y += row.take(seg)
            y *= x if i % 2 == 0 else one_minus_x
        return y + self.y_old[c].take(seg)

    def crossings(self, lanes, threshold) -> np.ndarray:
        """Where |a| = threshold on the last segment of each of the lanes.

        Each lane's last step changed the sign of |a| - threshold.  One
        bisection in t halves every lane's bracket at once, each lane until
        its bracket is shorter than 4 eps (1 + |t|) at its midpoint t, so a
        lane's root does not depend on the other lanes.  Returns those
        midpoints, and ends each lane's last segment there.
        """
        seg = self.last[lanes]
        falling = np.abs(self.y_old[0].take(seg)) > threshold  # |a| comes down to it
        lo, hi = self.t_old.take(seg), self.keys.imag.take(seg)
        while True:
            mid = 0.5 * (lo + hi)
            open_ = ~(hi - lo < 4 * _EPS * (1 + np.abs(mid)))
            if not open_.any():
                break
            g = np.abs(self._horner(0, seg, mid)) - threshold
            past = open_ & np.where(falling, g <= 0, g >= 0)
            hi = np.where(past, mid, hi)
            lo = np.where(open_ & ~past, mid, lo)
        self.keys[seg] = _complex(lanes, mid)
        return mid

    def eval(self, lane, m, r) -> tuple[np.ndarray, np.ndarray]:
        """(a, a') of one lane, of mass m, at the radii r."""
        a, w = self(lane, np.log(r - _shift(m)))
        # divide twice: r(r-2m) overflows above r ~ 1e154, w / r / (r-2m) does
        # not; an a' past the float range reads inf
        with np.errstate(over="ignore"):
            return a, w / r / (r - 2.0 * m)


def _complex(real, imag) -> np.ndarray:
    z = np.empty(np.broadcast(real, imag).shape, dtype=complex)
    z.real, z.imag = real, imag
    return z


class _Lanes:
    """The per-lane arrays of a lockstep run, lanes on the last axis."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask):
        for name, value in vars(self).items():
            setattr(self, name, value[..., mask])


def _combine(weights, K):
    """sum(w[j] * K[j]) added left to right from 0.0, every term included.

    One rounding per product and per addition, in a fixed order, so a lane's
    sum does not depend on the other lanes.  weights has shape (..., k, 1, 1):
    one row of weights, or several rows summed side by side.  The sum is one
    np.add.reduce over the term axis, which is not the last axis: numpy then
    adds whole rows in turn, from the initial 0.0, as a loop over the terms
    would.  That order is an implementation detail, not part of numpy's API;
    TestScipyParity and the tests/data/default_sweep.csv fixture pin it.
    """
    return np.add.reduce(weights * K[:weights.shape[-3]], axis=-3, initial=0.0)


def _rms(u):
    return np.sqrt(u[0] * u[0] + u[1] * u[1]) / math.sqrt(2.0)


def _initial_step(p, t0, y0, f0, t_bound, rtol, atol):
    """scipy's select_initial_step for an order-7 error estimator, per lane."""
    length = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.where(length < h0, length, h0)
    f1 = np.array(_rhs(p, t0 + h0, y0 + h0 * f0))
    d2 = _rms((f1 - f0) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.array([
        max(1e-6, h * 1e-3) if small else q**-_ERROR_EXPONENT
        for h, small, q in zip(h0.tolist(), flat.tolist(),
                               (0.01 / np.where(d2 > d1, d2, d1)).tolist())
    ])
    h = 100 * h0
    h = np.where(h1 < h, h1, h)
    return np.where(length == 0, 0.0, np.where(length < h, length, h))


def _lockstep(p, t0, y0, t_bound, rtol, atol, threshold):
    """DOP853 on every lane of y0 (shape (2, n)) from t0 up to t_bound.

    Lane j integrates y' = _rhs(p[:, j], t, y) with absolute tolerance
    atol[j] and stops at t_bound[j] or at the end of the first step in which
    |y[0]| - threshold[j] changes sign; _Dense.crossings then ends every such
    lane's table at its root.  Returns the lanes' steps as a _Dense (None
    when every lane failed) and per lane the RuntimeError of a step below
    10 ulp of t or None, whether it crossed, its steps and its evaluations.
    """
    n = t0.size
    failed: list = [None] * n
    with np.errstate(all="ignore"):
        f0 = np.array(_rhs(p, t0, y0))
        s = _Lanes(
            lane=np.arange(n), p=p, t=t0, y=y0, f=f0, t_bound=t_bound, threshold=threshold,
            atol=atol,
            h_abs=_initial_step(p, t0, y0, f0, t_bound, rtol, atol),
            min_step=np.zeros(n), g=np.abs(y0[0]) - threshold,
            fresh=np.ones(n, dtype=bool), rejected=np.zeros(n, dtype=bool),
            nfev=np.full(n, 2), n_steps=np.zeros(n, dtype=int),
        )
        segments = []  # (lane, t_old, h, y_old, F, t_end) of each step's accepted segments
        crossed = np.zeros(n, dtype=bool)
        counts = np.zeros((2, n), dtype=int)  # n_steps, nfev

        while s.lane.size:
            if s.fresh.any():  # lanes starting a new step
                ms = 10 * np.abs(np.nextafter(s.t, np.inf) - s.t)
                s.min_step = np.where(s.fresh, ms, s.min_step)
                s.h_abs = np.where(s.fresh & (s.min_step > s.h_abs), s.min_step, s.h_abs)
                s.rejected &= ~s.fresh
            small = ~(s.h_abs >= s.min_step)
            if small.any():
                for j in s.lane[small]:
                    failed[j] = RuntimeError("mode integration failed: Required step"
                                             " size is less than spacing between numbers.")
                s.keep(~small)
                if not s.lane.size:
                    break

            p, t, y, f = s.p, s.t, s.y, s.f
            t_new = t + s.h_abs
            t_new = np.where(t_new - s.t_bound > 0, s.t_bound, t_new)
            h = t_new - t  # never negative: t_bound lies ahead of t
            K = np.empty((_N_STAGES + 1 + len(_EXTRA_STAGES), 2, t.size))
            K[0] = f
            for i, (row, c) in enumerate(_STAGES, start=1):
                K[i] = _rhs(p, t + c * h, y + _combine(row, K) * h)
            y_new = y + h * _combine(_B, K)
            K[_N_STAGES] = _rhs(p, t + h, y_new)

            ay, ay_new = np.abs(y), np.abs(y_new)
            scale = s.atol + np.where(ay_new > ay, ay_new, ay) * rtol
            e5, e3 = _combine(_E53, K) / scale
            n5 = e5[0] * e5[0] + e5[1] * e5[1]
            n3 = e3[0] * e3[0] + e3[1] * e3[1]
            err = h * n5 / np.sqrt((n5 + 0.01 * n3) * 2)
            err[(n5 == 0) & (n3 == 0)] = 0.0
            # a zero scale (atol = 0 and a zero state) makes the norm nan in scipy
            err[(scale == 0).any(axis=0)] = np.nan
            accept = err < 1
            # 0 ** (-1/8) is inf, where Python's ** raises
            factor = _SAFETY * np.array(
                [e**_ERROR_EXPONENT if e != 0 else math.inf for e in err.tolist()])
            grow = np.where(factor < _MAX_FACTOR, factor, _MAX_FACTOR)
            grow = np.where(s.rejected & ~(grow < 1), 1.0, grow)
            shrink = np.where(factor > _MIN_FACTOR, factor, _MIN_FACTOR)
            s.h_abs = h * np.where(accept, grow, shrink)
            s.rejected |= ~accept
            s.fresh = accept
            s.nfev += _N_STAGES
            if not accept.any():
                continue

            for i, (row, c) in enumerate(_EXTRA_STAGES, start=_N_STAGES + 1):
                K[i] = _rhs(p, t + c * h, y + _combine(row, K) * h)
            dy = y_new - y
            F = np.empty((3 + len(_D), 2, t.size))
            F[0] = dy
            F[1] = h * f - dy
            F[2] = 2 * dy - h * (K[_N_STAGES] + f)
            F[3:] = _combine(_D, h * K)  # h K first: D's weights reach 528
            s.nfev += len(_EXTRA_STAGES) * accept
            s.n_steps += accept
            s.t = np.where(accept, t_new, t)
            s.y = np.where(accept, y_new, y)
            s.f = np.where(accept, K[_N_STAGES], f)

            g_new = np.abs(s.y[0]) - s.threshold
            cross = accept & (((s.g <= 0) & (0 <= g_new)) | ((s.g >= 0) & (0 >= g_new)))
            s.g = np.where(accept, g_new, s.g)
            segments.append((s.lane[accept], t[accept], h[accept], y[:, accept],
                             F[:, :, accept], t_new[accept]))

            done = accept & (cross | ~(s.t < s.t_bound))
            ended = s.lane[done]
            crossed[ended] = cross[done]
            counts[:, ended] = s.n_steps[done], s.nfev[done]
            if done.any():
                s.keep(~done)

    if all(failed):
        return None, failed, crossed, *counts
    dense = _Dense(*(np.concatenate([seg[k] for seg in segments], axis=-1) for k in range(6)), n)
    ends = np.flatnonzero(crossed)
    dense.crossings(ends, threshold[ends])
    return dense, failed, crossed, *counts


# -- the growth coefficient ---------------------------------------------------
#
# Every quantity is scaled by a power of z = 1/u, so that it stays finite
# from z - 1 = s/|m| ~ 1e-12 to m = 0 (u = 0): dh = (z^2 - 1)/z^2 =
# v (1 + u) with v = s/(s + |m|), and the offsets d_k / z.  Then
# kappa = (z^2 - 1) Q'/Q = z (k2 - 2) with k2 = (l + 2) d_l / z, and
# log Q_l^2 = lq - (l + 1) log z with lq = log 2 - log dh - sum_k log(1 - d_k / z).

_FORWARD_EPS = 0.1  # the forward recurrence runs where z - 1 <= _FORWARD_EPS ...
_FORWARD_SPAN = 4.0  # ... and l arccosh(z) <= _FORWARD_SPAN, which bounds its error growth
_MILLER_SPAN = 20.0  # Miller's recurrence starts _MILLER_SPAN / arccosh(z) degrees above l
_SERIES = np.array([2.0 * k / (2.0 * k + 1.0) for k in range(30, 0, -1)])


def _initial_state(ivp: ModeIVP) -> tuple[float, float, float]:
    """(s0, a(r0), w(r0)), the state the closed-form readout starts from."""
    m, r0 = float(ivp.m), float(ivp.r0)
    return r0 - 2.0 * max(m, 0.0), float(ivp.a0), _rho2_times(m, r0, ivp.da0)


def _q2_offsets(u, v, eps, ell):
    """(sum_{k=2..l} log(1 - d_k/z), d_l/z) for degrees l >= 2.

    Forward from Q_1^2 = 2/(z^2-1) and the closed form of Q_2^2 where that is
    stable, else backward from Q_{N+1}^2 = 0; entries past a lane's l are unread.
    """
    dh = v * (1.0 + u)
    total, d_ell = np.zeros(u.size), np.zeros(u.size)
    with np.errstate(all="ignore"):
        eta = np.log1p(np.sqrt(dh)) - np.log(u)  # arccosh z, inf at m = 0
        fwd = (eps <= _FORWARD_EPS) & (ell * eta <= _FORWARD_SPAN)
        f, b = np.flatnonzero(fwd), np.flatnonzero(~fwd)
        e, lf, dh_f = eps[f], ell[f], dh[f]
        z, big_d = 1.0 + e, e * (2.0 + e)
        d_lam = big_d * 0.5 * np.log1p(2.0 / e)  # (z^2 - 1) arccoth z
        d = big_d * (3.0 * z * d_lam - 3.0 * z * z + 2.0) / (
            3.0 * big_d * d_lam - 3.0 * z * big_d + 2.0 * z) / z
        for k in range(2, int(lf.max(initial=0)) + 1):
            if k > 2:
                d = ((k - 2) * dh_f + (k + 1) * d) / ((k - 2) + (k + 1) * d)
            total[f] += np.where(k <= lf, np.log1p(-d), 0.0)
            d_ell[f] = np.where(k == lf, d, d_ell[f])
        lb, dh_b = ell[b], dh[b]
        top = lb + np.ceil(np.nan_to_num(_MILLER_SPAN / eta[b])).astype(int)
        d = np.zeros(b.size)
        for k in range(int(top.max(initial=0)), 1, -1):
            d = np.where(k == top, -(k - 1.0) / (k + 2.0),
                         (k - 1.0) * (d - dh_b) / ((k + 2.0) * (1.0 - d)))
            total[b] += np.where(k <= lb, np.log1p(-d), 0.0)
            d_ell[b] = np.where(k == lb, d, d_ell[b])
    return total, d_ell


def _legendre_q2(s, abs_m, ell):
    """(lq, k2, u) of Q_l^2 at z = 1 + s/|m| = 1/u: log Q_l^2 = lq + (l + 1) log u.

    k2 = kappa/z + 2 with kappa = (z^2 - 1) Q'/Q.  At m = 0, u = 0 and
    Q_l^2 is r^(-l-1) up to a constant factor.
    """
    q = s + abs_m
    u, v = abs_m / q, s / q
    with np.errstate(divide="ignore"):
        eps = s / abs_m  # read only where the forward recurrence runs
    dh = v * (1.0 + u)
    lq, k2 = np.log(2.0) - np.log(dh), np.where(ell == 0, dh, 0.0)
    hi = np.flatnonzero(ell >= 2)
    total, d_ell = _q2_offsets(u[hi], v[hi], eps[hi], ell[hi])
    lq[hi] -= total
    k2[hi] = (ell[hi] + 2) * d_ell
    return lq, k2, u


def _gap(u, k2, ell):
    """(kappa_Q - kappa_G) / z at z = 1/u, for the G of degree ell."""
    out = np.where(ell == 0, -(1.0 + u) ** 2, -3.0 * (1.0 + u) ** 2 / (1.0 + 2.0 * u))
    u2, pi, pi_ell = u * u, np.zeros(u.size), np.zeros(u.size)
    for nu in range(1, int(ell.max()) - 1):  # z P_{k-1}^2 / P_k^2, forward from P_1^2 = 0
        pi = nu / ((2.0 * nu + 3.0) - (nu + 3.0) * u2 * pi)
        pi_ell = np.where(ell == nu + 2, pi, pi_ell)
    hi = ell >= 2
    out[hi] = (ell[hi] + 2) * (pi_ell[hi] * u2[hi] - 1.0) + k2[hi]
    return out


def _readout(state, abs_m, ell, S):
    """(lq, k2, u) of _legendre_q2 and W(a - a_p, Q) / (z Q) at each state (s, a, w)."""
    s, a, w = state
    lq, k2, u = _legendre_q2(s, abs_m, ell)
    q, eps = s + abs_m, s / abs_m
    dh = (s / q) * (1.0 + u)
    sz = np.where(S == 0.0, 0.0, S / abs_m / q)  # S / (m^2 z); |m| q may underflow
    # z - (z^2 - 1) arccoth z, by its series in 1/z^2 for z >= 2
    z_minus = np.where(u > 0.5, 1.0 + eps - eps * (2.0 + eps) * 0.5 * np.log1p(2.0 / eps),
                       dh * u * np.polyval(_SERIES, u * u))
    # W(a_p, Q) / (z Q)
    p = np.where(ell == 1, -0.5 * sz * z_minus, sz * u * k2 / ((ell * (ell + 1.0) - 2.0) * dh))
    return lq, k2, u, a * (k2 - 2.0) - w / q - p


def _growth(m, ell, S, start, end):
    """alpha read from the states start (at r0) and end, each (s, a, w) per mode."""
    abs_m = np.abs(m)
    with np.errstate(all="ignore"):
        lq0, k2, u0, numer0 = _readout(start, abs_m, ell, S)
        lq1, _, _, numer1 = _readout(end, abs_m, ell, S)
        # G is 1 at r0; at l = 0 it is 1 at infinity and (z0-1)/(z0+1) at r0
        q0 = start[0] + abs_m
        scale = np.where(ell == 0, (1.0 + u0) * q0 / start[0], 1.0) / _gap(u0, k2, ell)
        shift = lq1 - lq0 - ell * np.log((end[0] + abs_m) / q0)
        return numer0 * scale, np.exp(shift) * numer1 * scale


def classify(sol: ModeSolution) -> AsymptoticClass:
    """The class of one integrated mode: classify_modes on a batch of one."""
    return classify_modes([sol])[0]


def classify_modes(sols: list[ModeSolution]) -> list[AsymptoticClass]:
    """The class of every mode from the sign of its growth coefficient alpha.

    alpha is read at r0 and where the lane ended, for the whole batch in one
    array pass; a readout that is not a finite float, or a disagreement
    beyond ALPHA_RTOL, is Undetermined with its reason.
    """
    if not sols:
        return []
    ell = np.array([sol.ivp.ell for sol in sols])
    m, S = np.array([(float(sol.ivp.m), float(sol.ivp.source)) for sol in sols]).T
    start = np.array([_initial_state(sol.ivp) for sol in sols]).T
    alpha, alpha_end = _growth(m, ell, S, start, np.array([sol.end for sol in sols]).T)
    with np.errstate(all="ignore"):
        drift = np.where(alpha_end == alpha, 0.0, np.abs(alpha_end / alpha - 1.0))
    out = []
    for sol, a, a_end, da, l in zip(sols, alpha.tolist(), alpha_end.tolist(), drift.tolist(), ell):
        kind, reason = AsymptoticKind.UNDETERMINED, None
        if not math.isfinite(a):
            reason = "the closed-form readout at r0 is not a finite float"
        elif not math.isfinite(a_end):
            reason = "the readout where the lane ended is not a finite float"
        elif not da <= ALPHA_RTOL:
            reason = f"the two readouts disagree: alpha_drift {da:.3g} > {ALPHA_RTOL:g}"
        elif a == 0.0:
            kind = AsymptoticKind.DECAYS_TO_ZERO
        elif l == 0:
            kind = AsymptoticKind.CONVERGES_NONZERO
        else:
            kind = AsymptoticKind.DIVERGES_PLUS if a > 0 else AsymptoticKind.DIVERGES_MINUS
        out.append(AsymptoticClass(kind, a, da, float(sol.r_max_used), reason))
    return out
