"""Per-mode radial ODE: integration, substitutions, classification.

Each spherical-harmonic coefficient a(r) of the scalar deformation obeys

    (r(r-2m) a')' = (4 m^2 / (r(r-2m)) + l(l+1)) a - S / (r(r-2m)),
    a'(r0) = (l(l+1) - 2m/r0) a(r0) / (2 (r0 - 2m)),

where the constant S = 2m ((4m - r0) a(r0) + r0 (r0 - 2m) a'(r0)) comes from
the boundary data; S is regular in m, so the integrator never divides
by m.  The order does not enter; only the degree l matters.

Every lane steps in one scale-free variable, t = ln s with
s = r - 2 max(m, 0), from ln s0 out to r_max = outer_radius(m, r0), deep in
the tail r >> |m| where the limit and decay-rate fits are read.
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
stops early where |a| first reaches k_div |a(r0)|.  The equation is
regular in m, so one integrator serves every mass: m = 0, the flat member
of the family, is an Euler equation whose closed form c1 r^(-l-1) + c2 r^l
the tests keep as the independent check of the integrator.  The problem is
linear in a(r0), so a lane's absolute tolerance is scaled by |a(r0)| (1 for
zero data), as its k_div threshold is.  A lane fails like a lane the solver
gives up on if s0 is not a normal float (exp(ln s0) would lose digits), its
initial state or r_max is not finite, or a sample of a' = w / rho^2 is not.

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

Sampling and classification are array passes over the whole batch too.
integrate_modes forms every mode's sample radii in one vectorised
geomspace in r and evaluates all modes in one lookup and one Horner pass
over a single segment table of every lane.  classify_modes applies
the tail masks and the divergence, smallness and oscillation tests to the
concatenated samples of all modes and runs only the least-squares fits per
mode.  Both reproduce the per-mode computations bit for bit:
ModeSolution.eval, integrate_mode and classify are batches of one.

The verdict settings are module constants, the same for every sweep: the
solver tolerances DEFAULT_RTOL and DEFAULT_ATOL, the extent factor
R_MAX_FACTOR of outer_radius, the divergence factor K_DIV,
the smallness fraction EPS_DEC, the decay-slope threshold DECAY_Q and the
Cauchy tolerance CAUCHY_RTOL.  integrate_mode and integrate_modes take rtol,
atol and k_div with these defaults; selftest's mode/PDE suite tightens them.

Substitution constant: alpha0 = (3/2 + r0 (l(l+1)-2)/(4m)) a(r0), None
where that is not a finite float (m = 0 included).
Derived views: A = a - alpha0, phi = r(r-2m) A, Phi = 2(r-m) A / (r(r-2m)) + A'.
"""

from __future__ import annotations

import enum
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._dop853 import DOP853
from .background import SchwarzschildParams

__all__ = [
    "ModeIVP",
    "ModeSolution",
    "AsymptoticKind",
    "AsymptoticClass",
    "make_ivp",
    "outer_radius",
    "integrate_mode",
    "integrate_modes",
    "classify",
    "classify_modes",
]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
R_MAX_FACTOR = 1e6  # a mode runs out to R_MAX_FACTOR max(r0, 2|m|)
K_DIV = 1e3  # a mode has diverged once |a| reaches K_DIV |a(r0)|
EPS_DEC = 1e-4  # small means below EPS_DEC |a(r0)|
DECAY_Q = 0.75  # a decaying tail falls at least like r^(-DECAY_Q)
CAUCHY_RTOL = 1e-3  # a converging tail may move by this fraction of its limit
TAIL_SPAN = 10.0  # the tail is the samples beyond the last radius / TAIL_SPAN, at least 8


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


def outer_radius(m: float, r0: float) -> float:
    """The radius a mode is integrated out to: R_MAX_FACTOR * max(r0, 2|m|).

    The classifier reads the tail r >> |m|, which a run out to a multiple of
    r0 alone misses when r0 << |m| (m < 0).  inf where the product
    overflows; integrate_modes fails such a lane with a ValueError.
    """
    return R_MAX_FACTOR * max(float(r0), 2.0 * abs(float(m)))


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
    fitted_limit: float
    fitted_exponent: float
    r_max: float


@dataclass
class ModeSolution:
    """Radial samples of one mode and its derived views."""

    ivp: ModeIVP
    radii: np.ndarray
    a: np.ndarray
    da: np.ndarray
    r_max_used: float
    diverged: bool
    n_steps: int = 0  # accepted DOP853 steps in t = ln s
    nfev: int = 0  # right-hand-side evaluations
    sample_s: float = 0.0  # this mode's share of its batch's one sampling pass
    # (batch dense output, this mode's lane in it)
    _dense: tuple | None = field(default=None, repr=False)

    @property
    def stop(self) -> str:
        """Why integration ended: the |a| = k_div |a0| crossing or r_max."""
        return "k_div" if self.diverged else "r_max"

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


def _sample_radii(r0, r_end, per_decade=48):
    """Every mode's sample radii, concatenated, with each mode's first index and count.

    Mode j gets np.geomspace(r0[j], r_end[j], n) with
    n = max(64, ceil(per_decade * decades) + 1), computed as geomspace
    computes it: y = i * step + log10(r0), the last y set to log10(r_end),
    then 10 ** y, then both ends set exactly.
    """
    log0, log1 = np.log10(r0), np.log10(r_end)
    count = np.maximum(64, np.ceil(per_decade * np.log10(r_end / r0)).astype(int) + 1)
    first = np.cumsum(count) - count
    last = first + count - 1
    lane = np.repeat(np.arange(count.size), count)
    i = (np.arange(lane.size) - first[lane]).astype(float)
    y = i * ((log1 - log0) / (count - 1))[lane] + log0[lane]
    y[last] = log1
    radii = 10.0 ** y
    radii[first], radii[last] = r0, r_end
    return radii, first, count


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
    and k_div threshold are scaled by its |a(r0)| (1 for zero data).  All
    modes are then sampled in one pass over the batch's dense output; each
    solution's sample_s is its share of that pass.

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

    t0 = time.perf_counter()
    # lane j of the batch is lane j of the dense output
    sols = _sampled([lanes[j] for j in done], dense, done, r_end[done], crossed[done])
    sample_s = (time.perf_counter() - t0) / len(done)
    for j, sol in zip(done, sols):
        if isinstance(sol, ModeSolution):
            sol.sample_s, sol.n_steps, sol.nfev = sample_s, int(n_steps[j]), int(nfev[j])
        out[idx[j]] = sol
    return out


def _scale0(ivp: ModeIVP) -> float:
    """|a(r0)|, or 1 for zero data: the lane's atol and k_div threshold scale with it."""
    return abs(ivp.a0) if ivp.a0 != 0.0 else 1.0


def _shift(m):
    """2 max(m, 0), so that s = r - _shift(m) vanishes at the singular point."""
    return 2.0 * np.maximum(m, 0.0)


def _sampled(ivps, dense: "_Dense", lanes, r_end, crossed) -> list[ModeSolution | ValueError]:
    """The stepped solutions sampled on their radii, in one pass over the dense output.

    Mode j is lane lanes[j] of dense; a mode with a sample of a' that is not
    a finite float is a ValueError.  A mode that reached its bound ends at
    r_end[j] exactly, one that crossed k_div at r = exp(t) + 2 max(m, 0) for
    the root t that ends its table.
    """
    m = np.array([float(ivp.m) for ivp in ivps])
    r_reached = r_end.copy()
    t_root = dense.keys.imag[dense.last[lanes[crossed]]]
    r_reached[crossed] = np.exp(t_root) + _shift(m[crossed])
    r0 = np.array([float(ivp.r0) for ivp in ivps])
    radii, first, count = _sample_radii(r0, r_reached)
    lane = np.repeat(np.arange(len(ivps)), count)
    with np.errstate(over="ignore"):  # an a' past the floats fails its mode below
        a, da = dense.eval(lanes[lane], m[lane], radii)
    bad = np.bincount(lane, ~np.isfinite(da), minlength=len(ivps)) > 0
    out = []
    for j, ivp in enumerate(ivps):
        lo, hi = first[j], first[j] + count[j]
        out.append(ValueError("a'(r) = w / (r (r - 2m)) leaves the floats") if bad[j] else
                   ModeSolution(ivp=ivp, radii=radii[lo:hi], a=a[lo:hi], da=da[lo:hi],
                                r_max_used=float(r_reached[j]), diverged=bool(crossed[j]),
                                _dense=(dense, int(lanes[j]))))
    return out


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
        """(a, a') at the radii r: per radius its lane and mass, or one of each for all."""
        a, w = self(lane, np.log(r - _shift(m)))
        # divide twice: r(r-2m) overflows above r ~ 1e154, w / r / (r-2m) does not
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


def classify(sol: ModeSolution) -> AsymptoticClass:
    """Asymptotic trichotomy of an integrated mode.

    DecaysToZero requires both smallness (below EPS_DEC |a(r0)|) at the end
    of the run and a log-log decay slope at least as steep as -DECAY_Q;
    divergence requires crossing K_DIV |a(r0)| with a consistent sign and
    increasing trend; convergence requires a tail that moves by at most
    CAUCHY_RTOL of its limit, with the limit above the smallness threshold.
    Anything else is Undetermined.  This is classify_modes on a batch of
    one; a failed fit is raised.
    """
    klass = classify_modes([sol])[0]
    if isinstance(klass, Exception):
        raise klass
    return klass


def classify_modes(sols: list[ModeSolution]) -> list[AsymptoticClass | Exception]:
    """classify for every solution at once.

    The tail (the samples beyond the last radius over TAIL_SPAN, at least
    the last 8), the divergence tests on the last 6 samples, the smallness tests
    and the oscillation run on the concatenated samples of all modes.  Only
    the least-squares fits run per mode, each on exactly np.polyfit's
    column-scaled Vandermonde, so every class equals the one the mode gets
    alone.  Returns, in the order of sols, an AsymptoticClass or the
    LinAlgError of a failed fit.
    """
    if not sols:
        return []
    n_modes = len(sols)
    count = np.array([len(sol.radii) for sol in sols])
    first = np.cumsum(count) - count
    last = first + count - 1
    lane = np.repeat(np.arange(n_modes), count)
    from_end = last[lane] - np.arange(lane.size)  # 0 at each mode's last sample
    r = np.concatenate([sol.radii for sol in sols])
    a = np.concatenate([sol.a for sol in sols])
    a0 = np.array([float(sol.ivp.a0) for sol in sols])

    with np.errstate(invalid="ignore"):
        abs_a = np.abs(a)
        peak = np.maximum.reduceat(abs_a, first)
        scale0 = np.where(a0 != 0.0, np.abs(a0), np.where(1.0 > peak, 1.0, peak))
        near = r >= (r[last] / TAIL_SPAN)[lane]
        in_tail = np.where((np.bincount(lane[near], minlength=n_modes) >= 8)[lane],
                           near, from_end < 8)
        r_tail, a_tail, tail_lane = r[in_tail], a[in_tail], lane[in_tail]
        tail_count = np.bincount(tail_lane, minlength=n_modes)
        tail_first = np.cumsum(tail_count) - tail_count
        mag = np.abs(a_tail)

        # divergence: the last 6 samples grow in size and keep the last one's sign
        diverging = np.array([sol.diverged for sol in sols]) | (peak >= K_DIV * scale0)
        last6 = from_end < 6
        shrinks = last6[:-1] & (from_end[:-1] > 0) & ~(np.diff(abs_a) >= 0)
        growing = np.bincount(lane[:-1][shrinks], minlength=n_modes) == 0
        sign = np.sign(a)
        flips = last6 & ~(sign == sign[last][lane])
        sign_ok = (np.bincount(lane[flips], minlength=n_modes) == 0) & (a[last] != 0)

        zero = ~diverging & (np.maximum.reduceat(mag, tail_first) == 0.0)
        osc = np.maximum.reduceat(a_tail, tail_first) - np.minimum.reduceat(a_tail, tail_first)

    errors: list = [None] * n_modes
    # log-log decay slope, on the tail samples with a != 0
    slope = [math.nan] * n_modes
    good = mag > 0
    fit = ~zero & (np.bincount(tail_lane[good], minlength=n_modes) >= 2)
    pts = good & fit[tail_lane]
    fits = _polyfits(np.log(r_tail[pts]), np.log(mag[pts]),
                     np.bincount(tail_lane[pts], minlength=n_modes), 1)
    for j, c in enumerate(fits):
        if isinstance(c, Exception):
            errors[j] = c
        elif c is not None:
            slope[j] = float(c[0])
    # limit: quadratic (linear for 6 samples or fewer) extrapolation in
    # t = min(r_tail) / r_tail to t = 0, as np.polyval(coefficients, 0.0)
    limit = [math.nan] * n_modes
    t = np.minimum.reduceat(r_tail, tail_first)[tail_lane] / r_tail
    for deg in (1, 2):
        pts = (~diverging & ~zero & ((tail_count > 6) == (deg == 2)))[tail_lane]
        for j, c in enumerate(_polyfits(t[pts], a_tail[pts],
                                        np.bincount(tail_lane[pts], minlength=n_modes), deg)):
            if isinstance(c, Exception):
                errors[j] = c  # the limit is fitted first
            elif c is not None:
                y = 0.0
                for pv in c.tolist():
                    y = y * 0.0 + pv
                limit[j] = y

    out: list = []
    a_end, r_end = a[last].tolist(), [float(sol.r_max_used) for sol in sols]
    for j in range(n_modes):
        scale = float(scale0[j])
        if errors[j] is not None:
            klass = errors[j]
        elif diverging[j]:
            kind = AsymptoticKind.UNDETERMINED
            if growing[j] and sign_ok[j]:
                kind = (AsymptoticKind.DIVERGES_PLUS if a_end[j] > 0
                        else AsymptoticKind.DIVERGES_MINUS)
            klass = AsymptoticClass(kind, a_end[j], slope[j], r_end[j])
        elif zero[j]:
            klass = AsymptoticClass(AsymptoticKind.DECAYS_TO_ZERO, 0.0, math.nan, r_end[j])
        elif abs(a_end[j]) < EPS_DEC * scale and slope[j] <= -DECAY_Q:
            klass = AsymptoticClass(AsymptoticKind.DECAYS_TO_ZERO, limit[j], slope[j], r_end[j])
        elif abs(limit[j]) > EPS_DEC * scale and osc[j] <= CAUCHY_RTOL * abs(limit[j]):
            klass = AsymptoticClass(AsymptoticKind.CONVERGES_NONZERO, limit[j], slope[j], r_end[j])
        else:
            klass = AsymptoticClass(AsymptoticKind.UNDETERMINED, limit[j], slope[j], r_end[j])
        out.append(klass)
    return out


def _polyfits(x, y, count, deg: int) -> list:
    """np.polyfit(x_j, y_j, deg) for consecutive runs of count[j] points.

    Returns per run the coefficients, the LinAlgError of a failed fit, or
    None for an empty run.  The Vandermonde matrix, its column norms (summed
    point by point, as polyfit's sum(axis=0) adds them) and the scaling are
    formed for all runs at once; np.linalg.lstsq runs per run, on exactly
    polyfit's matrix and rcond, so the coefficients are polyfit's.
    """
    order = deg + 1
    x, y = x + 0.0, y + 0.0
    first = np.cumsum(count) - count
    run = np.repeat(np.arange(count.size), count)
    lhs = np.empty((x.size, order))
    lhs[:, -1] = 1.0
    for k in range(1, order):  # x, x * x, ... as np.vander builds them
        lhs[:, -1 - k] = x if k == 1 else lhs[:, -k] * x
    squares = np.zeros((count.max(initial=0), count.size, order))
    squares[np.arange(x.size) - first[run], run] = lhs * lhs
    scale = np.sqrt(squares.sum(axis=0))
    lhs /= scale[run]
    out: list = [None] * count.size
    for j in np.flatnonzero(count).tolist():
        lo, hi = first[j], first[j] + count[j]
        try:
            c, _, rank, _ = np.linalg.lstsq(lhs[lo:hi], y[lo:hi], count[j] * _EPS)
        except np.linalg.LinAlgError as exc:
            out[j] = exc
            continue
        if rank != order:
            warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning,
                          stacklevel=3)
        out[j] = c / scale[j]
    return out
