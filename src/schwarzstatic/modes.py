"""Per-mode radial ODE: integration, substitutions, classification, verdicts.

Each spherical-harmonic coefficient a(r) of the scalar deformation obeys

    (r(r-2m) a')' = (4 m^2 / (r(r-2m)) + l(l+1)) a - S / (r(r-2m)),
    a'(r0) = (l(l+1) - 2m/r0) a(r0) / (2 (r0 - 2m)),

where the constant S = 2m ((4m - r0) a(r0) + r0 (r0 - 2m) a'(r0)) comes from
the boundary data; S is regular in m, so the generic integrator never divides
by m.  The order does not enter; only the degree l matters.

Integration runs in r out to a phase-switch radius and then in the
compactified variable x = 1/r, which resolves the far tail out to
r_max = r_max_factor * r0 for limit and decay-rate fits.  It stops early
where |a| first reaches k_div |a(r0)|.  For m = 0 (or |m| below a relative
threshold) the equation is an Euler equation with the closed-form solution
c1 r^(-l-1) + c2 r^l, used directly and flagged; its stop is the root of
the closed form, so both branches stop at the same crossing.

Both phases use DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10)
stepped on the float pair (a, w) in this module, with scipy's tableau and
scipy's step control, so the steps are solve_ivp's up to rounding.  On a
two-component system solve_ivp's per-step array handling costs about three
times the method itself; the tests keep solve_ivp as the independent check.

Substitution constants (m != 0): alpha0 = (3/2 + r0 (l(l+1)-2)/(4m)) a(r0),
beta0 = 4 m^2 alpha0 / (l(l+1)-2) for l != 1.  Derived views: A = a - alpha0,
phi = r(r-2m) A, Phi = 2(r-m) A / (r(r-2m)) + A', B = a - beta0/(r(r-2m)).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from operator import mul

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from .background import SchwarzschildParams

__all__ = [
    "FLAT_MASS_RTOL",
    "ModeIVP",
    "ModeSolution",
    "AsymptoticKind",
    "AsymptoticClass",
    "KernelVerdict",
    "PositivityReport",
    "make_ivp",
    "integrate_mode",
    "classify",
    "verify_kernel_trivial",
    "comparison_positivity",
]

FLAT_MASS_RTOL = 1e-8  # |m| < FLAT_MASS_RTOL * r0 runs the flat branch
PHASE_SWITCH = 1e3  # switch from r to x = 1/r at PHASE_SWITCH * r0
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
CAUCHY_RTOL = 1e-3  # a converging tail may move by this fraction of its limit


@dataclass(frozen=True)
class ModeIVP:
    """Initial value problem for one mode coefficient."""

    params: SchwarzschildParams
    ell: int
    a0: float
    da0: float
    source: float  # ODE source constant S
    alpha0: float | None
    beta0: float | None
    flat_branch: bool

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
    flat = abs(m) < FLAT_MASS_RTOL * r0
    if flat:
        da0 = ll1 / (2.0 * r0) * a0
        return ModeIVP(
            params=params, ell=ell, a0=a0, da0=da0, source=0.0,
            alpha0=None, beta0=None, flat_branch=True,
        )
    da0 = (ll1 - 2.0 * m / r0) * a0 / (2.0 * (r0 - 2.0 * m))
    source = 2.0 * m * ((4.0 * m - r0) * a0 + r0 * (r0 - 2.0 * m) * da0)
    alpha0 = (1.5 + r0 / (4.0 * m) * (ll1 - 2.0)) * a0
    beta0 = 4.0 * m * m * alpha0 / (ll1 - 2.0) if ell != 1 else None
    return ModeIVP(
        params=params, ell=ell, a0=a0, da0=da0, source=source,
        alpha0=alpha0, beta0=beta0, flat_branch=False,
    )


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
    flat_coeffs: tuple[float, float] | None = None  # (c1, c2) of the Euler solution
    n_steps: int = 0  # accepted DOP853 steps over both phases (0 on the flat branch)
    nfev: int = 0  # right-hand-side evaluations over both phases
    # (interpolant in r, interpolant in x = 1/r or None, switch radius)
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

    @property
    def B(self) -> np.ndarray | None:
        if self.ivp.beta0 is None:
            return None
        r = self.radii
        return self.a - self.ivp.beta0 / r / (r - 2.0 * self.ivp.m)

    def eval(self, r) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate (a, a') at arbitrary radii within the integrated range."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r < self.ivp.r0) or np.any(r > self.r_max_used * (1 + 1e-12)):
            raise ValueError("evaluation outside the integrated range")
        if self.flat_coeffs is not None:
            return _flat_eval(self.ivp, self.flat_coeffs, r)
        dense_r, dense_x, r_switch = self._dense
        tail = r > r_switch if dense_x is not None else np.zeros(r.shape, dtype=bool)
        y = np.empty((2, r.size))
        y[:, ~tail] = dense_r(r[~tail])
        if tail.any():
            y[:, tail] = dense_x(1.0 / r[tail])
        # divide twice: r(r-2m) overflows above r ~ 1e154, w / r / (r-2m) does not
        return y[0], y[1] / r / (r - 2.0 * self.ivp.m)


def _flat_coeffs(ivp: ModeIVP) -> tuple[float, float]:
    """Euler-solution coefficients from the initial data (m treated as 0)."""
    ell, r0, a0, da0 = ivp.ell, ivp.r0, ivp.a0, ivp.da0
    if ell == 0:
        return -(r0 * r0) * da0, a0 + r0 * da0  # a = c1/r + c2
    mat = np.array(
        [
            [r0 ** (-ell - 1), r0**ell],
            [-(ell + 1) * r0 ** (-ell - 2), ell * r0 ** (ell - 1)],
        ]
    )
    c1, c2 = np.linalg.solve(mat, np.array([a0, da0]))
    return float(c1), float(c2)


def _flat_eval(ivp: ModeIVP, coeffs, r):
    c1, c2 = coeffs
    ell = ivp.ell
    a = c1 * r ** (-ell - 1.0) + c2 * r ** (1.0 * ell)
    da = -(ell + 1.0) * c1 * r ** (-ell - 2.0) + ell * c2 * r ** (ell - 1.0)
    return a, da


def _sample_radii(r0, r_max, per_decade=48):
    decades = np.log10(r_max / r0)
    n = max(64, int(np.ceil(per_decade * decades)) + 1)
    return np.geomspace(r0, r_max, n)


def integrate_mode(
    ivp: ModeIVP,
    r_max: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    k_div: float = 1e3,
    force_generic: bool = False,
) -> ModeSolution:
    """Integrate the first-order system (a, w = r(r-2m) a') out to r_max.

    Integration terminates early once |a| crosses k_div * |a(r0)| (the mode
    has certifiably diverged); r_max_used records the reached radius.
    """
    if r_max <= ivp.r0:
        raise ValueError("r_max must exceed r0")
    scale0 = abs(ivp.a0) if ivp.a0 != 0.0 else 1.0
    threshold = k_div * scale0

    if ivp.flat_branch and not force_generic:
        coeffs = _flat_coeffs(ivp)
        radii = _sample_radii(ivp.r0, r_max)
        a, da = _flat_eval(ivp, coeffs, radii)
        above = np.abs(a) >= threshold
        div = bool(above.any())
        if div:
            stop = int(np.argmax(above))
            if stop == 0:
                radii, a, da = radii[:1], a[:1], da[:1]
            else:
                # the crossing itself, as the generic branch's event finds it
                r_cross = brentq(
                    lambda r: abs(_flat_eval(ivp, coeffs, np.float64(r))[0]) - threshold,
                    radii[stop - 1], radii[stop], xtol=4 * _EPS, rtol=4 * _EPS,
                )
                radii = _sample_radii(ivp.r0, r_cross)
                a, da = _flat_eval(ivp, coeffs, radii)
        return ModeSolution(
            ivp=ivp, radii=radii, a=a, da=da,
            r_max_used=float(radii[-1]), diverged=div, flat_coeffs=coeffs,
        )

    m, r0, S = float(ivp.m), float(ivp.r0), float(ivp.source)
    ll1 = ivp.ell * (ivp.ell + 1.0)

    def rhs_r(r, a, w):
        rho2 = r * (r - 2.0 * m)
        return w / rho2, (4.0 * m * m / rho2 + ll1) * a - S / rho2

    def rhs_x(x, a, w):
        omx = 1.0 - 2.0 * m * x
        return -w / omx, -(4.0 * m * m / omx) * a - ll1 * a / (x * x) + S / omx

    y0 = (float(ivp.a0), r0 * (r0 - 2.0 * m) * float(ivp.da0))
    r_switch = min(float(r_max), PHASE_SWITCH * r0)
    x_switch, x_max = 1.0 / r_switch, 1.0 / float(r_max)
    try:
        run = _dop853(rhs_r, r0, y0, r_switch, rtol, atol, threshold)
    except RuntimeError as exc:
        raise RuntimeError(f"mode integration failed: {exc}") from None
    diverged, r_reached = run.crossed, run.t
    n_steps, nfev = run.n_steps, run.nfev
    dense_x = None
    if not diverged and x_max < x_switch:
        try:
            tail = _dop853(rhs_x, x_switch, run.y, x_max, rtol, atol, threshold)
        except RuntimeError as exc:
            raise RuntimeError(f"tail integration failed: {exc}") from None
        diverged, r_reached = tail.crossed, 1.0 / tail.t
        n_steps, nfev = n_steps + tail.n_steps, nfev + tail.nfev
        dense_x = tail.dense

    radii = _sample_radii(r0, r_reached)
    out = ModeSolution(
        ivp=ivp, radii=radii, a=np.empty_like(radii), da=np.empty_like(radii),
        r_max_used=r_reached, diverged=diverged, n_steps=n_steps, nfev=nfev,
        _dense=(run.dense, dense_x, r_switch),
    )
    out.a, out.da = out.eval(radii)
    return out


# -- DOP853 on the pair (a, w) ----------------------------------------------
#
# solve_ivp spends nearly all of a mode's time in per-step numpy calls on
# length-2 arrays.  _dop853 runs the same method on Python floats: the
# tableau is scipy's (the public DOP853 class attributes) and the step
# control is scipy's (initial step, error norm, step factors, min_step,
# t_bound clipping, terminal event by brentq on the step's dense output),
# so it takes the steps solve_ivp(method="DOP853") takes, up to rounding.
# A stage that is not finite makes the error norm nan and the step is
# rejected, as in scipy; the run fails once the step drops below min_step.

_N_STAGES = DOP853.n_stages
# (A[s, :s], C[s]) for the stages after the first, then for the three
# extra stages of the dense output
_STAGES = tuple(
    (tuple(map(float, DOP853.A[s, :s])), float(DOP853.C[s])) for s in range(1, _N_STAGES)
)
_EXTRA_STAGES = tuple(
    (tuple(map(float, row[:s])), float(c))
    for s, (row, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=_N_STAGES + 1)
)
_B = tuple(map(float, DOP853.B))
_E3 = tuple(map(float, DOP853.E3))
_E5 = tuple(map(float, DOP853.E5))
_D = tuple(tuple(map(float, row)) for row in DOP853.D)
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EPS = float(np.finfo(float).eps)


class _Dop853Dense:
    """Piecewise dense output of one run, evaluated as scipy's OdeSolution.

    Segment k covers [ts[k], ts[k+1]] (the last one may end at an event
    root inside its step) with scipy's Dop853DenseOutput polynomial: with
    x = (t - t_old[k]) / h[k], Horner over the rows of F[k] from the last,
    multiplying alternately by x and 1 - x, plus y_old[k].
    """

    def __init__(self, ts, t_old, h, y_old, F):
        self.ts = np.array(ts)
        self.t_old = np.array(t_old)
        self.h = np.array(h)
        self.y_old = np.array(y_old)
        self.F = np.array(F).reshape(-1, 2, 7).transpose(0, 2, 1)  # [k, row, component]

    def __call__(self, t) -> np.ndarray:
        """(a, w) at the points t, shape (2, len(t))."""
        n = len(self.h)
        if self.ts[-1] >= self.ts[0]:
            seg = np.searchsorted(self.ts, t, side="left") - 1
        else:
            seg = n - np.searchsorted(self.ts[::-1], t, side="right")
        seg = np.clip(seg, 0, n - 1)
        x = ((t - self.t_old[seg]) / self.h[seg])[:, None]
        F = self.F[seg]
        y = np.zeros((len(seg), 2))
        for i in range(F.shape[1]):
            y += F[:, -1 - i]
            y *= x if i % 2 == 0 else 1 - x
        y += self.y_old[seg]
        return y.T


@dataclass(frozen=True)
class _Run:
    dense: _Dop853Dense
    t: float  # t_bound, or the root of the event
    y: tuple[float, float]
    crossed: bool  # stopped where |a| = threshold
    n_steps: int
    nfev: int


def _ieee(fun):
    """fun with IEEE results (inf, nan) where Python float arithmetic raises.

    scipy evaluates the right-hand side on numpy scalars, where x / 0 is inf
    or nan; the step that meets it is rejected rather than aborted.
    """

    def safe(t, a, w):
        try:
            return fun(t, a, w)
        except ZeroDivisionError:
            with np.errstate(all="ignore"):
                da, dw = fun(np.float64(t), np.float64(a), np.float64(w))
            return float(da), float(dw)

    return safe


def _rms(u, v):
    return math.sqrt(u * u + v * v) / math.sqrt(2.0)


def _ratio(u, v):
    """u / v with IEEE results for v = 0."""
    if v:
        return u / v
    return math.nan if u == 0 or u != u else math.copysign(math.inf, u) * math.copysign(1.0, v)


def _initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol):
    """scipy's select_initial_step for an order-7 error estimator."""
    length = abs(t_bound - t0)
    if length == 0.0:
        return 0.0
    (a, w), (fa, fw) = y0, f0
    sa, sw = atol + abs(a) * rtol, atol + abs(w) * rtol
    d0 = _rms(_ratio(a, sa), _ratio(w, sw))
    d1 = _rms(_ratio(fa, sa), _ratio(fw, sw))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    step = h0 * direction
    ga, gw = fun(t0 + step, a + step * fa, w + step * fw)
    d2 = _rms(_ratio(ga - fa, sa), _ratio(gw - fw, sw)) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = _ratio(0.01, max(d1, d2)) ** (1.0 / (DOP853.error_estimator_order + 1))
    return min(100 * h0, h1, length)


def _horner(F, x):
    y = 0.0
    for i, f in enumerate(reversed(F)):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    return y


def _dop853(fun, t0, y0, t_bound, rtol, atol, threshold) -> _Run:
    """Integrate (a, w)' = fun(t, a, w) from t0 to t_bound by DOP853.

    Stops at the first root of |a| = threshold, located by brentq on the
    step's dense output with xtol = rtol = 4 eps.  As in scipy, rtol is
    raised to 100 eps with a warning.  Raises ValueError for a negative
    atol or a non-finite initial state, and RuntimeError when the step size
    drops below 10 ulp of t.
    """
    a, w = map(float, y0)
    if not (math.isfinite(a) and math.isfinite(w)):
        raise ValueError("All components of the initial state y0 must be finite.")
    if atol < 0:
        raise ValueError("atol must be nonnegative")
    if rtol < 100 * _EPS:
        warnings.warn(f"rtol is too small; using rtol = {100 * _EPS}", stacklevel=3)
    rtol, atol = max(float(rtol), 100 * _EPS), float(atol)
    fun = _ieee(fun)
    t, t_bound = float(t0), float(t_bound)
    direction = 1.0 if t_bound >= t else -1.0
    fa, fw = fun(t, a, w)
    h_abs = _initial_step(fun, t, (a, w), (fa, fw), t_bound, direction, rtol, atol)
    nfev, n_steps, g, crossed = 2, 0, abs(a) - threshold, False
    ts, t_olds, hs, y_olds, Fs = [t], [], [], [], []

    while direction * (t - t_bound) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise RuntimeError("Required step size is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            ka, kw = [fa], [fw]
            for row, c in _STAGES:
                da, dw = fun(t + c * h, a + sum(map(mul, row, ka)) * h,
                             w + sum(map(mul, row, kw)) * h)
                ka.append(da)
                kw.append(dw)
            a_new = a + h * sum(map(mul, _B, ka))
            w_new = w + h * sum(map(mul, _B, kw))
            fa_new, fw_new = fun(t + h, a_new, w_new)
            ka.append(fa_new)
            kw.append(fw_new)
            nfev += _N_STAGES

            try:
                sa = atol + max(abs(a), abs(a_new)) * rtol
                sw = atol + max(abs(w), abs(w_new)) * rtol
                e5a, e5w = sum(map(mul, _E5, ka)) / sa, sum(map(mul, _E5, kw)) / sw
                e3a, e3w = sum(map(mul, _E3, ka)) / sa, sum(map(mul, _E3, kw)) / sw
            except ZeroDivisionError:  # atol = 0 and a zero state: nan in scipy
                e5a = e5w = e3a = e3w = math.nan
            n5, n3 = e5a * e5a + e5w * e5w, e3a * e3a + e3w * e3w
            if n5 == 0 and n3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * n5 / math.sqrt((n5 + 0.01 * n3) * 2)

            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True

        for row, c in _EXTRA_STAGES:
            da, dw = fun(t + c * h, a + sum(map(mul, row, ka)) * h,
                         w + sum(map(mul, row, kw)) * h)
            ka.append(da)
            kw.append(dw)
        nfev += len(_EXTRA_STAGES)
        n_steps += 1
        F = []
        pairs = ((a, a_new, fa, fa_new, ka), (w, w_new, fw, fw_new, kw))
        for y_old, y_new, f_old, f_new, k in pairs:
            dy = y_new - y_old
            F.extend((dy, h * f_old - dy, 2 * dy - h * (f_new + f_old)))
            F.extend(h * sum(map(mul, row, k)) for row in _D)
        t_olds.append(t)
        hs.append(h)
        y_olds.append((a, w))
        Fs.append(F)

        t_old, a_old, w_old = t, a, w
        t, a, w, fa, fw = t_new, a_new, w_new, fa_new, fw_new
        g_new = abs(a) - threshold
        if g <= 0 <= g_new or g >= 0 >= g_new:
            Fa, Fw = F[:7], F[7:]
            t = brentq(
                lambda s: abs(_horner(Fa, (s - t_old) / h) + a_old) - threshold,
                t_old, t, xtol=4 * _EPS, rtol=4 * _EPS,
            )
            x = (t - t_old) / h
            a, w = _horner(Fa, x) + a_old, _horner(Fw, x) + w_old
            crossed = True
        g = g_new
        if len(ts) > 1 and t == ts[-1]:  # an event root on the last breakpoint
            del t_olds[-1], hs[-1], y_olds[-1], Fs[-1]
        else:
            ts.append(t)
        if crossed:
            break

    return _Run(
        dense=_Dop853Dense(ts, t_olds, hs, y_olds, Fs), t=t, y=(a, w), crossed=crossed,
        n_steps=n_steps, nfev=nfev,
    )


def _tail(sol: ModeSolution):
    mask = sol.radii >= sol.radii[-1] / 10.0
    if mask.sum() < 8:
        mask = np.zeros_like(mask)
        mask[-8:] = True
    return sol.radii[mask], sol.a[mask]


def classify(
    sol: ModeSolution,
    decay_q: float = 0.75,
    eps_dec: float = 1e-4,
    k_div: float = 1e3,
) -> AsymptoticClass:
    """Asymptotic trichotomy of an integrated mode.

    DecaysToZero requires both smallness at the end of the run and a log-log
    decay slope at least as steep as -decay_q; divergence requires crossing
    k_div with a consistent sign and increasing trend; convergence requires a
    Cauchy tail with limit above the decay threshold.  Anything else is
    Undetermined.
    """
    if not 0.0 < decay_q < 1.0:
        raise ValueError("decay_q must lie in (0, 1)")
    a0 = sol.ivp.a0
    scale0 = abs(a0) if a0 != 0.0 else max(np.abs(sol.a).max(), 1.0)
    r_tail, a_tail = _tail(sol)
    r_end = float(sol.r_max_used)

    if sol.diverged or np.abs(sol.a).max() >= k_div * scale0:
        last = sol.a[-min(6, len(sol.a)):]
        growing = np.all(np.diff(np.abs(last)) >= 0)
        sign_ok = np.all(np.sign(last) == np.sign(last[-1])) and last[-1] != 0
        slope = _loglog_slope(r_tail, a_tail)
        if growing and sign_ok:
            kind = (
                AsymptoticKind.DIVERGES_PLUS
                if last[-1] > 0
                else AsymptoticKind.DIVERGES_MINUS
            )
            return AsymptoticClass(kind, float(sol.a[-1]), slope, r_end)
        return AsymptoticClass(AsymptoticKind.UNDETERMINED, float(sol.a[-1]), slope, r_end)

    if np.abs(a_tail).max() == 0.0:
        return AsymptoticClass(AsymptoticKind.DECAYS_TO_ZERO, 0.0, float("nan"), r_end)

    limit = _limit_fit(r_tail, a_tail)
    slope = _loglog_slope(r_tail, a_tail)

    if abs(sol.a[-1]) < eps_dec * scale0 and slope <= -decay_q:
        return AsymptoticClass(AsymptoticKind.DECAYS_TO_ZERO, limit, slope, r_end)

    osc = a_tail.max() - a_tail.min()
    if abs(limit) > eps_dec * scale0 and osc <= CAUCHY_RTOL * abs(limit):
        return AsymptoticClass(AsymptoticKind.CONVERGES_NONZERO, limit, slope, r_end)

    return AsymptoticClass(AsymptoticKind.UNDETERMINED, limit, slope, r_end)


def _limit_fit(r_tail, a_tail) -> float:
    """Quadratic-in-1/r extrapolation of the tail to infinity.

    The fit variable is t = min(r_tail) / r_tail in (0, 1], not 1/r: at huge
    radii the Vandermonde column 1/r^2 underflows, polyfit's column scaling
    divides by zero and LAPACK's lstsq loops on the resulting nan.
    """
    t = r_tail.min() / r_tail
    deg = 2 if len(r_tail) > 6 else 1
    return float(np.polyval(np.polyfit(t, a_tail, deg), 0.0))


def _loglog_slope(r_tail, a_tail) -> float:
    mag = np.abs(a_tail)
    good = mag > 0
    if good.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(r_tail[good]), np.log(mag[good]), 1)[0])


@dataclass(frozen=True)
class KernelVerdict:
    params: SchwarzschildParams
    ell: int
    klass: AsymptoticClass
    passed: bool
    flat_branch: bool
    # solver diagnostics of the integrated mode (see ModeSolution)
    n_steps: int | None = None
    nfev: int | None = None
    stop: str | None = None

    @property
    def failure_kind(self) -> str | None:
        if self.passed:
            return None
        if self.klass.kind is AsymptoticKind.DECAYS_TO_ZERO:
            return "decaying-mode"
        return "undetermined"


def verify_kernel_trivial(
    params: SchwarzschildParams,
    ell: int,
    decay_q: float = 0.75,
    r_max_factor: float = 1e6,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    eps_dec: float = 1e-4,
    k_div: float = 1e3,
) -> KernelVerdict:
    """Certify that the unit-data mode of degree ell does not decay.

    A decaying class would be a linearized-kernel candidate; any other class
    certifies triviality for this mode.  Undetermined is reported as a
    failure to verify, not as a counterexample.
    """
    ivp = make_ivp(params, ell, a0=1.0)
    sol = integrate_mode(ivp, r_max_factor * params.r0, rtol=rtol, atol=atol, k_div=k_div)
    klass = classify(sol, decay_q=decay_q, eps_dec=eps_dec, k_div=k_div)
    passed = klass.kind not in (AsymptoticKind.DECAYS_TO_ZERO, AsymptoticKind.UNDETERMINED)
    return KernelVerdict(
        params=params, ell=ell, klass=klass, passed=passed, flat_branch=ivp.flat_branch,
        n_steps=sol.n_steps, nfev=sol.nfev, stop=sol.stop,
    )


@dataclass(frozen=True)
class PositivityReport:
    positive: bool
    increasing: bool
    first_violation: float | None
    immediately_positive: bool
    b_end: float
    db_end: float

    @property
    def monotone_positive(self) -> bool:
        return self.positive and self.increasing


def comparison_positivity(
    h, p, B0: float, dB0: float, r0: float, r_max: float,
    rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL, n_samples: int = 2000,
) -> PositivityReport:
    """Integrate (h B')' = p B and audit strict positivity of B and B'.

    h and p are callables, positive on [r0, r_max]; B(r0), B'(r0) >= 0 and
    not both zero.  The comparison statement says B and B' stay strictly
    positive for r > r0; the report records the first violation if the
    numerics ever disagree.
    """
    if B0 < 0 or dB0 < 0 or (B0 == 0 and dB0 == 0):
        raise ValueError("need B0 >= 0, dB0 >= 0, not both zero")

    def rhs(r, y):
        return [y[1] / h(r), p(r) * y[0]]

    sol = solve_ivp(
        rhs, (r0, r_max), [B0, h(r0) * dB0], method="DOP853",
        rtol=rtol, atol=atol, dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(f"comparison integration failed: {sol.message}")

    r = np.linspace(r0, r_max, n_samples)[1:]
    y = sol.sol(r)
    B, dB = y[0], y[1] / h(r)
    bad = (B <= 0) | (dB <= 0)
    first = float(r[np.argmax(bad)]) if bad.any() else None
    delta = 1e-6 * r0
    yd = sol.sol(r0 + delta)
    return PositivityReport(
        positive=bool(np.all(B > 0)),
        increasing=bool(np.all(dB > 0)),
        first_violation=first,
        immediately_positive=bool(yd[0] > 0 and yd[1] / h(r0 + delta) > 0),
        b_end=float(B[-1]),
        db_end=float(dB[-1]),
    )
