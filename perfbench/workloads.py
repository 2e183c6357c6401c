"""The benchmark's workloads: inputs made from a seed, one timed unit, checks.

Each workload is a closed loop of identical units: the next unit starts when
the previous one has returned its verdict.  A unit reports its wall times,
how many checks it attempted, how many failed, and every wrong output.  A
failed check is one the program itself reports as not verified (an
``Undetermined`` sweep record, a failed self-test suite, an audit over its
threshold); a wrong output is one that contradicts the known answer or the
program's own determinism, and makes the benchmark exit non-zero.

Why these three:

* ``sweep`` -- the mode sweep through ``cli.main``: ``modes`` and ``cli`` do
  nearly all the work, ``curvature_lab``, ``gauge`` and ``harmonics`` none.
  About one mode in seventeen (degree 0) runs the whole compactified tail,
  the rest stop at ``k_div``; the run is large enough for the process pool
  to pay off.  The mix keeps the regime where degree-0 modes with m < 0 and
  |m|/r0 above about 300 come back ``Undetermined`` (their tail still moves
  by more than ``cauchy_rtol`` at 1e6 r0), so failed checks are expected.
* ``selftest`` -- ``selftest --refine`` through ``cli.main``: the curvature
  lab's finite-difference linearization dominates, with ``structure`` and
  ``sphere_ops`` working on a few large batches.
* ``gauge`` -- random deformations through ``build_gauge_field`` and
  ``apply_gauge`` with the radial-residual audit, then recovery of a known
  generating field from its flow-pullback Lie derivative: thousands of small
  per-radius calls into ``gauge``, ``fields``, ``background`` and
  ``sphere_ops``, the opposite use of the sphere transforms from
  ``selftest``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from schwarzstatic import cli, fields, gauge, sphere_ops
from schwarzstatic.background import SchwarzschildParams

__all__ = ["Outcome", "Sweep", "Selftest", "Gauge", "WORKLOADS"]


@dataclass
class Outcome:
    """What one unit measured and checked."""

    times: dict[str, float]
    attempted: int
    failed: int
    wrong: list[str] = field(default_factory=list)
    # figures the report prints but no gate reads (per-mode times, residuals)
    detail: dict = field(default_factory=dict)


def _call_cli(argv: list[str]) -> tuple[int, float, str]:
    """Run ``schwarzstatic <argv>`` in-process; (exit code, seconds, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return rc, elapsed, out.getvalue()


# -- sweep -----------------------------------------------------------------

# log-uniform bins: mass magnitudes over two decades for each sign, and
# boundary offsets r0 - 2 max(0, m) from near-horizon to far out
MASS_EDGES = np.geomspace(0.05, 5.0, 5)
OFFSET_BINS = ((8e-4, 1.25e-3), (8e-3, 1.25e-2), (0.2, 0.45), (2.0, 4.5), (70.0, 140.0))
ELL_MAX = 16
# |m| < FLAT_MASS_RTOL * r0 = 1e-8 r0 takes the flat branch for every offset
FLAT_MASS = 1e-12
EXPECTED_CLASS = {True: "ConvergesNonzero", False: "DivergesPlus"}  # keyed by ell == 0


def sweep_mix(seed: int, small: bool = False) -> dict:
    """Sweep config: one mass per bin and sign, one flat mass, one offset per bin."""
    rng = np.random.default_rng([seed, 0x5EED])

    def draw(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    bins = list(zip(MASS_EDGES[:-1], MASS_EDGES[1:]))
    masses = [-draw(lo, hi) for lo, hi in bins] + [draw(lo, hi) for lo, hi in bins]
    masses.append(float(rng.choice([-1.0, 1.0])) * draw(0.5 * FLAT_MASS, FLAT_MASS))
    offsets = [draw(lo, hi) for lo, hi in OFFSET_BINS]
    ell_max = ELL_MAX
    if small:
        masses, offsets, ell_max = masses[::4], offsets[::2], 2
    return {"masses": masses, "r0_offsets": offsets, "ell_max": ell_max, "seed": seed}


def _read_sweep_csv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()]


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, jobs: int, work_dir: str, small: bool = False):
        self.jobs = jobs
        self.config = sweep_mix(seed, small)
        self.config_path = os.path.join(work_dir, "sweep-config.json")
        self.out_parallel = os.path.join(work_dir, "jobs-n")
        self.out_serial = os.path.join(work_dir, "jobs-1")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        self.n_modes = len(self.config["masses"]) * len(self.config["r0_offsets"]) * (
            self.config["ell_max"] + 1
        )

    def _argv(self, jobs: int, out_dir: str) -> list[str]:
        return ["sweep", "--config", self.config_path, "--jobs", str(jobs), "--out-dir", out_dir]

    def _check_pass(self, label: str, rc: int, out_dir: str):
        """Rows of one pass's sweep.csv, its undetermined count, its wrong outputs."""
        rows = _read_sweep_csv(os.path.join(out_dir, "sweep.csv"))
        wrong = []
        if len(rows) - 1 != self.n_modes:
            wrong.append(f"{label}: {len(rows) - 1} records, expected {self.n_modes}")
        undetermined = 0
        for rec in rows[1:]:
            ell, klass = int(rec[2]), rec[3]
            if klass == "Undetermined":
                undetermined += 1
            elif klass != EXPECTED_CLASS[ell == 0] or rec[7] != "true":
                wrong.append(f"{label}: m={rec[0]} r0={rec[1]} ell={ell} gave {klass}")
        if rc != (2 if undetermined else 0):
            wrong.append(f"{label}: exit code {rc} with {undetermined} undetermined")
        return rows, undetermined, wrong

    def run(self) -> Outcome:
        rc_par, t_par, _ = _call_cli(self._argv(self.jobs, self.out_parallel))
        rc_ser, t_ser, _ = _call_cli(self._argv(1, self.out_serial))

        par, failed_par, wrong = self._check_pass(f"--jobs {self.jobs}", rc_par, self.out_parallel)
        ser, failed_ser, wrong_ser = self._check_pass("--jobs 1", rc_ser, self.out_serial)
        wrong += wrong_ser
        if [r[:-1] for r in par] != [r[:-1] for r in ser]:
            wrong.append(f"sweep.csv without wall_time_s differs between --jobs 1 and --jobs {self.jobs}")
        return Outcome(
            times={"verdict": t_par, "serial": t_ser},
            attempted=2 * self.n_modes,
            failed=failed_par + failed_ser,
            wrong=wrong,
            detail={
                "modes": self.n_modes,
                "mode_s": [float(r[-1]) for r in ser[1:]],
                "pool_work_s": sum(float(r[-1]) for r in par[1:]),
            },
        )


# -- selftest --------------------------------------------------------------

SELFTEST_SUITES = 6  # five dual-route suites plus the --refine convergence suite


class Selftest:
    """``selftest --refine``; it has no smaller form, so `small` changes nothing."""

    name = "selftest"

    def __init__(self, seed: int, jobs: int, work_dir: str, small: bool = False):
        self.argv = ["selftest", "--refine", "--seed", str(seed)]

    def run(self) -> Outcome:
        rc, elapsed, text = _call_cli(self.argv)
        lines = [ln for ln in text.splitlines() if ln.startswith("[")]
        failed = sum(not ln.startswith("[pass]") for ln in lines)
        wrong = [ln for ln in lines if not ln.startswith("[pass]")]
        if len(lines) != SELFTEST_SUITES:
            wrong.append(f"{len(lines)} suite verdicts, expected {SELFTEST_SUITES}")
        if rc != 0:
            wrong.append(f"selftest exit code {rc}")
        return Outcome(
            times={"verdict": elapsed},
            attempted=SELFTEST_SUITES,
            failed=failed,
            wrong=wrong,
        )


# -- gauge -----------------------------------------------------------------

GAUGE_PARAMS = SchwarzschildParams(m=1.0, r0=3.0)
AUDIT_RADII = np.linspace(3.0, 11.5, 18)
RECOVERY_RADII = (3.8, 5.5, 8.0, 11.0)
AUDIT_TOL = 1e-8
RECOVERY_TOL = 1e-6  # relative to the generating field's amplitude
FIELD_AMP = 0.2
N_DEFORMATIONS = 8


class GeneratingField:
    """Closed-form exterior vector field that vanishes on the boundary sphere.

    Y = p(r) (n.a) n + q(r) (a - (n.a) n) + w(r) n x b for fixed unit vectors
    a, b, with profiles c (1 - r0/r) (r0/r)^s that vanish at r0 and decay.
    It is evaluable at arbitrary points, so it drives the flows and gives the
    exact answer the gauge construction must recover.  The flow oracle calls
    it thousands of times per unit, so it is written for speed.
    """

    def __init__(self, rng: np.random.Generator, r0: float):
        a, b = rng.standard_normal((2, 3))
        self.a = a / np.linalg.norm(a)
        self.b = b / np.linalg.norm(b)
        self.s = rng.uniform(1.5, 2.5, size=3)
        self.amp = FIELD_AMP * np.array([1.0, 0.7, 0.5])
        self.r0 = r0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        r = np.sqrt(np.einsum("ni,ni->n", x, x))
        n = x / r[:, None]
        t = self.r0 / r
        p, q, w = self.amp[:, None] * (1.0 - t) * t ** self.s[:, None]
        na = n @ self.a
        bx, by, bz = self.b
        nxb = np.stack([n[:, 1] * bz - n[:, 2] * by,
                        n[:, 2] * bx - n[:, 0] * bz,
                        n[:, 0] * by - n[:, 1] * bx], axis=1)
        return ((p - q) * na)[:, None] * n + q[:, None] * self.a + w[:, None] * nxb


def recovery_error(X, y_fn, calc: sphere_ops.SphereCalc, m: float) -> float:
    """max |X + Y| over the recovery radii, relative to the field amplitude.

    The gauge built from L_Y g_sc is X = -Y: its normal component is -Y.n and
    its frame components are -Y.e_A (rho/r) in the parallel frame.
    """
    e_unit = np.stack([calc.theta_hat, calc.phi_hat], axis=1)
    worst = 0.0
    for r in RECOVERY_RADII:
        y = y_fn(r * calc.normal)
        y_perp = np.einsum("ni,ni->n", y, calc.normal)
        y_tan = np.einsum("ni,nai->na", y, e_unit) * (np.sqrt(r * (r - 2.0 * m)) / r)
        worst = max(
            worst,
            float(np.abs(X.x_perp(r) + y_perp).max()),
            float(np.abs(X.x_tan(r) + y_tan).max()),
        )
    return worst / FIELD_AMP


class Gauge:
    name = "gauge"

    def __init__(self, seed: int, jobs: int, work_dir: str, small: bool = False):
        self.seed = seed
        self.n_deformations = 1 if small else N_DEFORMATIONS
        self.y_fn = GeneratingField(np.random.default_rng([seed, 0x6A06E]), GAUGE_PARAMS.r0)

    def run(self) -> Outcome:
        params = GAUGE_PARAMS
        rng = np.random.default_rng(self.seed)
        t0 = time.perf_counter()
        calc = sphere_ops.SphereCalc(l_max=8)
        audits = []
        for _ in range(self.n_deformations):
            gt = fields.random_deformation(rng, params, calc, l_band=4, gauge_fixed=False)
            X = gauge.build_gauge_field(gt, params, calc)
            audits.append(gauge.apply_gauge(gt, X, AUDIT_RADII).max_radial_residual)
        calc6 = sphere_ops.SphereCalc(l_max=6)
        flow = gauge.FlowLieDeformation(self.y_fn, params, calc6)
        X = gauge.build_gauge_field(flow, params, calc6, n_cells=24, rtol=1e-10, atol=1e-12)
        recovery = recovery_error(X, self.y_fn, calc6, params.m)
        elapsed = time.perf_counter() - t0

        wrong = [f"gauge audit {a:.3e} over {AUDIT_TOL:.0e}" for a in audits if not a <= AUDIT_TOL]
        if not recovery <= RECOVERY_TOL:
            wrong.append(f"-Y recovery {recovery:.3e} over {RECOVERY_TOL:.0e}")
        return Outcome(
            times={"verdict": elapsed},
            attempted=self.n_deformations + 1,
            failed=len(wrong),
            wrong=wrong,
            detail={"audit": max(audits), "recovery": recovery},
        )


WORKLOADS = {cls.name: cls for cls in (Sweep, Selftest, Gauge)}
