"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; no test weakens a stated threshold.
"""

import time

import numpy as np

from schwarzstatic.background import (
    RoundData,
    SchwarzschildParams,
    background_at,
    match_round_data,
)
from schwarzstatic.cli import SweepConfig, run_sweep
from schwarzstatic.curvature_lab import (
    linearize_at_schwarzschild,
    make_lab_grid,
    oracle_combinations,
)
from schwarzstatic.fields import (
    DeformationField,
    RadialProfile,
    random_deformation,
)
from schwarzstatic.gauge import (
    FlowLieDeformation,
    apply_gauge,
    build_gauge_field,
)
from schwarzstatic.harmonics import make_grid, mode_position
from schwarzstatic.modes import integrate_mode, make_ivp
from schwarzstatic.sphere_ops import SphereCalc
from schwarzstatic.structure import (
    FoliationDeformation,
    decoupled_residual,
    structure_residuals,
)

from reference import bartnik_data, euler_coefficients, euler_eval
from test_gauge import make_test_vector_field

P13 = SchwarzschildParams(m=1.0, r0=3.0)


def verdict(number: int, label: str, passed: bool, measured: str):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} [{status}] {label}: {measured}")
    assert passed, f"criterion {number} ({label}): {measured}"


def test_criterion_01_kernel_triviality_sweep():
    t0 = time.perf_counter()
    report = run_sweep(SweepConfig(), jobs=4)
    elapsed = time.perf_counter() - t0
    ok = report.all_passed and len(report.records) == 108 and elapsed < 60.0
    verdict(
        1,
        "kernel triviality sweep",
        ok,
        f"{report.n_passed}/108 non-decaying in {elapsed:.1f}s (< 60 s, 4 workers)",
    )


def test_criterion_02_l0_closed_form_limits():
    rng = np.random.default_rng(20)
    worst_A = worst_a = 0.0
    for _ in range(10):
        m = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
        r0 = 2.0 * max(0.0, m) + rng.uniform(0.3, 8.0)
        params = SchwarzschildParams(m=m, r0=r0)
        ivp = make_ivp(params, 0, 1.0)
        sol = integrate_mode(ivp, 1e6 * r0)
        tail = sol.radii >= sol.radii[-1] / 10.0
        x = 1.0 / sol.radii[tail]
        lim_A = np.polyval(np.polyfit(x, sol.A[tail], 2), 0.0)
        lim_a = np.polyval(np.polyfit(x, sol.a[tail], 2), 0.0)
        expect_A = (r0 / (2.0 * m) - 0.5) * 1.0
        worst_A = max(worst_A, abs(lim_A - expect_A) / abs(expect_A))
        worst_a = max(worst_a, abs(lim_a - 1.0))
    ok = worst_A <= 1e-6 and worst_a <= 1e-6
    verdict(
        2,
        "l=0 closed-form limits (10 random exteriors)",
        ok,
        f"rel err lim A {worst_A:.2e}, lim a {worst_a:.2e} (tol 1e-06)",
    )


def test_criterion_03_l1_log_closed_form():
    # The governing relation Phi' = ((l(l+1)-2) A + l(l+1) alpha0) / (r(r-2m))
    # at l = 1 integrates to Phi(r) = (alpha0 l(l+1)/(2m)) [ln((r-2m)/r) -
    # ln((r0-2m)/r0)] with Phi(r0) = 0.
    ivp = make_ivp(P13, 1, 1.0)
    sol = integrate_mode(ivp, 1e4 * 3.0, k_div=np.inf, rtol=1e-11, atol=1e-13)
    r = np.geomspace(3.0, 3.0e4, 600)
    a, da = sol.eval(r)
    rho2 = r * (r - 2.0)
    A = a - ivp.alpha0
    Phi = 2.0 * (r - 1.0) / rho2 * A + da
    closed = ivp.alpha0 * (np.log((r - 2.0) / r) - np.log(1.0 / 3.0))
    sup = np.abs(Phi - closed).max()
    phi_r0 = abs(Phi[0])
    ok = sup <= 1e-8 and phi_r0 <= 1e-12
    verdict(
        3,
        "l=1 log closed form over [r0, 1e4 r0]",
        ok,
        f"sup err {sup:.2e} (tol 1e-08), Phi(r0) {phi_r0:.1e} (tol 1e-12)",
    )


def test_criterion_04_flat_exactness():
    params = SchwarzschildParams(m=0.0, r0=1.0)
    worst = 0.0
    for ell in range(9):
        sol = integrate_mode(make_ivp(params, ell, 1.0), 20.0, k_div=np.inf)
        a10, _ = sol.eval(10.0)
        expect, _ = euler_eval(ell, *euler_coefficients(ell, 1.0, 1.0), 10.0)
        worst = max(worst, abs(float(a10[0]) - expect) / abs(expect))
    zero_sol = integrate_mode(make_ivp(params, 4, 0.0), 1e4)
    zero_max = max(np.abs(zero_sol.a).max(), np.abs(zero_sol.da).max())
    ok = worst <= 1e-8 and zero_max <= 1e-12
    verdict(
        4,
        "m=0 Euler exactness (l=0..8) and zero data",
        ok,
        f"rel err at 10 r0 {worst:.2e} (tol 1e-08), zero-data sup {zero_max:.1e}",
    )


def test_criterion_05_gauge_annihilation_and_recovery():
    calc = SphereCalc(l_max=8)
    rng = np.random.default_rng(31)
    worst_resid = 0.0
    for _ in range(5):
        gt = random_deformation(rng, P13, calc, l_band=4, gauge_fixed=False)
        X = build_gauge_field(gt, P13, calc)
        out = apply_gauge(gt, X, np.linspace(3.0, 11.5, 18))
        worst_resid = max(worst_resid, out.max_radial_residual)

    calc6 = SphereCalc(l_max=6)
    y_fn, _ = make_test_vector_field(P13)
    flow_gt = FlowLieDeformation(y_fn, P13, calc6)
    X = build_gauge_field(flow_gt, P13, calc6, n_cells=24)
    scale = 0.2  # amplitude of the generating field
    worst_rec = 0.0
    for r in [3.8, 5.5, 8.0, 11.0]:
        y = y_fn(r * calc6.normal)
        y_perp = np.einsum("ni,ni->n", y, calc6.normal)
        rho = np.sqrt(r * (r - 2.0))
        w = np.einsum("ni,nai->na", y, calc6.frame) * (rho / r)
        worst_rec = max(
            worst_rec,
            np.abs(X.x_perp(r) + y_perp).max() / scale,
            np.abs(X.x_tan(r) + w).max() / scale,
        )
    ok = worst_resid <= 1e-8 and worst_rec <= 1e-6
    verdict(
        5,
        "gauge annihilation (5 random) and -Y recovery",
        ok,
        f"radial residual {worst_resid:.2e} (tol 1e-08), recovery {worst_rec:.2e}"
        " (tol 1e-06 relative)",
    )


def test_criterion_06_structure_oracle_agreement():
    calc = SphereCalc(l_max=12)
    grid = make_lab_grid(P13, r_outer=4.5, n_r=129, calc=calc)
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(5):
        field = random_deformation(rng, P13, calc, l_band=3, gauge_fixed=True)
        d = FoliationDeformation.from_field(field, grid.r)
        res = structure_residuals(d)
        lin = linearize_at_schwarzschild(grid, field)
        combos = oracle_combinations(grid, field, lin)
        for name in ("dg2", "dg4", "dg5", "dg3", "dg1"):
            worst = max(worst, float(np.abs(res[name] - combos[name])[4:-4].max()))

    # mass-variation direction through the sampled (finite-difference) path:
    # residuals are pure truncation and must shrink ~16x per radial halving
    prof = RadialProfile(
        f=lambda r: 1.0 / (r - 2.0),
        df=lambda r: -1.0 / (r - 2.0) ** 2,
        d2f=lambda r: 2.0 / (r - 2.0) ** 3,
    )
    one = np.ones(calc.n_nodes)
    mass_dir = DeformationField(P13, calc)
    mass_dir.add_ab_conformal(prof.scaled(-2.0), one)
    mass_dir.add_u(prof.scaled(-1.0), one)

    def interior_max(n_r):
        r = np.linspace(3.0, 7.5, n_r)
        d = FoliationDeformation.from_samples(P13, calc, r, mass_dir.ab(r), mass_dir.u(r))
        res = structure_residuals(d)
        window = (r >= 3.45) & (r <= 7.05)
        return max(np.abs(v[window]).max() for v in res.values())

    coarse, fine = interior_max(33), interior_max(65)
    ratio = coarse / fine
    ok = worst <= 1e-6 and coarse <= 1e-3 and fine <= 1e-4 and 10.0 < ratio < 26.0
    verdict(
        6,
        "structure equations vs linearization oracle",
        ok,
        f"agreement {worst:.2e} (tol 1e-06, 5 directions); mass-direction"
        f" residuals {coarse:.1e}->{fine:.1e}, ratio {ratio:.1f} (~16x)",
    )


def test_criterion_07_mode_pde_consistency():
    calc = SphereCalc(l_max=10)
    worst = 0.0
    for ell in (0, 1, 2, 5):
        ivp = make_ivp(P13, ell, 1.0)
        sol = integrate_mode(ivp, 6.0, k_div=np.inf, rtol=3e-14, atol=1e-16)
        r = np.linspace(3.0, 3.6, 321)
        a, da = sol.eval(r)
        y = calc.grid.Y[:, mode_position(ell, min(ell, 1))]
        out = decoupled_residual(P13, calc, r, a[:, None] * y, da[:, None] * y)
        worst = max(worst, float(np.abs(out).max()))
    ok = worst <= 1e-7
    verdict(
        7,
        "mode-PDE consistency (l in {0,1,2,5})",
        ok,
        f"decoupled residual {worst:.2e} (tol 1e-07)",
    )


def test_criterion_08_conservation_law():
    from scipy.integrate import solve_ivp

    calc = SphereCalc(l_max=8)
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(3):
        field = random_deformation(rng, P13, calc, l_band=3, gauge_fixed=True)
        h0 = calc.random_band_limited(rng, 3)

        def rhs(r, y):
            bg = background_at(P13, r)
            return -bg.H_sc * y - 4.0 * bg.du_sc * field.u(r, 1)

        sol = solve_ivp(
            rhs, (3.0, 30.0), h0, method="DOP853", rtol=1e-12, atol=1e-14,
            dense_output=True,
        )
        r = np.geomspace(3.0, 30.0, 40)
        inv = (r * (r - 2.0))[:, None] * sol.sol(r).T + 4.0 * field.u(r)
        scale = max(np.abs(inv[0]).max(), 1e-3)
        worst = max(worst, float(np.abs(inv - inv[0]).max() / scale))

    # closed-form anchor: along the mass direction the invariant is exactly 2
    prof = RadialProfile(
        f=lambda r: 1.0 / (r - 2.0),
        df=lambda r: -1.0 / (r - 2.0) ** 2,
        d2f=lambda r: 2.0 / (r - 2.0) ** 3,
    )
    one = np.ones(calc.n_nodes)
    field = DeformationField(P13, calc)
    field.add_ab_conformal(prof.scaled(-2.0), one)
    field.add_u(prof.scaled(-1.0), one)
    r = np.linspace(3.0, 12.0, 21)
    d = FoliationDeformation.from_field(field, r)
    bg = background_at(P13, r)
    inv = bg.rho2[:, None] * d.H + 4.0 * d.u
    anchor_err = float(np.abs(inv - 2.0).max())
    ok = worst <= 1e-9 and anchor_err <= 1e-11
    verdict(
        8,
        "radial conservation of rho2 H~ + 4m u~",
        ok,
        f"drift {worst:.2e} (tol 1e-09 relative), mass-direction anchor err"
        f" {anchor_err:.1e}",
    )


def test_criterion_09_harmonics_identities():
    grid = make_grid(8)
    gram = np.abs(grid.analysis @ grid.Y - np.eye(grid.n_modes)).max()
    rng = np.random.default_rng(2)
    c = rng.standard_normal(grid.n_modes)
    field = grid.Y @ c
    round_trip = np.abs(grid.analysis @ field - c).max()
    resynth = np.abs(grid.Y @ (grid.analysis @ field) - field).max()
    worst = max(gram, round_trip, resynth)
    ok = worst <= 1e-12
    verdict(
        9,
        "harmonics Gram and round-trip identities (L=8)",
        ok,
        f"max deviation {worst:.2e} (tol 1e-12)",
    )


def test_criterion_10_round_data_matcher():
    # random pairs drawn from the well-conditioned region q = h rho/2 in
    # [0.02, 5]; the identity is exact in exact arithmetic and the 1e-12
    # relative bound is meaningful away from the degenerate boundary
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        rho = float(10.0 ** rng.uniform(-2, 2))
        q = float(10.0 ** rng.uniform(np.log10(0.02), np.log10(5.0)))
        h = 2.0 * q / rho
        back = bartnik_data(match_round_data(RoundData(rho=rho, h=h)).params)
        worst = max(worst, abs(back.h - h) / h, abs(back.rho - rho) / rho)
    euclid = match_round_data(RoundData(rho=1.0, h=2.0))
    anchor = euclid.m == 0.0 and euclid.r0 == 1.0
    ok = worst <= 1e-12 and anchor
    verdict(
        10,
        "round-data matcher identity (100 random pairs)",
        ok,
        f"rel err {worst:.2e} (tol 1e-12), Euclidean anchor m'=0 exact: {anchor}",
    )
