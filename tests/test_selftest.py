import dataclasses
import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from schwarzstatic import cli, selftest, structure
from schwarzstatic.background import SchwarzschildParams
from schwarzstatic.fields import random_deformation
from schwarzstatic.selftest import run_selftest
from schwarzstatic.sphere_ops import SphereCalc


@pytest.fixture(scope="module")
def clean_report():
    return run_selftest(seed=0)


class TestSelfTest:
    def test_all_suites_pass(self, clean_report):
        for suite in clean_report.suites:
            assert suite.passed, suite.line()
        assert clean_report.passed

    def test_expected_suites_present(self, clean_report):
        names = [s.name for s in clean_report.suites]
        assert len(names) == 5
        assert any("harmonics" in n for n in names)
        assert any("gauge" in n for n in names)
        assert any("oracle" in n for n in names)

    def test_mutation_is_caught(self):
        report = run_selftest(seed=0, mutate="dg4-sign")
        assert not report.passed
        bad = [s for s in report.suites if not s.passed]
        assert len(bad) == 1
        assert "oracle" in bad[0].name

    def test_refine_adds_convergence_suite(self):
        report = run_selftest(seed=0, refine=True)
        conv = [s for s in report.suites if "convergence" in s.name]
        assert len(conv) == 1
        assert conv[0].passed
        assert 10.0 < conv[0].measured < 26.0

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError):
            run_selftest(mutate="no-such-flip")


class TestConservationQuadrature:
    """The conservation suite's H~ by quadrature, against scipy's DOP853."""

    P = SchwarzschildParams(m=1.0, r0=3.0)

    def draw(self, seed):
        rng = np.random.default_rng(seed)
        calc = SphereCalc(l_max=8)
        field = random_deformation(rng, self.P, calc, l_band=3, gauge_fixed=True)
        return field, calc.random_band_limited(rng, 3)

    def test_matches_solve_ivp(self):
        field, h0 = self.draw(1)
        r = np.geomspace(3.0, 30.0, 40)

        def rhs(s, y):
            bg = selftest.background_at(self.P, s)
            return -bg.H_sc * y - 4.0 * bg.du_sc * field.u(s, 1)

        sol = solve_ivp(rhs, (3.0, 30.0), h0, method="DOP853", rtol=1e-12, atol=1e-14,
                        dense_output=True)
        expect = sol.sol(r).T
        got = selftest._conserved_h(self.P, field, h0, r)
        assert got.shape == expect.shape
        assert np.abs(got - expect).max() <= 1e-10 * np.abs(expect).max()

    @pytest.mark.parametrize("coefficient", ["H_sc", "du_sc"])
    def test_a_scaled_coefficient_fails_the_suite(self, monkeypatch, coefficient):
        # the invariant multiplies by rho2 itself, so a coefficient of the
        # ODE off by one part in a million shows as drift far over 1e-9
        exact = selftest.background_at

        def scaled(params, r):
            bg = exact(params, r)
            return dataclasses.replace(bg, **{coefficient: getattr(bg, coefficient) * (1 + 1e-6)})

        assert selftest._suite_conservation(np.random.default_rng(1)).run().passed
        monkeypatch.setattr(selftest, "background_at", scaled)
        result = selftest._suite_conservation(np.random.default_rng(1)).run()
        assert not result.passed
        assert result.measured > 1e-7


class TestSchedule:
    @pytest.mark.parametrize("refine", [False, True], ids=["plain", "refine"])
    @pytest.mark.parametrize("seed", [0, 1, 13])
    def test_two_threads_measure_what_a_serial_run_measures(self, seed, refine):
        report = run_selftest(seed=seed, refine=refine)
        rng = np.random.default_rng(seed)
        serial = [suite(rng).run() for suite in selftest._suites(refine)]
        assert [s.name for s in report.suites] == [s.name for s in serial]
        assert [float(s.measured) for s in report.suites] == [float(s.measured) for s in serial]

    @pytest.mark.parametrize("target", ["structure_residuals", "linearize_at_schwarzschild"],
                             ids=["helper-thread", "main-thread"])
    def test_raising_step_clears_mutations_and_joins_the_helper(self, monkeypatch, target):
        class Planted(Exception):
            pass

        def boom(*args, **kwargs):
            raise Planted(target)

        monkeypatch.setattr(selftest, target, boom)
        baseline = threading.active_count()
        with pytest.raises(Planted):
            run_selftest(seed=0, mutate="dg4-sign")
        assert structure.MUTATIONS == set()
        assert threading.active_count() == baseline

    def test_first_exception_in_suite_order_is_raised(self, monkeypatch):
        # the gauge suite (second, helper thread) fails as well as the oracle
        # route (third, main thread): the gauge suite's exception wins
        def fail(message):
            def raiser(*args, **kwargs):
                raise RuntimeError(message)
            return raiser

        monkeypatch.setattr(selftest, "build_gauge_field", fail("gauge"))
        monkeypatch.setattr(selftest, "linearize_at_schwarzschild", fail("oracle"))
        with pytest.raises(RuntimeError, match="^gauge$"):
            run_selftest(seed=0)

    def test_import_starts_no_executor(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, schwarzstatic.selftest\n"
             "print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestSelfTestCli:
    def test_cli_pass(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("[pass]") == 5

    def test_refine_seed1_lines_match_fixture(self, capsys):
        # the six [pass] lines of `selftest --refine --seed 1` as the serial,
        # unfused code printed them: the schedule and the fused gradient
        # synthesis change no byte.  The conservation line is the quadrature
        # route's
        fixture = (Path(__file__).parent / "data" / "selftest_refine_seed1.txt").read_text()
        assert cli.main(["selftest", "--refine", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out[: out.rindex("selftest passed in ")] == fixture

    def test_cli_mutation_exit_two(self, capsys):
        assert cli.main(["selftest", "--mutate", "dg4-sign"]) == 2
        assert "[FAIL]" in capsys.readouterr().out

    def test_cli_json_reports_each_suite(self, capsys):
        assert cli.main(["selftest", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()[:-1]
        assert cli.main(["selftest", "--seed", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        suites = data["suites"]
        assert len(suites) == len(lines) == 5
        for suite, line in zip(suites, lines):
            assert set(suite) == {"name", "measured", "threshold", "passed", "wall_time_s"}
            expect = (f"[pass] {suite['name']}: measured {suite['measured']:.3e}"
                      f" vs threshold {suite['threshold']:.1e}")
            assert line == expect
            assert suite["passed"] is True and 0.0 < suite["wall_time_s"] <= data["wall_time_s"]
        # the oracle route overlaps the other suites, so their times add up
        # to more than the run's, but each thread contributes at most the run
        assert sum(s["wall_time_s"] for s in suites) <= 2.0 * data["wall_time_s"]

    def test_cli_json_mutation_exit_two(self, capsys):
        assert cli.main(["selftest", "--json", "--mutate", "dg4-sign"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is False
        assert [s["name"] for s in data["suites"] if not s["passed"]] == [
            "structure equations vs linearization oracle"
        ]

    def test_cli_unknown_mutation_exit_one(self, capsys):
        # argparse rejects it, naming the known mutations, with the usage exit 1
        with pytest.raises(SystemExit) as exc:
            cli.main(["selftest", "--mutate", "bogus"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err and "dg4-sign" in err
