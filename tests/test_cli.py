import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from schwarzstatic import cli
from schwarzstatic.cli import (
    ConfigError,
    SweepConfig,
    emit,
    run_sweep,
    write_mode_profile,
)
from schwarzstatic.background import SchwarzschildParams
from schwarzstatic.modes import AsymptoticClass, AsymptoticKind, KernelVerdict

SMALL = dict(masses=[1.0], r0_offsets=[1.0], ell_max=2, r_max_factor=1e4)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


class TestConfig:
    def test_defaults_give_108_tasks(self):
        config = SweepConfig()
        assert len(list(config.tasks())) == 108

    def test_rejects_empty_masses(self):
        with pytest.raises(ConfigError):
            SweepConfig(masses=[])

    def test_rejects_bad_decay_q(self):
        with pytest.raises(ConfigError):
            SweepConfig(decay_q=0.4)

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(dict(r0_offsets=[0.0, 1.0]), id="zero-offset"),
            pytest.param(dict(masses=[float("nan")]), id="nan-mass"),
            pytest.param(dict(r0_offsets=[float("inf")]), id="inf-offset"),
            pytest.param(dict(masses=[1e308]), id="overflowing-r0"),
        ],
    )
    def test_rejects_nonpositive_offsets(self, overrides):
        with pytest.raises(ConfigError):
            SweepConfig(**overrides)

    @pytest.mark.parametrize("factor", [float("inf"), float("nan")])
    def test_rejects_nonfinite_r_max_factor(self, factor):
        with pytest.raises(ConfigError):
            SweepConfig(r_max_factor=factor)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"massess": [1.0]})


class TestRunSweep:
    def test_small_sweep_passes(self):
        report = run_sweep(SweepConfig(**SMALL))
        assert len(report.records) == 3
        assert report.all_passed
        classes = [r.class_name for r in report.records]
        assert classes[0] == "ConvergesNonzero"
        assert classes[1] == "DivergesPlus"

    def test_flat_single_record(self):
        report = run_sweep(
            SweepConfig(masses=[0.0], r0_offsets=[1.0], ell_max=0, r_max_factor=1e4)
        )
        assert report.all_passed
        assert report.records[0].class_name == "ConvergesNonzero"
        assert_allclose(report.records[0].fitted_limit, 1.0, rtol=1e-9)

    def test_parallel_matches_serial(self):
        config = SweepConfig(**SMALL)
        serial = run_sweep(config, jobs=1)
        parallel = run_sweep(config, jobs=2)
        for a, b in zip(serial.records, parallel.records):
            assert a.class_name == b.class_name
            assert a.fitted_limit == b.fitted_limit
            assert a.r_max == b.r_max


class TestEmit:
    def test_csv_and_json_layout(self, tmp_path):
        report = run_sweep(SweepConfig(**SMALL))
        paths = emit(report, str(tmp_path))
        lines = read_csv(paths[0])
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == len(report.records) + 1
        data = json.loads(open(paths[1], encoding="utf-8").read())
        assert data["schema_version"] == "2"
        assert data["config"]["masses"] == [1.0]
        assert len(data["records"]) == 3
        for rec in data["records"]:  # degrees 0, 1, 2 at (m, r0) = (1, 3)
            assert rec["n_steps"] > 0 and rec["nfev"] > rec["n_steps"]
        assert [rec["stop"] for rec in data["records"]] == ["r_max", "k_div", "k_div"]
        assert data["summary"]["all_passed"] is True

    def test_determinism_modulo_wall_time(self, tmp_path):
        config = SweepConfig(**SMALL)
        emit(run_sweep(config), str(tmp_path / "a"))
        emit(run_sweep(config), str(tmp_path / "b"))

        def strip_csv(path):
            return [ln.rsplit(",", 1)[0] for ln in read_csv(path)]

        assert strip_csv(tmp_path / "a" / "sweep.csv") == strip_csv(
            tmp_path / "b" / "sweep.csv"
        )

        def strip_json(path):
            data = json.loads(open(path, encoding="utf-8").read())
            for rec in data["records"]:
                rec.pop("wall_time_s")
            return data

        assert strip_json(tmp_path / "a" / "sweep.json") == strip_json(
            tmp_path / "b" / "sweep.json"
        )

    def test_csv_floats_round_trip(self, tmp_path):
        report = run_sweep(SweepConfig(**SMALL))
        paths = emit(report, str(tmp_path))
        line = read_csv(paths[0])[1].split(",")
        assert float(line[4]) == report.records[0].fitted_limit

    def test_profile_file(self, tmp_path):
        # l=1 profile: the final Phi value matches the log closed form
        # Phi(r) = alpha0 (l(l+1)/2m = 1/m here) [ln((r-2m)/r) - ln((r0-2m)/r0)]
        params = SchwarzschildParams(m=1.0, r0=3.0)
        path = write_mode_profile(str(tmp_path), params, ell=1)
        lines = read_csv(path)
        assert lines[0] == "r,a,da,A,phi,Phi"
        last = lines[-1].split(",")
        r_end, phi_end = float(last[0]), float(last[5])
        expect = 1.5 * (np.log((r_end - 2.0) / r_end) + np.log(3.0))
        assert abs(phi_end - expect) <= 1e-4

    def test_profile_filename_template(self, tmp_path):
        params = SchwarzschildParams(m=-0.25, r0=1.0)
        path = write_mode_profile(str(tmp_path), params, ell=3, r_max_factor=1e3)
        assert os.path.basename(path) == "mode_m-0.25_r01_l3.csv"


class TestMainEntry:
    def test_sweep_exit_zero(self, tmp_path, capsys):
        code = cli.main(
            [
                "sweep", "--masses", "1.0", "--deltas", "1.0",
                "--ell-max", "1", "--r-max-factor", "10000",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "sweep.csv").exists()

    def test_empty_mass_list_is_usage_error(self, tmp_path):
        code = cli.main(["sweep", "--masses", "", "--out-dir", str(tmp_path)])
        assert code == 1

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert cli.main(["sweep", "--config", str(cfg)]) == 1

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"masss": [1.0]}))
        assert cli.main(["sweep", "--config", str(cfg)]) == 1

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"masses": [1.0], "r0_offsets": [1.0]}))
        code = cli.main(
            [
                "sweep", "--config", str(cfg), "--ell-max", "0",
                "--r-max-factor", "10000", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        data = json.loads((tmp_path / "sweep.json").read_text())
        assert data["config"]["ell_max"] == 0

    def test_failing_record_gives_exit_two(self, tmp_path, monkeypatch):
        params = SchwarzschildParams(m=1.0, r0=3.0)
        fake = KernelVerdict(
            params=params, ell=0,
            klass=AsymptoticClass(AsymptoticKind.UNDETERMINED, 0.0, 0.0, 1.0),
            passed=False, flat_branch=False,
        )
        monkeypatch.setattr(cli, "verify_kernel_trivial", lambda *a, **k: fake)
        code = cli.main(
            ["sweep", "--masses", "1.0", "--deltas", "1.0", "--ell-max", "0",
             "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_match_round_rejects_nan(self, capsys):
        assert cli.main(["match-round", "--rho", "nan", "--h", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_gauge_test_rejects_negative_band(self, capsys):
        assert cli.main(["gauge-test", "--l-band", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "pass" not in captured.out

    def test_match_round_cli(self, capsys):
        assert cli.main(["match-round", "--rho", "1", "--h", "2", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["m"] == 0.0
        assert out["horizon_degenerate"] is False

    def test_mode_cli(self, tmp_path, capsys):
        code = cli.main(
            ["mode", "--m", "1", "--r0", "3", "--ell", "0",
             "--r-max-factor", "10000", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert "ConvergesNonzero" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad,code",
        [
            pytest.param(["--r0", "1"], 1, id="r0-inside-horizon"),
            pytest.param(["--ell", "-1"], 1, id="negative-ell"),
            pytest.param(["--r-max-factor", "0.5"], 1, id="r-max-factor-below-one"),
            pytest.param(["--a0", "nan"], 1, id="nan-a0"),
            pytest.param(["--r-max-factor", "inf"], 1, id="infinite-r-max-factor"),
            pytest.param(["--r-max-factor", "1e300"], 2, id="solver-failure"),
        ],
    )
    def test_mode_cli_rejects_bad_params(self, tmp_path, capsys, bad, code):
        assert cli.main(
            ["mode", "--m", "1", "--r0", "3", "--ell", "0", "--out-dir", str(tmp_path)]
            + bad
        ) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_mode_cli_integrates_once(self, tmp_path, monkeypatch):
        calls = []
        integrate = cli.integrate_mode

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(cli, "integrate_mode", counting)
        code = cli.main(
            ["mode", "--m", "1", "--r0", "3", "--ell", "2",
             "--r-max-factor", "100", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert len(calls) == 1

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("SCHWARZSTATIC_SEED", "7")
        assert cli._resolved_seed(None, 0) == 7
        assert cli._resolved_seed(3, 0) == 3
        monkeypatch.setenv("SCHWARZSTATIC_SEED", "x")
        with pytest.raises(ConfigError):
            cli._resolved_seed(None, 0)


class TestInstalledEntryPoint:
    def test_subprocess_usage_error_exit_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", "sweep", "--masses", ""],
            capture_output=True,
        )
        assert proc.returncode == 1

    def test_subprocess_nonfinite_mass_exit_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", "sweep", "--masses", "nan"],
            capture_output=True,
        )
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "args,n_records,n_failed",
        [
            pytest.param(
                ["--r-max-factor", "1e300", "--masses", "1", "--deltas", "1",
                 "--ell-max", "2"], 3, 1, id="tail-integration-failure",
            ),
            pytest.param(
                ["--masses=-1e308", "--deltas", "1", "--ell-max", "0"], 1, 1,
                id="overflowing-initial-state",
            ),
        ],
    )
    def test_subprocess_solver_failure_is_a_record(
        self, tmp_path, args, n_records, n_failed, jobs
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", "sweep", "--jobs", jobs,
             "--out-dir", str(tmp_path), *args],
            capture_output=True,
        )
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        rows = [row.split(",") for row in read_csv(tmp_path / "sweep.csv")[1:]]
        assert len(rows) == n_records
        failed = [row for row in rows if row[7] == "false"]
        assert len(failed) == n_failed
        for row in failed:
            assert row[3:8] == ["Undetermined", "nan", "nan", "nan", "false"]
        records = json.loads((tmp_path / "sweep.json").read_text())["records"]
        for rec in records:
            diagnostics = [rec["n_steps"], rec["nfev"], rec["stop"]]
            assert (diagnostics == [None] * 3) == (not rec["pass"])

    def test_subprocess_huge_extent_classifies(self, tmp_path):
        # r_max = 3e100: the limit fit must not hand LAPACK an underflowed
        # Vandermonde matrix (it looped on the nan instead of returning)
        common = ["--r-max-factor", "1e100", "--out-dir", str(tmp_path)]
        mode = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", "mode", "--m", "1", "--r0", "3",
             "--ell", "0", *common],
            capture_output=True, timeout=120,
        )
        assert mode.returncode == 0, mode.stderr
        assert b"ConvergesNonzero" in mode.stdout
        sweep = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", "sweep", "--masses", "1",
             "--deltas", "1", "--ell-max", "0", *common],
            capture_output=True, timeout=120,
        )
        assert sweep.returncode == 0, sweep.stderr
        (row,) = [line.split(",") for line in read_csv(tmp_path / "sweep.csv")[1:]]
        assert row[3] == "ConvergesNonzero"
        assert abs(float(row[4]) - 1.0) <= 1e-8

    def test_subprocess_unknown_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", "bogus"],
            capture_output=True,
        )
        assert proc.returncode == 1
