import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from schwarzstatic import cli
from schwarzstatic.cli import (
    ConfigError,
    SweepConfig,
    emit,
    run_sweep,
)
from schwarzstatic.modes import AsymptoticClass, AsymptoticKind

SMALL = dict(masses=[1.0], r0_offsets=[1.0], ell_max=2, r_max_factor=1e4)
ONE_MODE = ["--masses", "1", "--deltas", "1", "--ell-max", "0"]


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

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(dict(rtol=0.0), id="zero-rtol"),
            pytest.param(dict(rtol=float("inf")), id="inf-rtol"),
            pytest.param(dict(rtol=float("nan")), id="nan-rtol"),
            pytest.param(dict(atol=-1.0), id="negative-atol"),
            pytest.param(dict(atol=float("inf")), id="inf-atol"),
            pytest.param(dict(atol=float("nan")), id="nan-atol"),
            # k_div <= 1 would certify any mode: |a| >= k_div |a0| at r0 already
            pytest.param(dict(k_div=0.5), id="k_div-below-one"),
            pytest.param(dict(k_div=1.0), id="k_div-one"),
            pytest.param(dict(k_div=float("nan")), id="nan-k_div"),
            pytest.param(dict(eps_dec=0.0), id="zero-eps_dec"),
            pytest.param(dict(eps_dec=1.0), id="eps_dec-one"),
            pytest.param(dict(eps_dec=float("nan")), id="nan-eps_dec"),
        ],
    )
    def test_rejects_bad_tolerances(self, overrides):
        with pytest.raises(ConfigError):
            SweepConfig(**overrides)

    @pytest.mark.parametrize("ell_max", [2.5, 2.0, "2"])
    def test_rejects_non_integer_ell_max(self, ell_max):
        with pytest.raises(ConfigError, match="ell_max"):
            SweepConfig(ell_max=ell_max)

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

    def test_default_sweep_matches_fixture(self, tmp_path):
        # sweep.csv without wall_time_s as the per-mode stepper wrote it before
        # the lockstep batch replaced it: batching changes no byte
        fixture = (Path(__file__).parent / "data" / "default_sweep.csv").read_text()
        emit(run_sweep(SweepConfig()), str(tmp_path))
        rows = [ln.rsplit(",", 1)[0] for ln in read_csv(tmp_path / "sweep.csv")]
        assert rows == fixture.splitlines()

    @pytest.mark.parametrize(
        "jobs,cpus,workers",
        [(1, 8, None), (2, 8, 2), (64, 2, 2), (64, 8, 3), (4, 1, None)],
    )
    def test_pool_size(self, monkeypatch, jobs, cpus, workers):
        # never more workers than min(jobs, usable CPUs, chunks); one runs in process
        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        config = SweepConfig(**SMALL)  # three modes
        report = run_sweep(config, jobs=jobs)
        assert started == ([] if workers is None else [workers])

        def key(rec):
            return rec.class_name, rec.fitted_limit, rec.r_max, rec.n_steps, rec.nfev

        assert [key(r) for r in report.records] == [key(r) for r in run_sweep(config).records]

    def test_record_times_add_up(self):
        t0 = time.perf_counter()
        report = run_sweep(SweepConfig(**SMALL))
        elapsed = time.perf_counter() - t0
        recs = report.records
        for rec in recs:
            assert rec.integrate_s >= 0.0 and rec.classify_s > 0.0
            assert rec.wall_time_s == rec.integrate_s + rec.classify_s
        # the batch's stepping time is shared by right-hand-side evaluations
        assert_allclose([r.integrate_s / r.nfev for r in recs], recs[0].integrate_s / recs[0].nfev,
                        rtol=1e-9)
        assert sum(r.wall_time_s for r in recs) <= elapsed

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
        assert data["schema_version"] == "3"
        assert set(data["environment"]) == {"python", "numpy", "scipy"}
        assert data["environment"]["numpy"] == np.__version__
        assert data["config"]["masses"] == [1.0]
        assert len(data["records"]) == 3
        for rec in data["records"]:  # degrees 0, 1, 2 at (m, r0) = (1, 3)
            assert rec["n_steps"] > 0 and rec["nfev"] > rec["n_steps"]
            assert rec["wall_time_s"] == rec["integrate_s"] + rec["classify_s"]
        assert [rec["stop"] for rec in data["records"]] == ["r_max", "k_div", "k_div"]
        assert data["summary"]["all_passed"] is True

    def test_sweep_starts_no_subprocess(self, tmp_path, monkeypatch):
        # the environment block comes from the running interpreter, not from tools
        def no_subprocess(*args, **kwargs):
            raise AssertionError("subprocess started on the sweep path")

        monkeypatch.setattr(subprocess, "Popen", no_subprocess)
        emit(run_sweep(SweepConfig(**SMALL)), str(tmp_path))

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
                for key in ("wall_time_s", "integrate_s", "classify_s"):
                    rec.pop(key)
            return data

        assert strip_json(tmp_path / "a" / "sweep.json") == strip_json(
            tmp_path / "b" / "sweep.json"
        )

    def test_csv_floats_round_trip(self, tmp_path):
        report = run_sweep(SweepConfig(**SMALL))
        paths = emit(report, str(tmp_path))
        line = read_csv(paths[0])[1].split(",")
        assert float(line[4]) == report.records[0].fitted_limit

    def test_sweep_profiles_end_at_record_r_max(self, tmp_path, monkeypatch):
        # each profile is the solution its record was classified on: one batch
        # integrates every mode once, and each file has the bytes the mode
        # subcommand writes for the same mode; the config has a flat-branch
        # mass, generic masses of both signs and k_div-stopped degrees
        config = SweepConfig(masses=[0.0, -0.25, 1.0], r0_offsets=[1.0], ell_max=3)
        batches = []
        integrate_modes = cli.integrate_modes

        def counting(*args, **kwargs):
            batches.append(args)
            return integrate_modes(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep integrated a mode on its own")

        sweep_dir, mode_dir = tmp_path / "sweep", tmp_path / "mode"
        sweep_dir.mkdir()
        with monkeypatch.context() as mp:
            mp.setattr(cli, "integrate_modes", counting)
            mp.setattr(cli, "integrate_mode", forbidden)
            report = run_sweep(config, profile_dir=str(sweep_dir))
        assert len(batches) == 1
        names = [f"mode_m{rec.m:g}_r0{rec.r0:g}_l{rec.ell}.csv" for rec in report.records]
        assert sorted(os.listdir(sweep_dir)) == sorted(names)
        assert "mode_m-0.25_r01_l3.csv" in names
        for rec, name in zip(report.records, names):
            assert cli.main(["mode", f"--m={rec.m!r}", f"--r0={rec.r0!r}", f"--ell={rec.ell}",
                             "--out-dir", str(mode_dir)]) == 0
            profile = (sweep_dir / name).read_bytes()
            assert profile == (mode_dir / name).read_bytes()
            lines = profile.decode("utf-8").splitlines()
            assert lines[0] == "r,a,da,A,phi,Phi"
            assert float(lines[-1].split(",")[0]) == rec.r_max

        # (m, r0, ell) = (1, 3, 1) stops at k_div; its final Phi matches the
        # log closed form Phi(r) = alpha0 (l(l+1)/2m = 1/m here)
        # [ln((r-2m)/r) - ln((r0-2m)/r0)]
        rec = report.records[9]
        assert (rec.m, rec.r0, rec.ell) == (1.0, 3.0, 1)
        assert rec.r_max < config.r_max_factor * rec.r0
        last = read_csv(sweep_dir / names[9])[-1].split(",")
        r_end, phi_end = float(last[0]), float(last[5])
        expect = 1.5 * (np.log((r_end - 2.0) / r_end) + np.log(3.0))
        assert abs(phi_end - expect) <= 1e-4

        # a non-default k_div stops the profiles where it stopped the records
        config = SweepConfig(masses=[1.0], r0_offsets=[1.0], ell_max=2, k_div=10.0)
        report = run_sweep(config, jobs=2, profile_dir=str(tmp_path))
        for rec in report.records:
            last = read_csv(tmp_path / f"mode_m1_r03_l{rec.ell}.csv")[-1].split(",")
            assert float(last[0]) == rec.r_max
        assert report.records[1].r_max < config.r_max_factor * report.records[1].r0

    def test_profile_file(self, tmp_path):
        # l=1 profile: the final Phi value matches the log closed form
        # Phi(r) = alpha0 (l(l+1)/2m = 1/m here) [ln((r-2m)/r) - ln((r0-2m)/r0)]
        assert cli.main(["mode", "--m=1.0", "--r0=3.0", "--ell=1",
                         "--out-dir", str(tmp_path)]) == 0
        lines = read_csv(tmp_path / "mode_m1_r03_l1.csv")
        assert lines[0] == "r,a,da,A,phi,Phi"
        last = lines[-1].split(",")
        r_end, phi_end = float(last[0]), float(last[5])
        expect = 1.5 * (np.log((r_end - 2.0) / r_end) + np.log(3.0))
        assert abs(phi_end - expect) <= 1e-4

    def test_profile_filename_template(self, tmp_path):
        assert cli.main(["mode", "--m=-0.25", "--r0=1.0", "--ell=3",
                         "--r-max-factor=1e3", "--out-dir", str(tmp_path)]) == 0
        assert os.listdir(tmp_path) == ["mode_m-0.25_r01_l3.csv"]

    def test_profile_names_tell_close_masses_apart(self, tmp_path):
        # six significant digits would give both records the file
        # mode_m1_r03_l0.csv, the later write replacing the earlier
        assert cli.main(["sweep", "--masses", "1.0000001,1.0000002", "--deltas", "1",
                         "--ell-max", "0", "--profile", "--out-dir", str(tmp_path)]) == 0
        profiles = sorted(name for name in os.listdir(tmp_path) if name.startswith("mode_"))
        assert profiles == ["mode_m1.0000001_r03.0000002_l0.csv",
                            "mode_m1.0000002_r03.0000004_l0.csv"]


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
        fake = AsymptoticClass(AsymptoticKind.UNDETERMINED, 0.0, 0.0, 1.0)
        monkeypatch.setattr(cli, "classify_modes", lambda sols, **k: [fake] * len(sols))
        code = cli.main(
            ["sweep", "--masses", "1.0", "--deltas", "1.0", "--ell-max", "0",
             "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_unusable_out_dir_stops_before_integrating(self, tmp_path, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrated before the output directory was checked")

        monkeypatch.setattr(cli, "integrate_modes", forbidden)
        (tmp_path / "file").write_text("")
        code = cli.main(["sweep", "--masses", "1.0", "--deltas", "1.0", "--ell-max", "0",
                         "--out-dir", str(tmp_path / "file" / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        code = cli.main(["sweep", "--masses", "1.0", "--deltas", "1.0", "--ell-max", "0",
                         "--jobs", jobs, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --jobs") and err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    def test_match_round_rejects_nan(self, capsys):
        assert cli.main(["match-round", "--rho", "nan", "--h", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_gauge_test_rejects_negative_band(self, capsys):
        assert cli.main(["gauge-test", "--l-band", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "pass" not in captured.out

    @pytest.mark.parametrize("band", [cli.GAUGE_TEST_MAX_L_BAND + 1, 100])
    def test_gauge_test_rejects_band_above_maximum(self, band, monkeypatch, capsys):
        # the band is checked before any grid exists: building one would fail here
        def no_grid(*args, **kwargs):
            raise AssertionError("SphereCalc built for a rejected band")

        monkeypatch.setattr("schwarzstatic.sphere_ops.SphereCalc", no_grid)
        assert cli.main(["gauge-test", "--l-band", str(band)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: --l-band must lie in 0..")
        assert captured.out == ""

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
        monkeypatch.setenv("SCHWARZSTATIC_SEED", "-1")
        with pytest.raises(ConfigError, match="nonnegative"):
            cli._resolved_seed(None, 0)
        with pytest.raises(ConfigError, match="nonnegative"):
            cli._resolved_seed(-1, 0)


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

    def test_subprocess_bad_tolerance_config_exit_one(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k_div": 0.5}))
        proc = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", "sweep", "--config", str(config),
             "--out-dir", str(tmp_path)],
            capture_output=True,
        )
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert b"k_div" in proc.stderr
        assert not (tmp_path / "sweep.csv").exists()

    def test_subprocess_non_integer_ell_max_config_exit_one(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ell_max": 2.5}))
        proc = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", "sweep", "--config", str(config),
             "--out-dir", str(tmp_path)],
            capture_output=True,
        )
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert b"ell_max" in proc.stderr
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "args,env_seed",
        [
            pytest.param(["gauge-test", "--seed", "-1"], None, id="gauge-test-flag"),
            pytest.param(["gauge-test"], "-1", id="gauge-test-env"),
            pytest.param(["selftest", "--seed", "-1"], None, id="selftest-flag"),
        ],
    )
    def test_subprocess_negative_seed_exit_one(self, args, env_seed):
        env = {k: v for k, v in os.environ.items() if k != "SCHWARZSTATIC_SEED"}
        if env_seed is not None:
            env["SCHWARZSTATIC_SEED"] = env_seed
        proc = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", *args],
            capture_output=True, env=env,
        )
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert b"seed must be nonnegative" in proc.stderr

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

    def test_subprocess_solver_failure_under_profile(self, tmp_path):
        # the failed record is written, and has no profile: nothing integrates it again
        proc = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", "sweep", "--masses=-1e308",
             "--deltas", "1", "--ell-max", "0", "--profile", "--out-dir", str(tmp_path)],
            capture_output=True,
        )
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert sorted(os.listdir(tmp_path)) == ["sweep.csv", "sweep.json"]
        (row,) = [line.split(",") for line in read_csv(tmp_path / "sweep.csv")[1:]]
        assert row[3:8] == ["Undetermined", "nan", "nan", "nan", "false"]
        (rec,) = json.loads((tmp_path / "sweep.json").read_text())["records"]
        assert rec["class"] == "Undetermined"

    @pytest.mark.parametrize(
        "args,blocked",
        [
            pytest.param(["sweep", *ONE_MODE], None, id="sweep-out-dir-below-a-file"),
            pytest.param(["mode", "--m", "1", "--r0", "3", "--ell", "0"], None,
                         id="mode-out-dir-below-a-file"),
            pytest.param(["sweep", *ONE_MODE], "sweep.csv", id="sweep-csv-write"),
            pytest.param(["sweep", *ONE_MODE, "--masses", "1,-1", "--profile", "--jobs", "2"],
                         "mode_m1_r03_l0.csv", id="sweep-profile-write"),
            pytest.param(["mode", "--m", "1", "--r0", "3", "--ell", "0"],
                         "mode_m1_r03_l0.csv", id="mode-profile-write"),
        ],
    )
    def test_subprocess_unwritable_output_exit_one(self, tmp_path, args, blocked):
        # blocked None: --out-dir lies below a regular file; otherwise a
        # directory sits where the named output file would be written
        if blocked is None:
            (tmp_path / "file").write_text("")
            out_dir = tmp_path / "file" / "x"
        else:
            (tmp_path / blocked).mkdir()
            out_dir = tmp_path
        proc = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", *args, "--out-dir", str(out_dir)],
            capture_output=True,
        )
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.startswith(b"error: cannot write output")
        assert proc.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("factor", ["1e100", "1e160"])
    def test_subprocess_huge_extent_classifies(self, tmp_path, factor):
        # r_max = 3e100: the limit fit must not hand LAPACK an underflowed
        # Vandermonde matrix (it looped on the nan instead of returning);
        # r_max = 3e160: r(r-2m) overflows, so the profile must not form it
        common = ["--r-max-factor", factor, "--out-dir", str(tmp_path)]
        mode = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", "mode", "--m", "1", "--r0", "3",
             "--ell", "0", *common],
            capture_output=True, timeout=120,
        )
        assert mode.returncode == 0, mode.stderr
        assert b"ConvergesNonzero" in mode.stdout
        assert b"Warning" not in mode.stderr, mode.stderr
        # Phi = 2(r-m) A / (r(r-2m)) + da, in exact arithmetic on the written row
        r, _, da, A, _, Phi = map(
            float, read_csv(tmp_path / "mode_m1_r03_l0.csv")[-1].split(",")
        )
        r, m = Fraction(r), 1
        exact = 2 * (r - m) * Fraction(A) / (r * (r - 2 * m)) + Fraction(da)
        assert abs(Fraction(Phi) - exact) <= Fraction(1, 10**12) * abs(exact)
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


# Run in a fresh interpreter; each prints the scipy modules loaded at its
# checkpoints, one list per line.
LOADED = (
    "import sys\n"
    "def loaded():\n"
    "    print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
)
STARTUP_SCRIPTS = {
    "cli-sweep": (
        "from schwarzstatic import cli\n"
        "loaded()\n"
        "rc = cli.main(['sweep', '--masses', '1,0', '--deltas', '1', '--ell-max', '2',\n"
        "               '--r-max-factor', '1e4', '--out-dir', sys.argv[1]])\n"
        "assert rc == 0, rc\n"
        "loaded()\n"
    ),
    "cli-mode": (
        "from schwarzstatic import cli\n"
        "rc = cli.main(['mode', '--m', '1', '--r0', '3', '--ell', '2', '--out-dir', sys.argv[1]])\n"
        "assert rc == 0, rc\n"
        "loaded()\n"
    ),
    "cli-match-round": (
        "from schwarzstatic import cli\n"
        "assert cli.main(['match-round', '--rho', '3', '--h', '0.5']) == 0\n"
        "loaded()\n"
    ),
    "cli-gauge-test": (
        "from schwarzstatic import cli\n"
        "assert cli.main(['gauge-test', '--seed', '0']) == 0\n"
        "loaded()\n"
    ),
    "gauge": "import schwarzstatic.gauge\nloaded()\n",
    "selftest-conservation": (
        "import numpy as np\n"
        "from schwarzstatic import selftest\n"
        "loaded()\n"
        "rng = np.random.default_rng(0)\n"
        "assert selftest._suite_harmonics(rng).passed and selftest._suite_gauge(rng).passed\n"
        "loaded()\n"
        "assert selftest._suite_conservation(rng).passed\n"
        "loaded()\n"
    ),
}


class TestStartupImports:
    @pytest.mark.parametrize("script", sorted(STARTUP_SCRIPTS))
    def test_scipy_integrate_and_optimize_load_only_for_selftest(self, tmp_path, script):
        # no package import and no command but selftest loads any scipy
        # module; solve_ivp is imported inside selftest's conservation suite,
        # and only when that suite runs
        proc = subprocess.run(
            [sys.executable, "-c", LOADED + STARTUP_SCRIPTS[script], str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        checkpoints = [line for line in proc.stdout.splitlines() if line.startswith("[")]
        if script == "selftest-conservation":
            assert checkpoints[:2] == ["[]", "[]"]
            assert "'scipy.integrate'" in checkpoints[2]
        else:
            assert checkpoints == ["[]"] * len(checkpoints)
        if script == "cli-sweep":
            # both root-finding paths ran: the stepped and the flat k_div crossings
            records = json.loads((tmp_path / "sweep.json").read_text())["records"]
            crossed = {(rec["m"], rec["ell"]) for rec in records if rec["stop"] == "k_div"}
            assert crossed == {(1.0, 1), (1.0, 2), (0.0, 1), (0.0, 2)}


def report_with_failures():
    """A small sweep's report plus a solver-failure record and non-finite fits."""
    report = run_sweep(SweepConfig(**SMALL))
    nan, inf = float("nan"), float("inf")
    report.records += [
        cli.VerdictRecord(m=1.0, r0=3.0, ell=3, class_name="Undetermined", fitted_limit=nan,
                          fitted_exponent=nan, r_max=nan, passed=False, integrate_s=0.0,
                          classify_s=2.5e-6),
        cli.VerdictRecord(m=-0.25, r0=1e-300, ell=4, class_name="DivergesMinus",
                          fitted_limit=-inf, fitted_exponent=inf, r_max=1.5e300, passed=True,
                          integrate_s=1e-3, classify_s=1e-4, n_steps=7, nfev=93, stop="k_div"),
    ]
    return report


class TestJsonWriter:
    def test_sweep_payload_text_is_json_dumps_with_indent(self):
        payload = cli._sweep_payload(report_with_failures())
        assert cli._json_text(payload) == json.dumps(payload, indent=2)

    def test_emitted_json_is_json_dumps_with_indent(self, tmp_path):
        report = report_with_failures()
        emit(report, str(tmp_path))
        text = (tmp_path / "sweep.json").read_text(encoding="utf-8")
        assert text == json.dumps(cli._sweep_payload(report), indent=2) + "\n"
        failed, extreme = json.loads(text)["records"][-2:]
        assert [failed[k] for k in ("n_steps", "nfev", "stop")] == [None, None, None]
        assert all(np.isnan(failed[k]) for k in ("fitted_limit", "fitted_exponent", "r_max"))
        assert '"fitted_limit": NaN,' in text and '"fitted_limit": -Infinity,' in text

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param([], id="no-records"),
            pytest.param([{"a": 1.0, "b": None}, {"b": None, "a": 1.0}], id="key-order-differs"),
            pytest.param([{"a": [1.0, 2.0]}, {"a": []}], id="nested-values"),
            pytest.param([{"a": "é\n\"", "b%s": True, "c": -0.0, "d": 10**20}], id="scalars"),
            pytest.param([{}], id="empty-record"),
            pytest.param([1.0, {"a": 1}], id="not-records"),
            pytest.param([{"a": np.float64(0.1), "b": 1}], id="float-subclass"),
        ],
    )
    def test_any_payload_is_json_dumps_with_indent(self, value):
        payload = {"head": {"x": [1, 2], "y": {}}, "records": value, "tail": "%s"}
        assert cli._json_text(payload) == json.dumps(payload, indent=2)

    def test_scipy_version_read_without_import(self):
        import scipy

        assert cli._sweep_payload(run_sweep(SweepConfig(**SMALL)))["environment"]["scipy"] == (
            scipy.__version__)
        assert "scipy" not in vars(cli)


class TestBatchTimes:
    def test_classify_share_is_even_and_the_batch_adds_up(self):
        cfg = {"r_max_factor": 1e4, "rtol": cli.DEFAULT_RTOL, "atol": cli.DEFAULT_ATOL,
               "k_div": 1e3, "decay_q": 0.75, "eps_dec": 1e-4}
        tasks = [(1.0, 3.0, ell) for ell in range(4)] + [(0.0, 1.0, 2), (-1e308, 1.0, 0)]
        t0 = time.perf_counter()
        records = cli._sweep_chunk((cfg, tasks, None))
        elapsed = time.perf_counter() - t0
        assert len({rec.classify_s for rec in records}) == 1 and records[0].classify_s > 0.0
        for rec in records:
            assert rec.wall_time_s == rec.integrate_s + rec.classify_s
        total = sum(rec.wall_time_s for rec in records)
        assert 0.5 * elapsed <= total <= elapsed
        assert records[-1].class_name == "Undetermined" and records[-1].nfev is None

    def test_failed_fit_is_an_undetermined_record(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", no_convergence)
        report = run_sweep(SweepConfig(**SMALL))
        for rec in report.records:
            assert (rec.class_name, rec.passed, rec.stop) == ("Undetermined", False, None)
            assert np.isnan(rec.fitted_limit)
