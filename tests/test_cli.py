import argparse
import json
import math
import os
import re
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
from schwarzstatic import modes
from schwarzstatic.modes import AsymptoticClass, AsymptoticKind, lane_end

SMALL = dict(masses=[1.0], r0_offsets=[1.0], ell_max=2)
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

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(dict(r0_offsets=[0.0, 1.0]), id="zero-offset"),
            pytest.param(dict(masses=[float("nan")]), id="nan-mass"),
            pytest.param(dict(r0_offsets=[float("inf")]), id="inf-offset"),
            pytest.param(dict(masses=[1e308]), id="overflowing-r0"),
            # 2m + offset rounds to 2m, the horizon itself
            pytest.param(dict(masses=[1e17], r0_offsets=[1.0]), id="r0-rounds-onto-horizon"),
            pytest.param(dict(masses=[1.0], r0_offsets=[1e-300]), id="tiny-offset-rounds-away"),
        ],
    )
    def test_rejects_nonpositive_offsets(self, overrides):
        with pytest.raises(ConfigError):
            SweepConfig(**overrides)

    @pytest.mark.parametrize("ell_max", [2.5, 2.0, "2"])
    def test_rejects_non_integer_ell_max(self, ell_max):
        with pytest.raises(ConfigError, match="ell_max"):
            SweepConfig(ell_max=ell_max)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"massess": [1.0]})

    @pytest.mark.parametrize(
        "key,value",
        [
            ("masses", [1.0, True]),
            ("r0_offsets", [False]),
            ("ell_max", True),
            ("seed", False),
        ],
    )
    def test_rejects_booleans(self, key, value):
        # JSON true/false are Python bools, which would pass as 1 and 0
        with pytest.raises(ConfigError, match=key):
            SweepConfig.from_dict({key: value})

    @pytest.mark.parametrize("key", ["masses", "r0_offsets"])
    def test_rejects_strings(self, key):
        with pytest.raises(ConfigError, match=key):
            SweepConfig.from_dict({key: ["1"]})

    def test_value_of_the_wrong_shape_is_a_config_error(self):
        # a number where a list belongs fails in the dataclass with a TypeError
        with pytest.raises(ConfigError, match="not iterable"):
            SweepConfig.from_dict({"masses": 5})

    def test_integers_are_stored_as_floats(self):
        config = SweepConfig.from_dict(
            {"masses": [1, -2], "r0_offsets": [3]})
        assert config.masses == [1.0, -2.0] and config.r0_offsets == [3.0]
        assert all(type(x) is float for x in (*config.masses, *config.r0_offsets))
        assert type(config.ell_max) is int

    def test_tasks_are_mass_offset_degree_triples(self):
        config = SweepConfig(masses=[-1.0, 1.0], r0_offsets=[0.5], ell_max=1)
        assert list(config.tasks()) == [
            (-1.0, 0.5, 0), (-1.0, 0.5, 1), (1.0, 2.5, 0), (1.0, 2.5, 1),
        ]


class TestRunSweep:
    def test_small_sweep_passes(self):
        report = run_sweep(SweepConfig(**SMALL))
        assert len(report.records) == 3
        assert report.all_passed
        classes = [r.class_name for r in report.records]
        assert classes[0] == "ConvergesNonzero"
        assert classes[1] == "DivergesPlus"

    def test_flat_single_record(self):
        report = run_sweep(SweepConfig(masses=[0.0], r0_offsets=[1.0], ell_max=0))
        assert report.all_passed
        assert report.records[0].class_name == "ConvergesNonzero"
        assert_allclose(report.records[0].alpha, 1.0, rtol=1e-9)

    def test_default_sweep_matches_fixture(self, tmp_path):
        # sweep.csv without wall_time_s: batching changes no byte.  The
        # fixture's class and pass columns date from the per-mode stepper in
        # r and x = 1/r; its numeric columns are the growth-coefficient
        # readouts and lane ends of the lockstep in t = ln s.
        # Regenerate the fixture with
        #   PYTHONPATH=src python -m schwarzstatic.cli sweep --out-dir OUT
        #   cut -d, -f1-8 OUT/sweep.csv > tests/data/default_sweep.csv
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
            return rec.class_name, rec.alpha, rec.r_max, rec.n_steps, rec.nfev

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

    def test_sweep_samples_only_what_it_writes(self, tmp_path, monkeypatch):
        # the verdicts read each lane's end state: a sweep evaluates no
        # profile, and with a profile directory one per written file
        calls = []
        evaluate = modes._Dense.eval

        def counting(self, *args):
            calls.append(args)
            return evaluate(self, *args)

        monkeypatch.setattr(modes._Dense, "eval", counting)
        assert run_sweep(SweepConfig(**SMALL)).all_passed
        assert calls == []
        run_sweep(SweepConfig(**SMALL), profile_dir=str(tmp_path))
        assert len(calls) == len(os.listdir(tmp_path)) == 3

    def test_parallel_matches_serial(self):
        config = SweepConfig(**SMALL)
        serial = run_sweep(config, jobs=1)
        parallel = run_sweep(config, jobs=2)
        for a, b in zip(serial.records, parallel.records):
            assert a.class_name == b.class_name
            assert a.alpha == b.alpha
            assert a.r_max == b.r_max


class TestEmit:
    def test_csv_and_json_layout(self, tmp_path):
        report = run_sweep(SweepConfig(**SMALL))
        paths = emit(report, str(tmp_path))
        lines = read_csv(paths[0])
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == len(report.records) + 1
        data = json.loads(open(paths[1], encoding="utf-8").read())
        assert list(data) == ["schema_version", "environment", "config", "thresholds",
                              "records", "summary"]
        assert data["schema_version"] == "7"
        assert set(data["environment"]) == {"python", "numpy"}
        assert data["environment"]["numpy"] == np.__version__
        assert data["config"] == {"masses": [1.0], "r0_offsets": [1.0], "ell_max": 2,
                                  "seed": 0}
        # the module constants of modes every verdict was made with
        assert data["thresholds"] == {"rtol": 1e-10, "atol": 1e-12, "k_div": 1e3,
                                      "alpha_rtol": modes.ALPHA_RTOL}
        assert len(data["records"]) == 3
        for rec in data["records"]:  # degrees 0, 1, 2 at (m, r0) = (1, 3)
            assert rec["n_steps"] > 0 and rec["nfev"] > rec["n_steps"]
            assert rec["wall_time_s"] == rec["integrate_s"] + rec["classify_s"]
        # each lane runs to lane_end(1, 3) = 5, short of |a| = k_div |a0|
        assert [rec["stop"] for rec in data["records"]] == ["r_max", "r_max", "r_max"]
        assert [rec["reason"] for rec in data["records"]] == [None] * 3
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
        assert float(line[4]) == report.records[0].alpha
        assert float(line[5]) == report.records[0].alpha_drift

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

        # (m, r0, ell) = (1, 3, 1) runs to its lane end; its final Phi matches
        # the log closed form Phi(r) = alpha0 (l(l+1)/2m = 1/m here)
        # [ln((r-2m)/r) - ln((r0-2m)/r0)]
        rec = report.records[9]
        assert (rec.m, rec.r0, rec.ell) == (1.0, 3.0, 1)
        assert rec.r_max == lane_end(rec.m, rec.r0) == 5.0
        last = read_csv(sweep_dir / names[9])[-1].split(",")
        r_end, phi_end = float(last[0]), float(last[5])
        expect = 1.5 * (np.log((r_end - 2.0) / r_end) + np.log(3.0))
        assert abs(phi_end - expect) <= 1e-4

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
                         "--out-dir", str(tmp_path)]) == 0
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
                "--ell-max", "1", "--out-dir", str(tmp_path),
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

    @pytest.mark.parametrize("text", ["[1.0]", '"masses"', "3"])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert "JSON object" in capsys.readouterr().err

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
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        data = json.loads((tmp_path / "sweep.json").read_text())
        assert data["config"]["ell_max"] == 0

    @pytest.mark.parametrize(
        "data,key",
        [({"masses": [True], "r0_offsets": [1], "ell_max": 0}, "masses")],
        ids=["bool-mass"],
    )
    def test_boolean_config_is_usage_error(self, tmp_path, capsys, data, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_writes_the_flags_csv(self, tmp_path):
        # integers in a config file are floats, as the flags parse them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"masses": [1, -1], "r0_offsets": [1, 2], "ell_max": 1}
        ))
        from_file, from_flags = tmp_path / "file", tmp_path / "flags"
        assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(from_file)]) == 0
        assert cli.main(
            ["sweep", "--masses", "1,-1", "--deltas", "1,2", "--ell-max", "1",
             "--out-dir", str(from_flags)]
        ) == 0

        def without_wall_time(path):
            return [row.rsplit(",", 1)[0] for row in read_csv(path / "sweep.csv")]

        rows = without_wall_time(from_file)
        assert rows == without_wall_time(from_flags)
        assert rows[1].startswith("1.0,3.0,0,")  # r0 = 2 m + 1

    def test_failing_record_gives_exit_two(self, tmp_path, monkeypatch):
        fake = AsymptoticClass(AsymptoticKind.UNDETERMINED, 0.0, 0.0, 1.0)
        monkeypatch.setattr(cli, "classify_modes", lambda sols, **k: [fake] * len(sols))
        code = cli.main(
            ["sweep", "--masses", "1.0", "--deltas", "1.0", "--ell-max", "0",
             "--out-dir", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "planted,reason",
        [
            pytest.param(lambda w: 2.0 * w, "the two readouts disagree", id="disagreement"),
            pytest.param(lambda w: math.inf, "not a finite float", id="declined"),
        ],
    )
    def test_unconfirmed_readout_exits_two_with_its_reason(
        self, tmp_path, monkeypatch, capsys, planted, reason
    ):
        # the closed-form readout is fed a wrong initial slope, or one past
        # the floats: sweep and mode both exit 2 and say why, with no traceback
        state = modes._initial_state
        monkeypatch.setattr(modes, "_initial_state",
                            lambda ivp: (*state(ivp)[:2], planted(state(ivp)[2])))
        code = cli.main(["sweep", "--masses", "1", "--deltas", "1", "--ell-max", "1",
                         "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == "" and "Traceback" not in captured.out
        fails = [ln for ln in captured.out.splitlines() if ln.startswith("FAIL ")]
        assert len(fails) == 2 and all(": Undetermined (" in ln and reason in ln for ln in fails)
        records = json.loads((tmp_path / "sweep.json").read_text())["records"]
        assert all(reason in rec["reason"] and not rec["pass"] for rec in records)
        code = cli.main(["mode", "--m", "1", "--r0", "3", "--ell", "2",
                         "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert ": Undetermined " in captured.out and reason in captured.out

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
            ["mode", "--m", "1", "--r0", "3", "--ell", "0", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert "ConvergesNonzero" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad,code",
        [
            pytest.param(["--r0", "1"], 1, id="r0-inside-horizon"),
            pytest.param(["--ell", "-1"], 1, id="negative-ell"),
            pytest.param(["--a0", "nan"], 1, id="nan-a0"),
            pytest.param(["--a0", "0"], 1, id="zero-a0"),
            pytest.param(["--a0", "5e-324"], 1, id="subnormal-a0"),
            pytest.param(["--a0=-1e-310"], 1, id="negative-subnormal-a0"),
            pytest.param(["--m=-1e308"], 2, id="solver-failure"),
        ],
    )
    def test_mode_cli_rejects_bad_params(self, tmp_path, capsys, bad, code):
        assert cli.main(
            ["mode", "--m", "1", "--r0", "3", "--ell", "0", "--out-dir", str(tmp_path)]
            + bad
        ) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_mode_cli_solver_failure_names_itself_once(self, tmp_path, capsys):
        # the initial state r0 (r0 - 2m) a'(r0) overflows; the message is
        # prefixed once, whether the lane fails before or during stepping
        assert cli.main(
            ["mode", "--m=-1e308", "--r0", "1", "--ell", "0", "--out-dir", str(tmp_path)]
        ) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.count("error:") == 1
        assert err.startswith("error: mode integration failed: ")
        assert err.count("integration failed") == 1

    def test_mode_cli_next_to_the_horizon_classifies(self, tmp_path, capsys):
        # a solver failure while the mode stepped in r, where r0 - 2m = 1e-12
        # needed steps below 10 ulp of r; t = ln s resolves it with ordinary steps
        assert cli.main(["mode", "--m", "1", "--r0", "2.000000000001", "--ell", "3",
                         "--out-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert ": DivergesPlus alpha=" in captured.out and captured.err == ""

    @pytest.mark.parametrize(
        "m,r0,ell",
        [
            pytest.param("0", "1e302", "2000", id="r0^l-overflows"),
            pytest.param("0", "1e-320", "0", id="subnormal-r0"),
        ],
    )
    def test_mode_cli_out_of_range_zero_mass_lane_is_a_solver_failure(
        self, tmp_path, capsys, m, r0, ell
    ):
        # the initial state w(r0) = r0 (r0 - 2m) a'(r0) = l(l+1) r0 a0 / 2
        # overflows at r0 = 1e302, l = 2000, and a subnormal r0 has lost
        # significant digits; r0^l once gave an OverflowError and a subnormal
        # r0 a ZeroDivisionError.  Warnings are errors here, so none is
        # printed either
        assert cli.main(["mode", "--m", m, "--r0", r0, "--ell", ell,
                         "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.count("error:") == 1
        assert captured.err.startswith("error: mode integration failed: ")
        assert "Warning" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("m,r0", [("0", "1e-300"), ("1e-8", "1e160")])
    def test_mode_cli_lane_past_the_old_rho2_range_diverges_plus(self, tmp_path, capsys, m, r0):
        # r0 (r0 - 2m) underflows at 1e-300 and overflows at 1e160, where the
        # initial state was once formed through it and the mode exited 2
        assert cli.main(["mode", "--m", m, "--r0", r0, "--ell", "3",
                         "--out-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert ": DivergesPlus alpha=" in captured.out and captured.err == ""

    def test_mode_cli_undetermined_mode_exits_two(self, tmp_path, monkeypatch, capsys):
        # exit 2 for a decaying or undetermined mode, the sweep's pass rule;
        # the verdict line and the profile are still written
        nan = float("nan")
        monkeypatch.setattr(cli, "classify", lambda sol: AsymptoticClass(
            AsymptoticKind.UNDETERMINED, nan, nan, sol.r_max_used))
        assert cli.main(["mode", "--m=-1", "--r0", "1e-8", "--ell", "2",
                         "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert ": Undetermined " in captured.out and captured.err == ""
        assert (tmp_path / "mode_m-1_r01e-08_l2.csv").exists()

    @pytest.mark.parametrize(
        "m,r0,ell,klass",
        [
            ("-1", "1e-12", "5", "DivergesPlus"),
            ("-1", "1e-8", "2", "DivergesPlus"),
            ("-4.32", "8.6e-4", "0", "ConvergesNonzero"),
        ],
    )
    def test_mode_cli_tiny_r0_negative_mass_certifies(self, tmp_path, capsys, m, r0, ell, klass):
        # the true classes (the growth coefficient of the closed form is
        # positive for ell >= 1).  A run out to 1e6 r0 ended before the tail
        # r >> |m|: the first gave ConvergesNonzero with exit 0, the other
        # two Undetermined with exit 2
        assert cli.main(["mode", f"--m={m}", "--r0", r0, "--ell", ell,
                         "--out-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert f": {klass} " in captured.out and captured.err == ""

    @pytest.mark.parametrize("r0", ["1e80", "1e100"])
    def test_mode_cli_near_zero_mass_at_a_huge_radius_diverges_plus(self, tmp_path, capsys, r0):
        # r0^(-l-2) is subnormal at 1e80 and underflows at 1e100, which once
        # made a closed form fail or give the wrong sign; the integrator
        # needs no power of r0
        assert cli.main(["mode", "--m", "1e-30", "--r0", r0, "--ell", "3",
                         "--out-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert ": DivergesPlus alpha=" in captured.out
        assert f" r_max=2e+{r0[2:]};" in captured.out  # lane_end = 2 r0 - m
        assert captured.err == ""

    @pytest.mark.parametrize("delta", ["1e80", "1e100"])
    def test_flat_sweep_at_a_huge_radius_passes(self, tmp_path, capsys, delta):
        # l = 3 was once certified DivergesMinus with fitted_limit -inf at
        # 1e80, and the sweep ended in a LinAlgError traceback at 1e100; at
        # m = 0, alpha is (l+1)(l+2)/(2(2l+1)) for unit data
        code = cli.main(["sweep", "--masses", "0", "--deltas", delta, "--ell-max", "3",
                         "--out-dir", str(tmp_path)])
        assert code == 0
        rows = [row.split(",") for row in read_csv(tmp_path / "sweep.csv")[1:]]
        assert [row[:4] + row[7:8] for row in rows] == [
            ["0.0", repr(float(delta)), str(ell), klass, "true"]
            for ell, klass in enumerate(["ConvergesNonzero"] + ["DivergesPlus"] * 3)]
        ells = [int(row[2]) for row in rows]
        assert all(abs(float(row[4]) - (ell + 1) * (ell + 2) / (2 * (2 * ell + 1)))
                   <= 1e-9 * float(row[4]) for row, ell in zip(rows, ells))
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(["sweep", "--masses", "0", "--deltas", "1e-3", "--ell-max", "60"],
                         id="sweep-l60"),
            pytest.param(["mode", "--m", "0", "--r0", "1", "--ell", "16", "--a0", "1e300"],
                         id="mode-a0-1e300"),
        ],
    )
    def test_zero_mass_prints_no_overflow_warning(self, tmp_path, capsys, args):
        # a closed form sampled out to r_max overflowed past its crossing
        # here; warnings are errors in this test
        assert cli.main([*args, "--out-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "Warning" not in captured.err and captured.err == ""
        assert "DivergesPlus" in captured.out or "61/61 modes verified" in captured.out

    def test_mode_cli_tiny_normal_a0_keeps_the_class(self, tmp_path, capsys):
        # the problem is linear in a0: the smallest normal scale must not
        # change the verdict that a0 = 1 gives
        classes = []
        for a0 in ("1", "1e-300"):
            assert cli.main(
                ["mode", "--m", "1", "--r0", "3", "--ell", "2", "--a0", a0,
                 "--out-dir", str(tmp_path)]
            ) == 0
            classes.append(capsys.readouterr().out.split(": ")[1].split()[0])
        assert classes == ["DivergesPlus", "DivergesPlus"]

    @pytest.mark.parametrize("m", ["1", "0"])
    def test_mode_cli_figures_do_not_depend_on_the_scale_of_a0(self, tmp_path, capsys, m):
        # the mode is linear in a0, and atol scales with |a0| as the k_div
        # threshold does, so only alpha moves with a0, in proportion
        figures = []
        for a0 in ("1", "1e-6", "1e-12", "1e-300"):
            assert cli.main(["mode", "--m", m, "--r0", "3", "--ell", "2", "--a0", a0,
                             "--out-dir", str(tmp_path)]) == 0
            out = capsys.readouterr().out
            alpha = float(re.search(r" alpha=(\S+)", out).group(1)) / float(a0)
            figures.append(re.findall(r"(DivergesPlus|r_max=[^;]+)", out) + [f"{alpha:.5g}"])
        assert len(figures[0]) == 3 and figures == [figures[0]] * 4

    @pytest.mark.parametrize("a0", ["1e306", "-1e306"])
    @pytest.mark.parametrize("m", ["1", "0"])
    def test_mode_cli_rejects_a0_whose_threshold_overflows(self, tmp_path, capsys, m, a0):
        # K_DIV |a0| would overflow to inf
        assert cli.main(["mode", "--m", m, "--r0", "3", "--ell", "2", f"--a0={a0}",
                         "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: |a0| must be at most ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert os.listdir(tmp_path) == []

    def test_mode_cli_integrates_once(self, tmp_path, monkeypatch):
        calls = []
        integrate = cli.integrate_mode

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(cli, "integrate_mode", counting)
        code = cli.main(["mode", "--m", "1", "--r0", "3", "--ell", "2",
                         "--out-dir", str(tmp_path)])
        assert code == 0
        assert len(calls) == 1

    def test_seed_defaults_to_zero(self, monkeypatch, capsys):
        # --seed is the one way to set the seed: the environment sets nothing
        monkeypatch.setenv("SCHWARZSTATIC_SEED", "7")
        lines = []
        for args in ([], ["--seed", "0"], ["--seed", "7"]):
            assert cli.main(["gauge-test", *args]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1] != lines[2]

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(["--masses", "1e17", "--deltas", "1"], id="large-mass"),
            pytest.param(["--masses", "1", "--deltas", "1e-300"], id="tiny-offset"),
        ],
    )
    def test_r0_on_the_horizon_is_usage_error(self, tmp_path, capsys, args):
        # 2m + offset rounds to 2m: no mode of that sphere can be integrated
        code = cli.main(["sweep", *args, "--ell-max", "1", "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "horizon" in err and f"m={float(args[1])!r}" in err
        assert f"offset={float(args[3])!r}" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_overflowing_extent_is_a_solver_failure(self, tmp_path, capsys):
        # lane_end(1, 1e308) = 2e308 overflows: no mode can reach it, so
        # each is a failed lane, recorded by sweep and reported by mode
        code = cli.main(["sweep", "--masses", "1", "--deltas", "1e308", "--ell-max", "1",
                         "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == ""
        rows = [row.split(",") for row in read_csv(tmp_path / "sweep.csv")[1:]]
        assert [row[2:8] for row in rows] == [
            [ell, "Undetermined", "nan", "nan", "nan", "false"] for ell in ("0", "1")]
        assert cli.main(["mode", "--m", "1", "--r0", "1e308", "--ell", "0",
                         "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: mode integration failed: r_max must be finite\n"
        assert captured.out == ""

    @pytest.mark.parametrize("key",
                             ["decay_q", "rtol", "atol", "eps_dec", "k_div", "r_max_factor"])
    def test_config_naming_a_removed_key(self, tmp_path, capsys, key):
        # the solver, extent and classifier settings are constants of modes, not keys
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"masses": [1.0], key: 0.5}))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: unknown config keys: [{key!r}]\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", [b"\xff\xfe{}", b"{", b"[1]"],
                             ids=["not-utf-8", "not-json", "not-an-object"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {cfg} must") or err.startswith(
            f"error: cannot read config {cfg}: ")
        assert err.count("\n") == 1 and not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("rho,h", [("1", "1e200"), ("1e200", "1e-100")])
    def test_match_round_rejects_overflowing_mass(self, capsys, rho, h):
        assert cli.main(["match-round", "--rho", rho, "--h", h]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""


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
        config.write_text(json.dumps({"r_max_factor": 0.5}))
        proc = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", "sweep", "--config", str(config),
             "--out-dir", str(tmp_path)],
            capture_output=True,
        )
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert b"r_max_factor" in proc.stderr
        assert not (tmp_path / "sweep.csv").exists()

    def test_subprocess_r0_on_the_horizon_config_exit_one(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"masses": [1e17], "r0_offsets": [1], "ell_max": 1}))
        proc = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", "sweep", "--config", str(config),
             "--out-dir", str(tmp_path)],
            capture_output=True,
        )
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
        assert b"m=1e+17, offset=1.0" in proc.stderr
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
        "args",
        [
            pytest.param(["gauge-test", "--seed", "-1"], id="gauge-test-flag"),
            pytest.param(["selftest", "--seed", "-1"], id="selftest-flag"),
        ],
    )
    def test_subprocess_negative_seed_exit_one(self, args):
        proc = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", *args],
            capture_output=True,
        )
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert b"seed must be nonnegative" in proc.stderr

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "args,n_records,n_failed",
        [
            pytest.param(
                ["--masses=-1e200,1", "--deltas", "1", "--ell-max", "2"], 6, 3,
                id="stepping-failure",
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
        assert b"Traceback" not in proc.stderr and b"Warning" not in proc.stderr
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

    @pytest.mark.parametrize(
        "r0", [pytest.param("3e94", id="1e100"), pytest.param("3e154", id="1e160"),
               pytest.param("3e294", id="1e300")])
    def test_subprocess_huge_extent_classifies(self, tmp_path, r0):
        # each id is the extent 1e6 r0 / 3 these cases were written for, at
        # m = 1; the lane now ends at lane_end = 2 r0 - 1.  At r ~ 6e154
        # r(r-2m) overflows, so the profile must not form it; extents near
        # 3e300 once failed while the far tail was stepped in x = 1/r
        mode = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", "mode", "--m", "1", "--r0", r0,
             "--ell", "0", "--out-dir", str(tmp_path)],
            capture_output=True, timeout=120,
        )
        assert mode.returncode == 0, mode.stderr
        assert b"ConvergesNonzero" in mode.stdout
        assert b"Warning" not in mode.stderr, mode.stderr
        # Phi = 2(r-m) A / (r(r-2m)) + da, in exact arithmetic on the written row
        (profile,) = tmp_path.glob("mode_*.csv")
        r, _, da, A, _, Phi = map(float, read_csv(profile)[-1].split(","))
        assert r == lane_end(1.0, float(r0))
        r, m = Fraction(r), 1
        exact = 2 * (r - m) * Fraction(A) / (r * (r - 2 * m)) + Fraction(da)
        assert abs(Fraction(Phi) - exact) <= Fraction(1, 10**12) * abs(exact)
        sweep = subprocess.run(
            [sys.executable, "-m", "schwarzstatic.cli", "sweep", "--masses", "1",
             "--deltas", r0, "--ell-max", "0", "--out-dir", str(tmp_path)],
            capture_output=True, timeout=120,
        )
        assert sweep.returncode == 0, sweep.stderr
        (row,) = [line.split(",") for line in read_csv(tmp_path / "sweep.csv")[1:]]
        assert row[3] == "ConvergesNonzero"
        assert abs(float(row[4]) - 1.0) <= 1e-8

    @pytest.mark.parametrize("r0,ell", [("1e-305", "40"), ("1.5e302", "1")])
    def test_subprocess_lane_near_the_float_range_classifies(self, tmp_path, r0, ell):
        # at (1e-305, 40) a'(r0) = l(l+1) a0 / (2 r0) is 8.2e307 and grows
        # about 40-fold to the k_div crossing: the verdict reads the lane's
        # end state, and the profile's a' reads inf past the float range.
        # At (1.5e302, 1) w = r (r - 2m) a' nears the float range
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "schwarzstatic.cli", "mode", "--m", "0",
             "--r0", r0, "--ell", ell, "--out-dir", str(tmp_path)],
            capture_output=True, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
        assert b": DivergesPlus alpha=" in proc.stdout
        (profile,) = tmp_path.glob("mode_*.csv")
        da = [float(line.split(",")[2]) for line in read_csv(profile)[1:]]
        assert math.isfinite(da[0])
        assert (da[-1] == math.inf) == (r0 == "1e-305")

    def test_subprocess_sweep_near_the_float_range_certifies_every_degree(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "schwarzstatic.cli", "sweep", "--masses", "0",
             "--deltas", "1e-305", "--ell-max", "40", "--out-dir", str(tmp_path)],
            capture_output=True, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
        assert proc.stdout.startswith(b"41/41 modes verified non-decaying")

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(["match-round", "--rho", "1", "--h", "2"], id="match-round"),
            pytest.param(["selftest", "--seed", "1"], id="selftest"),
        ],
    )
    def test_subprocess_closed_stdout_exit_one(self, args):
        # stdout is a pipe whose read end is closed before the command starts,
        # so its first write fails with EPIPE, with no race against a reader
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "schwarzstatic.cli", *args],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr
        assert proc.stderr == b""

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
        "rc = cli.main(['sweep', '--masses', '1,0', '--deltas', '1', '--ell-max', '9',\n"
        "               '--out-dir', sys.argv[1]])\n"
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
    "cli-selftest": (
        "import contextlib, io\n"
        "from schwarzstatic import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"  # its [pass] lines
        "    assert cli.main(['selftest', '--refine']) == 0\n"
        "loaded()\n"
    ),
    "gauge": "import schwarzstatic.gauge\nloaded()\n",
    "selftest-conservation": (
        "import numpy as np\n"
        "from schwarzstatic import selftest\n"
        "loaded()\n"
        "rng = np.random.default_rng(0)\n"
        "assert selftest._suite_harmonics(rng).run().passed\n"
        "assert selftest._suite_gauge(rng).run().passed\n"
        "loaded()\n"
        "step = selftest._suite_conservation(rng)\n"
        "loaded()\n"
        "assert step.run().passed\n"
        "loaded()\n"
    ),
}


class TestStartupImports:
    @pytest.mark.parametrize("script", sorted(STARTUP_SCRIPTS))
    def test_no_script_loads_scipy(self, tmp_path, script):
        # no package import and no command loads any scipy module, selftest
        # included: its conservation suite integrates by quadrature, not by
        # solve_ivp, and is checked at every stage from its draw to its run
        proc = subprocess.run(
            [sys.executable, "-c", LOADED + STARTUP_SCRIPTS[script], str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        checkpoints = [line for line in proc.stdout.splitlines() if line.startswith("[")]
        assert checkpoints and checkpoints == ["[]"] * len(checkpoints)
        if script == "cli-sweep":
            # the k_div crossings of both masses, m = 0 included: on a run
            # out to lane_end, degrees 8 and up (m = 1) and 9 (m = 0) cross
            records = json.loads((tmp_path / "sweep.json").read_text())["records"]
            crossed = {(rec["m"], rec["ell"]) for rec in records if rec["stop"] == "k_div"}
            assert crossed == {(1.0, 8), (1.0, 9), (0.0, 9)}

    def test_cli_import_loads_no_importlib_metadata(self):
        # sweep.json names no scipy version, so nothing reads package metadata
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, schwarzstatic.cli\n"
             "print('importlib.metadata' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


def report_with_failures():
    """A small sweep's report plus a solver-failure record and non-finite readouts."""
    report = run_sweep(SweepConfig(**SMALL))
    nan, inf = float("nan"), float("inf")
    report.records += [
        cli.VerdictRecord(m=1.0, r0=3.0, ell=3, class_name="Undetermined", alpha=nan,
                          alpha_drift=nan, r_max=nan, passed=False, integrate_s=0.0,
                          classify_s=2.5e-6, reason="integration failed: r_max must be finite"),
        cli.VerdictRecord(m=-0.25, r0=1e-300, ell=4, class_name="DivergesMinus",
                          alpha=-inf, alpha_drift=inf, r_max=1.5e300, passed=True,
                          integrate_s=1e-3, classify_s=1e-4, n_steps=7, nfev=93, stop="k_div"),
    ]
    return report


class TestJsonWriter:
    def test_emitted_json_is_json_dumps_with_indent(self, tmp_path):
        report = report_with_failures()
        emit(report, str(tmp_path))
        text = (tmp_path / "sweep.json").read_text(encoding="utf-8")
        assert text == json.dumps(cli._sweep_payload(report), indent=2) + "\n"
        failed, extreme = json.loads(text)["records"][-2:]
        assert [failed[k] for k in ("n_steps", "nfev", "stop")] == [None, None, None]
        assert all(np.isnan(failed[k]) for k in ("alpha", "alpha_drift", "r_max"))
        assert failed["reason"] == "integration failed: r_max must be finite"
        assert '"alpha": NaN,' in text and '"alpha": -Infinity,' in text


class TestBatchTimes:
    def test_classify_share_is_even_and_the_batch_adds_up(self):
        tasks = [(1.0, 3.0, ell) for ell in range(4)] + [(0.0, 1.0, 2), (-1e308, 1.0, 0)]
        t0 = time.perf_counter()
        records = cli._sweep_chunk((tasks, None))
        elapsed = time.perf_counter() - t0
        assert len({rec.classify_s for rec in records}) == 1 and records[0].classify_s > 0.0
        for rec in records:
            assert rec.wall_time_s == rec.integrate_s + rec.classify_s
        total = sum(rec.wall_time_s for rec in records)
        assert 0.5 * elapsed <= total <= elapsed
        assert records[-1].class_name == "Undetermined" and records[-1].nfev is None

    def test_declined_readout_is_an_undetermined_record(self, monkeypatch):
        # the closed-form readout is not a finite float: the integrated lane
        # keeps its diagnostics, and the record says why it is not certified
        monkeypatch.setattr(modes, "_initial_state", lambda ivp: (1.0, math.nan, 0.0))
        report = run_sweep(SweepConfig(**SMALL))
        for rec in report.records:
            assert (rec.class_name, rec.passed, rec.stop) == ("Undetermined", False, "r_max")
            assert np.isnan(rec.alpha) and "closed-form" in rec.reason


class TestReadme:
    def test_synopsis_lists_the_parser_flags(self):
        # the "Command line" block of README.md names each subcommand's flags
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```")[1]
        documented = {}
        for line in block.strip().splitlines():
            if line.startswith("schwarzstatic "):
                command = line.split()[1]
                documented[command] = set()
            documented[command] |= set(re.findall(r"--[a-z][a-z0-9-]*", line))
        (sub,) = [action for action in cli._build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        parsed = {
            name: {flag for action in parser._actions for flag in action.option_strings
                   if flag.startswith("--") and flag != "--help"}
            for name, parser in sub.choices.items()
        }
        assert documented == parsed
