"""The benchmark's sweep workload still reads the sweep.csv it is given.

perfbench/workloads.py checks each record by position: the class at
column 3, `pass` at column 7 and `wall_time_s` last.  A change to the CSV
layout that moved them would make the benchmark report wrong outputs, which
no other test sees.  The module is loaded by path and left as it is.
"""

import importlib.util
import sys
from pathlib import Path

from schwarzstatic import cli

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_small_sweep_unit_reads_its_csv(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the serial sweep started a worker process")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    header = cli.CSV_HEADER.split(",")
    assert (header[3], header[7], header[-1]) == ("class", "pass", "wall_time_s")
    outcome = _load_workloads(monkeypatch).Sweep(seed=1, jobs=1, work_dir=str(tmp_path), small=True).run()
    assert outcome.wrong == [] and outcome.failed == 0
    assert outcome.attempted == 2 * outcome.detail["modes"] > 0
