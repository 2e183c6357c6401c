#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs a small copy untraced and
traced and checks that each end-to-end and per-layer metric named there is
emitted, with its unit and a finite value, that the outputs were judged
correct, and that no span's self time is negative.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile

import launch
import run


def _check_metrics(label, got, expected):
    want = {m["name"]: m["unit"] for m in expected}
    have = {name: unit for name, (_, unit) in got.items()}
    if have != want:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        wrong_unit = sorted(k for k in set(want) & set(have) if want[k] != have[k])
        raise AssertionError(f"{label}: missing {missing}, unexpected {extra}, unit {wrong_unit}")
    bad = [name for name, (value, _) in got.items() if not math.isfinite(value)]
    if bad:
        raise AssertionError(f"{label}: non-finite values for {bad}")


def main() -> int:
    with open(os.path.join(launch.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    launch.pin_blas_threads(run.BLAS_THREADS)
    launch.prepare()
    from tracing import self_times_ns

    out_root = os.path.join(launch.ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="smoke-", dir=out_root)
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            jobs = run.jobs_for(workload)
            for trace, expected in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
                label = f"{workload} trace={int(trace)}"
                result = run.measure(workload, seed=7, seconds=0.0, trace=trace, jobs=jobs,
                                     work_dir=work_dir, small=True)
                _, _, wrong = run.tally(result.outcomes)
                if wrong:
                    raise AssertionError(f"{label}: wrong outputs {wrong}")
                _check_metrics(label, result.metrics, expected)
                if trace:
                    own = self_times_ns(result.tracer.spans)
                    if not result.tracer.spans or min(own) < 0:
                        raise AssertionError(f"{label}: {len(own)} spans, least self time {min(own, default=0)} ns")
                print(f"ok {label}: {len(result.metrics)} metrics", flush=True)
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
