#!/usr/bin/env python3
"""Alternating benchmark pairs: a base revision against the working tree.

    python3 tests/bench_pairs.py --workload gauge --pairs 10 [--base HEAD] \\
        [--seconds 10]

Run from the root of a source checkout.  The base revision is exported with
``git archive`` into a temporary directory; then ``perfbench/run.py`` runs
at seed 1 there and in the working tree in turn, one process at a time,
the order swapped on every other pair so that a drift of the host's speed
falls on both sides alike.  Each run's last output line is the benchmark's JSON
result; every end-to-end metric of every run is printed as it finishes.

The summary applies the pair rule to every reported metric (lower is
better): the change wins a pair when its value is below the base's, and a
gain holds when at least 10 pairs were run, the change wins at least 9 in
10 of them, the gap between the medians exceeds the interquartile range of
the base's runs, and in no pair does the change fail more checks than the
base.  The script prints the win count, both medians and that range; it
exits 1 when a run fails or reports ``correct: false``.  pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
MIN_PAIRS = 10


def export(rev: str, dest: str) -> None:
    """Write the files of revision rev into dest with git archive."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree: str, args) -> dict:
    """One perfbench/run.py in tree; its JSON result."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload",
           args.workload, "--seed", str(SEED), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "selftest", "gauge"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for an interquartile range")

    runs = {"base": [], "change": []}
    failed = {"base": [], "change": []}
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_tree:
        export(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_once(trees[side], args)
                ok &= bool(result["correct"])
                values = {k: m["value"] for k, m in result["metrics"].items()}
                runs[side].append(values)
                failed[side].append(result["failed"])
                shown = "  ".join(f"{k}={v:.4f}" for k, v in sorted(values.items()))
                print(f"pair {i + 1:2d} {side:6s} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}  {shown}", flush=True)

    more_failed = sum(c > b for b, c in zip(failed["base"], failed["change"]))
    print(f"\n{args.workload} seed {SEED}, {args.pairs} pairs of {args.seconds:g} s, "
          f"base {args.base} against the working tree; "
          f"the change failed more checks in {more_failed} pairs")
    for name in sorted(runs["base"][0]):
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        wins = sum(c < b for b, c in zip(base, change))
        q1, q3 = quartiles(base)
        mb, mc = statistics.median(base), statistics.median(change)
        holds = (len(base) >= MIN_PAIRS and more_failed == 0
                 and wins >= 0.9 * len(base) and mb - mc > q3 - q1)
        print(f"{name}: wins {wins}/{len(base)}, median {mb:.4f} -> {mc:.4f} "
              f"({100.0 * (mc - mb) / mb:+.1f} %), base IQR {q3 - q1:.4f}: "
              f"gain {'holds' if holds else 'not shown'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
