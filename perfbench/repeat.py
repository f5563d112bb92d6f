#!/usr/bin/env python3
"""Run one workload N times on consecutive seeds and print, per metric,
the median, the quartiles and the spread (Q3 - Q1) / median, next to the
metric's bound from BENCHMARK.json.

Usage, from the root of a checkout:

    python3 perfbench/repeat.py --workload paper128 --runs 10 [--seed0 1]
        [--seconds 20] [--trace 0|1] [--log DIR]

A spread at or above a third of its bound is flagged: such a metric is
not yet steady enough to gate on. `--log DIR` keeps each run's full
output there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.seed0 + i
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True,
        )
        if args.log:
            os.makedirs(args.log, exist_ok=True)
            path = os.path.join(args.log, "%s-seed%d.txt" % (args.workload, seed))
            with open(path, "w") as f:
                f.write(out.stdout + out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d failed with status %d" % (seed, out.returncode), file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print("seed %d: correct %s, attempted %d, failed %d"
              % (seed, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print("%-36s %8s %14s %14s %14s %8s %6s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "  <- spread >= bound/3" if bound is not None and spread >= bound / 3 else ""
        print("%-36s %8s %14.6g %14.6g %14.6g %8.4f %6s%s" %
              (name, units[name], med, q1, q3, spread,
               "-" if bound is None else "%.2f" % bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
