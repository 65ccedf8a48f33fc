#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload serve-64 --seeds 1-10 --seconds 36

Runs perfbench/run.py once per seed and prints, per metric, the median and
the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(results):
    names = list(results[0]["metrics"])
    print("%-22s %14s %10s   (%d runs, %d attempted, %d failed)" % (
        "metric", "median", "spread", len(results),
        sum(r["attempted"] for r in results), sum(r["failed"] for r in results)))
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-22s %14.6g %9.1f%%" % (name, med, 100 * spread))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="36")
    args = ap.parse_args()
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    results = []
    for seed in seeds_of(args.seeds):
        res = subprocess.run(
            [sys.executable, run, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds],
            stdout=subprocess.PIPE, text=True)
        line = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
        if res.returncode != 0 or not line:
            sys.exit("seed %d: run failed with code %d" % (seed, res.returncode))
        results.append(json.loads(line))
    if len(results) < 2:
        sys.exit("need at least two runs")
    summarise(results)


if __name__ == "__main__":
    main()
