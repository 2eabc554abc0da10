#!/usr/bin/env python3
"""Runs one workload under several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3] \
        [--seconds 30] [--trace 0|1]

Run from the root of a checkout. For every metric it prints the median
of the runs and the distance between the first and third quartile (as
statistics.quantiles(values, n=4) gives them) as a share of the median,
which is how run-to-run steadiness is judged against BENCHMARK.json's
bounds. Exits 1 if any run fails or reports correct=false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}

    values = {}
    ok = True
    for seed in args.seeds.split(","):
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", seed,
                   "--seconds", args.seconds, "--trace", args.trace]
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if run.returncode == 0 and lines else {}
        if not result.get("correct"):
            ok = False
            print("seed %s: failed (exit %d)" % (seed, run.returncode))
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %s: attempted %d failed %d" %
              (seed, result["attempted"], result["failed"]))

    for name, series in values.items():
        mid = statistics.median(series)
        spread = float("nan")
        if len(series) >= 2 and mid != 0:
            q = statistics.quantiles(series, n=4)
            spread = (q[2] - q[0]) / mid
        bound = bounds.get(name)
        print("%-28s median %-14.6g spread %-8.4f bound %-5s runs %s" %
              (name, mid, spread, bound,
               " ".join("%.4g" % v for v in series)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
