#!/usr/bin/env python3
"""Runs the benchmark command from BENCHMARK.json on one workload over
several seeds and prints each metric's median and spread: the distance
between the first and third quartile as a share of the median.

    python3 perfbench/spread.py WORKLOAD SEED[,SEED...] [--trace 1]

Run it from the repository root.
"""
import json
import statistics
import subprocess
import sys


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    workload, seeds = sys.argv[1], [int(s) for s in sys.argv[2].split(",")]
    trace = sys.argv[4] if sys.argv[3:4] == ["--trace"] else "0"
    bench = json.load(open("BENCHMARK.json"))
    values = {}
    for seed in seeds:
        args = ["--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", trace]
        run = subprocess.run(bench["command"] + args, capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vs in values.items():
        median = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(median)
        print(f"{name:36s} median {median:16.4f} spread {spread:6.3f}")


if __name__ == "__main__":
    main()
