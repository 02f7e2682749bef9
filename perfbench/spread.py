#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed and prints, for every end-to-end metric,
the median over the runs and the distance between the first and third
quartiles as a share of the median -- the spread a metric's bound in
BENCHMARK.json must stay above.

    python3 perfbench/spread.py --workload serve_hot --seeds 1-10

Run from the repository root. The command and run_seconds come from
BENCHMARK.json, so the spread is that of the benchmark's own runs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    command = bench["command"]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        run = subprocess.run(
            command
            + ["--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n{run.stderr}")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()),
              flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    print(f"{args.workload}: {len(args.seeds)} runs of {seconds} s")
    for name, vs in values.items():
        median = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        print(f"  {name:14s} median {median:<14.6g} spread {spread:7.2%}"
              f"  bound {bound:.0%}  (spread/bound {spread / bound:.2f})")


if __name__ == "__main__":
    main()
