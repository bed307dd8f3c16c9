#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,...] [--trace 0|1]

For every workload (default: all in BENCHMARK.json) it runs
perfbench/run.py once per seed with BENCHMARK.json's run_seconds, then
prints, per metric, the median of the runs and the spread: the distance
between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)). End-to-end spreads are set beside
their bound. Exits non-zero if a run fails or reports incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    status = 0
    for workload in args.workloads.split(","):
        values = {}
        print(f"== {workload}", flush=True)
        for seed in args.seeds.split(","):
            start = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(root, "perfbench", "run.py"),
                 "--workload", workload, "--seed", seed,
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=root, check=False)
            if proc.returncode != 0:
                print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                status = 1
            brief = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
            print(f"seed {seed}: {time.time() - start:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}, {brief}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            quartiles = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (quartiles[2] - quartiles[0]) / med if med else 0.0
            bound = bounds.get(name)
            ratio = f"  {spread / bound:5.2f} of bound {bound}" if bound else ""
            print(f"  {name:40s} median {med:14.6f} spread {spread:7.4f}{ratio}")
    return status


if __name__ == "__main__":
    sys.exit(main())
