#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which builds the library from the
repository's own CMakeLists.txt) into .bench_build/, then runs the
pipemare_bench program for one workload. Its report is passed
through; its last line, one JSON object with the keys correct, attempted,
failed and metrics, is the result. Build output goes to stderr. Any build
or run failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = (
    "train_resnet_steal",
    "train_transformer_threaded",
    "train_transformer_hogwild",
    "serve_transformer_mixed",
)
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures and builds pipemare_bench (incrementally); returns its path."""
    subprocess.run(
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "pipemare_bench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "pipemare_bench")


def check_result(root, result, trace):
    """Returns why the result line breaks the BENCHMARK.json contract, or None."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != units:
        return f"metrics {sorted(set(got) ^ set(units))} or their units differ"
    if result["attempted"] < 1:
        return "nothing attempted"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out-dir={out_dir}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=root)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: pipemare_bench exited with {proc.returncode}", file=sys.stderr)
        return 4
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        print("perfbench: pipemare_bench printed no result line", file=sys.stderr)
        return 5
    problem = check_result(root, result, args.trace)
    if problem is not None:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: result does not match BENCHMARK.json: {problem}",
              file=sys.stderr)
        return 6
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
