#!/usr/bin/env python3
"""Build and run the pragma-advisor benchmark (see README.md here).

Usage, from the repository root:

    python3 perfbench/run.py --workload project_scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest      # build and run the helper tests

The first call configures and builds the repository's library and the
benchmark under .bench_build/ (Release); later calls rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The exit code is the benchmark's: 0 ok, 1 a check failed,
2 bad arguments.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", *targets],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build(["perfbench_helpers_test"]):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_helpers_test")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build(["perfbench"]):
        return 1
    command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(spans, f"{args.workload}-{args.seed}.tsv")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
