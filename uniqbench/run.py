#!/usr/bin/env python3
"""Builds and runs the uniqopt benchmark.

Usage, from the repository root:

    python3 uniqbench/run.py --workload adhoc|analytic|oltp|all \
        --seed N --seconds S --trace 0|1

The first run configures and builds the library sources in src/ together
with the harness in uniqbench/ (CMake, RelWithDebInfo) into
.bench_build/uniqbench; later runs only let CMake confirm the build is
current. Build output goes to standard error, so the last line of
standard output is always the result JSON of the run. A traced run
(--trace 1) also writes its spans as Chrome trace-event JSON to
.bench_build/uniqbench/trace-<workload>-<seed>.json.

The exit code is the harness's: 0 when every correctness check passed,
non-zero otherwise (and when the build fails).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("adhoc", "analytic", "oltp")
BUILD_TYPE = "RelWithDebInfo"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "uniqbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "uniqbench")
BINARY = os.path.join(BUILD_DIR, "uniqbench")


def fail(message, code=2):
    print("uniqbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found: run from a uniqopt checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, seed, seconds, trace):
    """Runs one workload, echoing its report; returns (exit code, result
    line, result dict or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "trace-%s-%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    if result is None:
        return (proc.returncode or 1), None, None
    expected = expected_metrics(trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        print("uniqbench: reported metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 3, lines[-1], result
    return proc.returncode, lines[-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    if args.workload != "all":
        code, line, _ = run_one(args.workload, args.seed, args.seconds,
                                args.trace == 1)
        if line is not None:
            print(line)
        sys.exit(code)

    # All three workloads, one after another; the last line merges their
    # results with metric names prefixed by the workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    exit_code = 0
    for workload in WORKLOADS:
        code, _, result = run_one(workload, args.seed, args.seconds,
                                  args.trace == 1)
        exit_code = exit_code or code
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    print(json.dumps(merged))
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
