#!/usr/bin/env python3
"""Build and run the CoherSim benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 2018 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the simulator library and the
benchmark driver from source into .bench_build/perfbench (Release,
-O3 with assertions kept on); later calls rebuild incrementally. The
driver's output is relayed unchanged: metric lines, then one JSON
result line. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# The build every comparable run must come from: optimised code with
# assertions on, as the CI perf job builds it (-O3 -UNDEBUG).
BUILD_TYPE = "Release"
CXX_FLAGS = "-O3 -UNDEBUG"

# The driver must finish within 180 s; leave room for the relay.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no CoherSim sources next to perfbench/ (expected src/)", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                      "-DCMAKE_CXX_FLAGS_RELEASE=" + CXX_FLAGS])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def check_build(context):
    b = context.get("build", {})
    if (b.get("build_type"), b.get("cxx_flags"), b.get("assertions")) != \
            (BUILD_TYPE, CXX_FLAGS, True):
        fail("refusing to report a run of a different build: %s" % b, 3)


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        fail("driver did not end with a JSON result line")
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        fail("malformed result line: " + line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2018)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's helper tests")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_tests")]).returncode)
    if not args.workload:
        fail("--workload is required", 2)

    exe = build("cohersim_perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        # No result: show what the driver printed, report no result.
        sys.stderr.write(proc.stdout)
        fail("driver ended without a result (exit %d)" % proc.returncode)
    context = next((json.loads(l[len("context "):]) for l in lines
                    if l.startswith("context ")), {})
    check_build(context)
    check_result(lines[-1])
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
