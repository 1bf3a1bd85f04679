#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload table1|scale|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
the perfbench package (CMake, Release) into .bench_build/perfbench; later
calls only rebuild what changed.  Build output and the benchmark's
reports go to stderr; the last line of stdout is the result JSON
({"correct", "attempted", "failed", "metrics"}).  Traced runs also write
a chrome trace and a self-time report under .bench_out/.

Exits non-zero, without a result line, when the build fails (for example
when the planner sources under src/ are missing) or the run does not
finish; exits 1 after the result line when a correctness check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 110


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "rabid.hpp")):
        sys.exit("perfbench: planner sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                   env=env)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["table1", "scale", "serve"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # Compiler and benchmark temporaries stay inside the checkout.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        build(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)

    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_GRACE_S, env=env)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the run did not finish in time")
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.exit("perfbench: the run failed (exit %d)" % run.returncode)

    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace == 1)
    if expected is not None and list(result["metrics"]) != expected:
        result["correct"] = False
        print("perfbench: printed metrics differ from BENCHMARK.json",
              file=sys.stderr)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
