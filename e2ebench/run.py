#!/usr/bin/env python3
"""End-to-end benchmark of refbmc: builds e2ebench/ against the checkout's
src/ and runs one workload.

Usage (from the repository root):
  python3 e2ebench/run.py --workload std-suite|search-heavy|service-small \
      --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/ (both
relative to the current directory).  With --trace 1 the spans of e2e_bench
are written to <build>/trace-<workload>-<seed>.json and checked with
.github/scripts/trace_check.py, the checker of obs/export's trace files.  Its
stdout is passed through; its last line is the JSON result.  Exit code
0 only when the build, the run and the checks all pass.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("std-suite", "search-heavy", "service-small")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
TRACE_CHECK = os.path.join(".github", "scripts", "trace_check.py")


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir):
    if not os.path.isfile(os.path.join("src", "api", "refbmc.hpp")):
        fail("run from the root of a refbmc checkout (src/api/refbmc.hpp not found)")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "e2e_bench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(bench_dir, build_dir)

    cmd = [os.path.join(build_dir, "e2e_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        trace_file = os.path.join(build_dir, f"trace-{args.workload}-{args.seed}.json")
        cmd += ["--trace-file", trace_file]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"e2e_bench did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(done.stdout)
        fail(f"e2e_bench exited {done.returncode} without a JSON result", 1)
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if done.returncode == 0 and trace_file is not None:
        # The checker CI runs on obs/export's --trace files.
        check = subprocess.run([sys.executable, TRACE_CHECK, trace_file],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True)
        if check.returncode != 0:
            sys.stderr.write(check.stdout)
            fail(f"{trace_file} does not load as an obs/export trace", 1)
        print(f"trace file: {trace_file} ({check.stdout.strip()})")
    print(lines[-1])
    # A wrong verdict still prints its result ("correct": false) but
    # fails the run.
    return 0 if done.returncode == 0 and result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
