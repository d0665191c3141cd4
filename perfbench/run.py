#!/usr/bin/env python3
"""Builds the benchmark program from this checkout and runs one workload.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload fig2_puzzles --seed 1 --seconds 50 --trace 0

The program (perfbench/src) is configured as a Release build under
.bench_build/perfbench and rebuilt incrementally before every run; build
output goes to stderr, so the last line of standard output is always the
program's JSON result. A wrong output ends the run with exit code 1 and a
result line saying "correct": false; a build failure or a timeout ends it
with a non-zero exit code and no result line.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fig2_puzzles", "hop_stream", "tenant_det")
# A run measures for --seconds, plus set-up and input generation; anything
# longer than this is a wedge and is killed (the program's own watchdog
# fires ten seconds earlier).
RUN_GRACE_S = 100


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log(f"no product sources next to {HERE}; cannot build")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 2
    binary = os.path.join(BUILD_DIR, "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run timed out and was killed")
        return 3


if __name__ == "__main__":
    sys.exit(main())
