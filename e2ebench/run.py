#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source, then runs it.

Usage, from the repository root:

    python3 e2ebench/run.py --workload tiny_mlp --seed 1 --seconds 10 --trace 0

The program (../src) and the benchmark are built together with CMake into
.bench_build/e2ebench at the repository's default options; an up-to-date build
is reused.  Build output goes to standard error, so the last line of standard
output is the run's JSON result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "e2ebench")
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("e2ebench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    # A child process of its own, so that its CPU clock, from which setup_s
    # is read, starts with it and not with this interpreter.
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
