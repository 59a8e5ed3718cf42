#!/usr/bin/env python3
"""Builds the QUASII benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload cold-uniform --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build/perfbench
and every file a run writes goes to .bench_out/. Build output goes to
stderr, so the last line of stdout is the JSON result of the benchmark program.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures (once) and builds; returns False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main():
    args = sys.argv[1:]
    if not build():
        return 1
    sys.stdout.flush()
    binary = "perfbench_selftest" if args == ["--selftest"] else "perfbench"
    return subprocess.run([os.path.join(BUILD, binary)] + (
        [] if binary == "perfbench_selftest" else args)).returncode


if __name__ == "__main__":
    sys.exit(main())
