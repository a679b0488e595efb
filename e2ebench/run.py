#!/usr/bin/env python3
"""Builds the rdcsyn end-to-end benchmark and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload table1_power --seed 1 --seconds 10 --trace 0

The benchmark program (e2ebench/src) is compiled together with the library
sources in src/ into .bench_build/e2ebench with a Release build; later runs
only re-check that build. Build output goes to stderr, so the last line of
stdout is the result object. Exits non-zero, printing no result, when the
build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(
        ["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"e2ebench: build failed: {error}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
