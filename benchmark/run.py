#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1

Run from the repository root. The CMake project in this directory compiles
../src into benchmark/build (a no-op when it is up to date); build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Exits nonzero without printing a result when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "build")


def build():
    for cmd in (["cmake", "-S", HERE, "-B", BUILD],
                ["cmake", "--build", BUILD, "-j", "4"]):
        try:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        except OSError as e:
            print(f"run.py: {e}", file=sys.stderr)
            return False
    return True


def main():
    if not build():
        print("run.py: benchmark build failed", file=sys.stderr)
        return 1
    return subprocess.run([os.path.join(BUILD, "imars_bench")] +
                          sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
