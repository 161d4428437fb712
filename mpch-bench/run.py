#!/usr/bin/env python3
"""Build mpch-bench from this checkout's sources, then run it.

Usage (from the repository root):

    python3 mpch-bench/run.py --workload chains --seed 1 --seconds 20 --trace 0

Every argument is passed to the mpch-bench binary, whose last stdout line is
the JSON result. Build output goes to stderr so it never precedes that line.
The build tree is $CARGO_TARGET_DIR (default .bench_build), resolved against
the repository root; a failed build exits non-zero without a result.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def build():
    build_dir = os.path.join(REPO_ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "mpch-bench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("mpch-bench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(build_dir, "mpch-bench")


def main():
    binary = build()
    if binary is None:
        return 1
    return subprocess.call([binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
