#!/usr/bin/env python3
"""Builds and runs the simulator benchmark.

    python3 perfbench/run.py --workload star64 --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (a standalone CMake project over ../src)
as a Release build under $CARGO_TARGET_DIR (default .bench_build) in the
checkout, then runs the perfbench binary with the same arguments. Build
output goes to stderr; the binary's stdout, whose last line is the JSON
result, is passed through. Exits non-zero, without a result, if the build
fails or the binary rejects the arguments.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def read_commit():
    """The checkout's commit from .git, read directly (no git process)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    out = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=out, stderr=out).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=out, stderr=out).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(base, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(build_dir, "perfbench")
    spans = os.path.join(build_dir, "spans-%s-%d.json" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", read_commit(), "--spans-out", spans]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
