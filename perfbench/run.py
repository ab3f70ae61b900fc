#!/usr/bin/env python3
"""Build perfbench from source, run one workload, print its result.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: line3-tcp, fig6-inproc, churn-inproc, sim-fig6 (perfbench/README.md).
The first call configures and builds perfbench/CMakeLists.txt, which compiles
the library sources under src/, into .bench_build/; later calls only rebuild
what changed. Build output goes to standard error. The benchmark's standard
output is passed through: its last line is the JSON result
({"correct", "attempted", "failed", "metrics"}). Details, provenance and the
traced run's span dump land in .bench_build/perfbench-out/.

Exits non-zero, without printing a result, when the build fails (for example
when the library sources are missing) or the benchmark cannot run; exits
non-zero after printing a result whose "correct" is false.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 175


def build(source_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    commands = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        commands.append(["cmake", "-S", source_dir, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator)
    commands.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for command in commands:
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    source_dir = os.path.dirname(os.path.abspath(__file__))
    if not build(source_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "perfbench")
    command = [binary] + sys.argv[1:] + ["--out", os.path.join(BUILD_DIR, "perfbench-out")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
