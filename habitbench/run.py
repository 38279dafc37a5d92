#!/usr/bin/env python3
"""Builds habitbench from the checkout's sources and runs one workload.

    python3 habitbench/run.py --workload build|serve|live|route \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and compiles
the benchmark (with the repository's src/) into .bench_build/habitbench;
later runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Scratch snapshots and
span files go to habitbench/out/.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "habitbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "registry.h")):
        print("habitbench: no HABIT sources in %s/src" % ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    compile_cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target",
                   "habitbench"]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("habitbench: build failed", file=sys.stderr)
        return 2
    command = [os.path.join(BUILD, "habitbench")] + sys.argv[1:] + [
        "--out", os.path.join(HERE, "out")]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
