#!/usr/bin/env python3
"""Builds and runs the end-to-end why-not serving benchmark.

usage: python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The first run
configures and builds the library and the benchmark (Release) under
.bench_build/e2e_bench at the checkout root; later runs reuse that build.
Build output goes to stderr. The benchmark's stdout is passed through and
ends with one JSON result line; traced runs write their spans under
.bench_out/. Exits non-zero, printing no result, when the library sources
are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e_bench")
OUT = os.path.join(ROOT, ".bench_out")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(
                os.path.join(ROOT, "src", "whynot", "whynot.h"))):
        print("error: whynot library sources not found under " + ROOT,
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator, stdout=sys.stderr)
        if configure.returncode != 0:
            return False
    compile_ = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "whynot_e2e", "--parallel",
         "4"], stdout=sys.stderr)
    return compile_.returncode == 0


def main():
    if not build():
        print("error: benchmark build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    bench = subprocess.run([os.path.join(BUILD, "whynot_e2e")] + sys.argv[1:]
                           + ["--out-dir", OUT])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
