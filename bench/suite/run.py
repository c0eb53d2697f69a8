#!/usr/bin/env python3
"""Builds syncts_bench from this checkout and runs one workload pass.

Usage, from the root of the checkout:

    python3 bench/suite/run.py --workload <name> --seed <n> \
        [--seconds <s>] [--trace 0|1]

The build goes to .bench_build/syncts_bench (configured once, then
incremental); its output goes to stderr so that the last line on stdout
is the benchmark's result object. Exits nonzero, without a result, when
the library sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "syncts_bench")
WORKLOADS = ("rdv_uniform_classic", "rdv_bursty_batched", "rdv_hostile",
             "analysis_stream")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "synchronizer.hpp")):
        print("run.py: syncts sources not found under %s/src" % ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "-j", jobs, "--target", "syncts_bench"]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not build():
        return 1
    binary = os.path.join(BUILD, "syncts_bench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
