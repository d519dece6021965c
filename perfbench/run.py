#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload functional-mix --seed 1 \
        --seconds 10 --trace 0

Workloads: functional-mix, virtual-replay, plan-zoo (see perfbench/README.md).
The first run configures and builds perfbench/ (a CMake package that compiles
the library sources under src/) into the directory named by
CARGO_TARGET_DIR, or .bench_build when it is unset. The benchmark's report
goes to stdout; its last line is the JSON result. Traced runs write their
span files under .bench_out/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build fcm_bench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "fcm_bench", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "planner",
                                       "fuse_planner.hpp")):
        log("library sources not found under " + os.path.join(ROOT, "src"))
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        log("build failed")
        return 2
    binary = os.path.join(build_dir, "fcm_bench")
    cmd = [binary] + argv + ["--golden",
                             os.path.join(HERE, "golden_plan_gma.txt"),
                             "--out-dir", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
