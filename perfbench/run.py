#!/usr/bin/env python3
"""Build the reproduction benchmark program and run one workload.

From the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is built in Release from perfbench/CMakeLists.txt, which
compiles the simulator from src/, into $CARGO_TARGET_DIR (default
.bench_build). Build output goes to stderr, so the last line on stdout
is the program's JSON result. A traced run's spans and fig6-quick16's
per-job run reports are written under <build dir>/out.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the simulator sources (src/) are missing; "
              "run from a full checkout", file=sys.stderr)
        return 1
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                            or os.path.join(ROOT, ".bench_build"))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 1
    program = os.path.join(build, "perfbench")
    out = os.path.join(build, "out")
    return subprocess.run([program, *sys.argv[1:], "--out", out]).returncode


if __name__ == "__main__":
    sys.exit(main())
