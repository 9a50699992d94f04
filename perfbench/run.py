#!/usr/bin/env python3
"""Builds and runs the CaRL benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <serve_repeat|pipeline_cold|ingest_query>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a CaRL source tree. The first run configures and
builds the CaRL libraries and the benchmark binary (Release) under
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Exits non-zero, without a result line, when the tree cannot be built.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "carl_perfbench")


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CaRL source tree at %s" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "carl_perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT)
        if result.returncode != 0:
            fail("build step failed: %s" % " ".join(step))


def main(argv):
    if "-h" in argv or "--help" in argv:
        print(__doc__)
        return 0
    build()
    # The binary validates its own arguments; it writes traces under
    # .bench_build, relative to the tree root.
    result = subprocess.run([BINARY] + argv, cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
