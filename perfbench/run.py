#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py parity --seed N

The program's report goes to standard output; its last line is one JSON
object with the keys correct, attempted, failed and metrics. Workloads and
metrics are described in perfbench/README.md.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("run.py: run me from the repository root "
                         "(no dune-project and lib/ here)\n")
        return 2
    # the dune cache lives outside the checkout; keep the build inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--display", "quiet", "./perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode
    sys.stdout.flush()
    run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
