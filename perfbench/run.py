#!/usr/bin/env python3
"""Build the checker-stack benchmark from source and run one workload.

usage: python3 perfbench/run.py --workload expand|search|hunt|serve
                                --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/bench.exe with
the repository's own dune build, then runs it with the same arguments;
the last line of standard output is the result object, and the exit
code is the benchmark's.  Build output goes to standard error.
"""

import os
import subprocess
import sys


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("run.py: run this from the root of a checkout of the repository\n")
        return 2
    # keep every file the build and the run write inside the checkout
    scratch = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(os.path.join(scratch, "tmp"), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.join(scratch, "tmp"),
               XDG_CACHE_HOME=os.path.join(scratch, "cache"))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("run.py: the build failed\n")
        return 2
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], env)
    return 2


if __name__ == "__main__":
    sys.exit(main())
