#!/usr/bin/env python3
"""Require the test suites to kill every committed mutant.

usage: python3 ci/mutate.py [SPEC.json ...]

Run it from the root of a checkout.  Without arguments it takes every
spec in ci/mutants/.  A spec is a JSON object:

  name    the mutant's name
  why     what the mutation breaks, in one sentence
  file    the file it edits, relative to the root
  old     text that must occur exactly once in that file
  new     the text that replaces it
  suites  test executables under test/ (without .exe) that must kill it

The checkout is copied once into a temporary directory (without _build,
.git and .perfbench), where the named suites must first build and pass
unmutated.  Then each mutant in turn is applied to the copy, the
suites are rebuilt with `dune build` and run from test/, as `dune
runtest` runs them (with --bail: a suite stops at its first failure),
and the file is restored.  A mutant is killed when the build fails, a
suite exits non-zero, or a suite runs past its time limit.  One line per mutant is printed, then the total runtime.  The
exit code is 1 if any mutant survives or any spec does not apply
cleanly, and 0 otherwise.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

SUITE_TIMEOUT_S = 120


def load(path):
    with open(path) as f:
        spec = json.load(f)
    for key in ("name", "why", "file", "old", "new", "suites"):
        if key not in spec:
            raise ValueError("%s: missing %r" % (path, key))
    return spec


def build(root, suites):
    targets = ["./test/%s.exe" % s for s in suites]
    r = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet"] + targets,
                       cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    return r.returncode == 0


def run_suite(root, suite):
    """'pass', 'fail' or 'timeout'."""
    exe = os.path.join(root, "_build", "default", "test", suite + ".exe")
    try:
        r = subprocess.run([exe, "--bail"], cwd=os.path.join(root, "test"), stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=SUITE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if r.returncode == 0 else "fail"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("ci")):
        sys.stderr.write("mutate.py: run this from the root of a checkout\n")
        return 2
    paths = sys.argv[1:] or sorted(glob.glob(os.path.join("ci", "mutants", "*.json")))
    specs = [load(p) for p in paths]
    if not specs:
        sys.stderr.write("mutate.py: no mutant specs\n")
        return 2
    t0 = time.monotonic()
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        root = os.path.join(tmp, "src")
        shutil.copytree(".", root, ignore=shutil.ignore_patterns("_build", ".git", ".perfbench"))
        suites = sorted({s for spec in specs for s in spec["suites"]})
        if not build(root, suites):
            print("BASELINE: the unmutated suites do not build")
            return 1
        for s in suites:
            if run_suite(root, s) != "pass":
                print("BASELINE: %s fails unmutated" % s)
                return 1
        for spec in specs:
            path = os.path.join(root, spec["file"])
            with open(path) as f:
                original = f.read()
            n = original.count(spec["old"])
            if n != 1:
                print("NOT-APPLIED %s: the old text occurs %d times in %s" % (spec["name"], n, spec["file"]))
                bad += 1
                continue
            with open(path, "w") as f:
                f.write(original.replace(spec["old"], spec["new"]))
            try:
                if not build(root, spec["suites"]):
                    outcome = "killed (build fails)"
                else:
                    results = [(s, run_suite(root, s)) for s in spec["suites"]]
                    failing = [s + (" timed out" if r == "timeout" else " fails")
                               for s, r in results if r != "pass"]
                    outcome = "killed (%s)" % ", ".join(failing) if failing else None
            finally:
                with open(path, "w") as f:
                    f.write(original)
            if outcome is None:
                print("SURVIVED %s: %s" % (spec["name"], spec["why"]))
                bad += 1
            else:
                print("%s %s" % (outcome, spec["name"]))
    print("mutants: %d, not killed: %d, runtime %.0f s" % (len(specs), bad, time.monotonic() - t0))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
