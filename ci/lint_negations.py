#!/usr/bin/env python3
"""Fail when a `!`-negated pipeline is not the last command of its step.

usage: python3 ci/lint_negations.py WORKFLOW.yml

Every step of the workflow runs under `bash -eo pipefail`, and bash's
`-e` ignores the exit status of a pipeline negated with `!`.  So a line
`! grep -q BAD out.txt` that is followed by more commands cannot fail
its step: when it finds BAD, the step goes on and passes.  Only as the
last command does its status become the step's.  Write such a gate as
`if grep -q BAD out.txt; then exit 1; fi` instead.

The check reads each `run: |` block line by line: continuation lines
(ending in a backslash) join the command they continue, and here-document
bodies, blank lines and comments are skipped.  It prints one line per
offending command and exits 1 if there is any, 0 otherwise.
"""

import re
import sys

HEREDOC = re.compile(r"<<-?\s*(['\"]?)([A-Za-z_][A-Za-z0-9_]*)\1")


def commands(block):
    """The logical commands of a run block: (line number, text) pairs."""
    out = []
    i = 0
    while i < len(block):
        num, text = block[i]
        i += 1
        line = text.strip()
        if not line or line.startswith("#"):
            continue
        start = num
        while line.endswith("\\") and i < len(block):
            line = line[:-1] + " " + block[i][1].strip()
            i += 1
        out.append((start, line))
        m = HEREDOC.search(line)
        if m:
            # skip the here-document body up to its terminator
            while i < len(block) and block[i][1].strip() != m.group(2):
                i += 1
            i += 1
    return out


def run_blocks(lines):
    """Each multi-line `run:` block: (step name, [(line number, text)])."""
    blocks = []
    step = "?"
    i = 0
    while i < len(lines):
        text = lines[i]
        name = re.match(r"\s*-?\s*name:\s*(.*)", text)
        if name:
            step = name.group(1).strip()
        run = re.match(r"(\s*)(-\s*)?run:\s*[|>][-+]?\s*$", text)
        i += 1
        if not run:
            continue
        indent = len(run.group(1)) + len(run.group(2) or "")
        block = []
        while i < len(lines):
            body = lines[i]
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            block.append((i + 1, body))
            i += 1
        blocks.append((step, block))
    return blocks


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    with open(argv[1]) as f:
        lines = f.read().split("\n")
    bad = 0
    for step, block in run_blocks(lines):
        cmds = commands(block)
        for num, cmd in cmds[:-1]:
            if cmd.startswith("! ") or cmd == "!":
                bad += 1
                print(f"{argv[1]}:{num}: step '{step}': `{cmd}` is negated but not the "
                      "step's last command, so bash -e ignores its status")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
