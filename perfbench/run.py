#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload repro|variants|serve \
        --seed N --seconds S --trace 0|1

The build goes to dune's _build directory; its output goes to standard
error, so the last line of standard output is the benchmark's JSON
result. The benchmark then replaces this process.
"""

import os
import subprocess
import sys

WORKLOADS = ("repro", "variants", "serve")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def parse(argv):
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail("unknown argument " + flag)
        value = next(it, None)
        if value is None:
            fail(flag + " needs a value")
        args[flag] = value
    if args.get("--workload") not in WORKLOADS:
        fail("--workload must be one of " + ", ".join(WORKLOADS))
    if args.get("--trace") not in ("0", "1"):
        fail("--trace must be 0 or 1")
    try:
        int(args.get("--seed", ""))
        if int(args.get("--seconds", "")) < 1:
            raise ValueError
    except ValueError:
        fail("--seed must be an integer and --seconds a positive integer")
    return args


def main(argv):
    parse(argv)
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run from the root of a daisy checkout")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
        )
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if build.returncode != 0:
        fail("build failed", build.returncode)
    sys.stdout.flush()
    os.execv(EXE, [EXE] + argv)


if __name__ == "__main__":
    main(sys.argv[1:])
