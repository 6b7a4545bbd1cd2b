#!/usr/bin/env python3
"""Builds `ipcc` and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. Both programs are built in
release mode into $CARGO_TARGET_DIR (default `.bench_build`); generated
programs, sockets and trace files go to `.bench_work`. The last line of
standard output is the run's JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target, args):
    """One quiet release build; cargo's output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--quiet", "--offline"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: run from a checkout of the repository (no Cargo.toml at its root)")
    build(target, ["--locked", "-p", "ipcp-cli"])
    build(target, ["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--ipcc", os.path.join(target, "release", "ipcc"),
        "--expected", os.path.join(HERE, "expected.tsv"),
        # Relative on purpose: the daemon's Unix socket lives here, and a
        # socket path may not exceed 107 bytes however deep the checkout is.
        "--work", ".bench_work",
    ] + sys.argv[1:]
    # The benchmark binary reaps every process it starts; its exit code
    # and standard output are passed through unchanged.
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
