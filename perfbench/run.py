#!/usr/bin/env python3
"""Build the attack-path benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pointfn --seed 1 --seconds 20 --trace 0

The build goes to .bench_build (release profile, dune cache off) so it
never touches the development _build tree.  The benchmark's last line of
standard output is its JSON result; build output goes to standard error.
Without the repository's sources next to perfbench/ the build fails and
the script exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/flbench.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "flbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from the repository root",
              file=sys.stderr)
        return 2
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "--cache", "disabled", TARGET]
    # The compilers' temporary files stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        status = subprocess.run(build, stdout=sys.stderr, env=env,
                                timeout=BUILD_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if status != 0:
        print(f"perfbench: build failed (dune exit {status})", file=sys.stderr)
        return 2

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
