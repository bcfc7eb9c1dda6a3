#!/usr/bin/env python3
"""Build tamoptd and the benchmark harness from source, then run one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("hot", "ilp_cold", "store_churn")
SOURCES = ("dune-project", "bin/tamoptd.ml", "lib", "perfbench/dune")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    missing = [s for s in SOURCES if not os.path.exists(s)]
    if missing:
        fail("not at the root of a source tree (missing %s)" % ", ".join(missing))
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    # The shared dune cache lives outside the tree; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./bin/tamoptd.exe", "./perfbench/bench.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed", 3)

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass

    cmd = [
        "_build/default/perfbench/bench.exe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", "_build/default/bin/tamoptd.exe",
        "--nproc", str(len(os.sched_getaffinity(0))),
        "--commit", commit,
    ]
    try:
        sys.exit(subprocess.run(cmd, timeout=175).returncode)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 4)


if __name__ == "__main__":
    main()
