#!/usr/bin/env python3
"""galssim benchmark entry point.

    python3 perfbench/run.py --workload fig05|dvfs_warm|fabric_topo \
        --seed N --seconds S --trace 0|1 [--insts N]

Builds the benchmark program, galsperf (perfbench/CMakeLists.txt, which
builds the simulator from the repository's sources), into .bench_build,
then runs one measurement. Build output goes to stderr; the last stdout
line is galsperf's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure, then bring galsperf up to date."""
    for needed in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no simulator sources: {needed} is missing beside "
                 "perfbench/")
    out = os.path.join(ROOT, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out],
                ["cmake", "--build", out, "--target", "galsperf",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            fail("build failed: " + " ".join(cmd), 1)
    return os.path.join(out, "galsperf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig05", "dvfs_warm", "fabric_topo"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--insts", type=int,
                    help="instructions per run (self-test budgets)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    galsperf = build()
    cmd = [galsperf, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.insts is not None:
        cmd += ["--insts", str(args.insts)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps galsperf before raising.
        fail(f"galsperf exceeded {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"galsperf exited with code {proc.returncode}", 1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("galsperf result has unexpected keys", 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
