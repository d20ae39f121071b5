#!/usr/bin/env python3
"""Self-test of the galssim benchmark at a tiny instruction budget.

    python3 perfbench/selftest.py

Runs every workload untraced and traced. Each run must report zero
failed runs: every traced and untraced record is byte-identical to
gals::runOne(), committed its budget, and round-trips through gtrj.
Each run must emit exactly the metrics BENCHMARK.json names for its
mode, with their units. Last, the benchmark must refuse to run, with a
nonzero exit and no result, from a tree that holds only BENCHMARK.json
and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(cwd, workload, trace, insts=2000):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--insts", str(insts)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            p = run(ROOT, w, trace)
            tag = f"{w} --trace {trace}"
            if p.returncode != 0:
                problems.append(f"{tag}: exit {p.returncode}\n{p.stderr}")
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} "
                                f"attempted={res['attempted']} "
                                f"failed={res['failed']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = expected[trace]
            if got != want:
                problems.append(
                    f"{tag}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}, wrong units "
                    f"{sorted(k for k in got if want.get(k, got[k]) != got[k])}")
            print(f"selftest: {tag}: attempted {res['attempted']}, "
                  f"failed {res['failed']}, {len(got)} metrics",
                  flush=True)

    # A tree without the simulator sources must be refused.
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    p = subprocess.run([sys.executable, os.path.join(bare, "perfbench",
                                                     "run.py"),
                        "--workload", "fig05", "--seed", "1", "--seconds",
                        "1", "--trace", "0"], cwd=bare, text=True,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=180)
    if p.returncode == 0 or p.stdout.strip():
        problems.append("bare tree: expected a nonzero exit and no result")
    shutil.rmtree(bare)

    for msg in problems:
        print("selftest: FAIL " + msg, file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
