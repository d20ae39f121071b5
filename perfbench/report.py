#!/usr/bin/env python3
"""Write the layer report (perfbench/LAYER_REPORT.md) from traced runs.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs every workload once with --trace 1 and tabulates, per workload,
each pipeline stage's share of run time, the residual (event queue,
clock domains, energy tickers, link hops), the replayed per-operation
costs of the layers that run inside a stage, and trace.overhead_ratio.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

STAGES = [("cpu.fetch.self_s", "fetch"),
          ("cpu.decode.self_s", "decode/rename/commit"),
          ("cpu.exec.int.self_s", "int issue + ALUs"),
          ("cpu.exec.fp.self_s", "fp issue + ALUs"),
          ("cpu.exec.mem.self_s", "mem issue + LSQ + D-cache"),
          ("sim.residual_s", "residual")]
PER_OP = [("workload.next_ns", "workload generator, per instruction"),
          ("bpred.ns_per_branch", "branch predictor, per branch"),
          ("cache.ns_per_access", "cache hierarchy, per access"),
          ("power.domain_cycle_ns", "power accounting, per domain edge"),
          ("sim.residual_ns_per_event", "residual, per serviced event")]


def host():
    model = platform.processor() or "unknown CPU"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} vCPUs"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    results = {}
    for w in workloads:
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", "1"],
                           cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if p.returncode != 0:
            sys.exit(f"report: {w} failed with exit {p.returncode}")
        res = json.loads(p.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"report: {w} had {res['failed']} failed runs")
        results[w] = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"report: {w} done", file=sys.stderr)

    out = ["# Layer report", "",
           "Generated by `python3 perfbench/report.py --seed "
           f"{args.seed} --seconds {args.seconds}` on {host()}.", "",
           "- Values are medians over the traced passes of one run per "
           "workload.",
           "- Shares are of the summed run spans. On dvfs_warm the spans "
           "of both engine workers add up.",
           "- A stage's share is its self time, timed by a ticker wrapper "
           "around its clock-domain tick.",
           "- The residual is everything else inside `run()`: the event "
           "queue, clock domains and energy tickers, plus link hops and "
           "NICs on fabric_topo.",
           "- The workload generator, branch predictor, caches and "
           "per-cycle energy run inside stage ticks. Their rows are "
           "replayed costs per operation, not extra shares.", ""]
    out.append("| layer | " + " | ".join(workloads) + " |")
    out.append("|---|" + "---:|" * len(workloads))
    run_s = {w: sum(results[w][k] for k, _ in STAGES) for w in workloads}
    for key, label in STAGES:
        cells = [f"{100 * results[w][key] / run_s[w]:.1f}%" for w in workloads]
        out.append(f"| {label} | " + " | ".join(cells) + " |")
    out.append("| run time per traced pass (s) | " +
               " | ".join(f"{run_s[w]:.3f}" for w in workloads) + " |")
    for key, label in PER_OP:
        out.append(f"| {label} (ns) | " +
                   " | ".join(f"{results[w][key]:.1f}" for w in workloads)
                   + " |")
    out.append("| trace.overhead_ratio | " +
               " | ".join(f"{results[w]['trace.overhead_ratio']:.3f}"
                          for w in workloads) + " |")
    out.append("")
    with open(os.path.join(HERE, "LAYER_REPORT.md"), "w") as f:
        f.write("\n".join(out))
    print("\n".join(out))


if __name__ == "__main__":
    main()
