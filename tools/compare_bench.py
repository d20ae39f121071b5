#!/usr/bin/env python3
"""Compare two benchmark results and print a delta table.

Usage: compare_bench.py BASELINE CURRENT
       compare_bench.py LEDGER

With one argument, LEDGER is the committed end-to-end ledger
(BENCH_e2e.json at the repo root: an object with an "entries" array,
oldest first, each entry holding per-workload, per-seed galsperf
medians under "results"), and its last two entries are compared. A
ledger with fewer than two entries is an error (exit 1).

With two arguments, two input formats are auto-detected per file:

* google-benchmark JSON (a single object with a "benchmarks" array),
  as produced by

    galsmicro --benchmark_repetitions=5 \
              --benchmark_report_aggregates_only=true \
              --benchmark_format=json --benchmark_out=...

  Compared metric: median real time per benchmark.

* sweep trajectory JSONL (one record object per line, as written by
  galsbench --output, or by `galsbench parse` from a .gtrj archive).
  Compared metric: simulated "ticks" per record, keyed by
  scenario/index/benchmark/seed. Ticks are deterministic, so any
  delta is a real behavior change in the simulated machine, not
  runner noise. Records carrying the gated interval-meter time-series
  (--interval-ticks) additionally contribute their final interval's
  cumulative committed count as a separate "… interval" entry;
  records without the field (every pre-meter archive) simply
  contribute no such entry.

Prints a per-entry table of baseline vs current plus entries that
appear on only one side, so the CI perf-trajectory step can surface
deltas between consecutive runs. The "gain" column is the ratio
oriented so that above 1 is better: new/old for sim_kips, the one
ledger metric where higher is better, and old/new for everything
else (times, sizes, paper errors, ticks).
Comparison output is informational: the exit code is 0 whenever both
inputs parse, regardless of regressions (gating perf on shared CI
runners would be noise-bound; the numbers are for humans reading the
log).
"""

import json
import sys


# Ledger metrics where a larger value is better (BENCHMARK.json's
# "better": "higher"); every other metric is better when smaller.
HIGHER_IS_BETTER = {"sim_kips"}


def medians(data):
    """name -> (real_time, time_unit) for every *_median aggregate."""
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("aggregate_name") != "median":
            continue
        name = b["name"]
        if name.endswith("_median"):
            name = name[: -len("_median")]
        out[name] = (float(b["real_time"]), b.get("time_unit", "ns"))
    return out


def trajectory_ticks(lines):
    """record key -> (ticks, "tk") for every trajectory record."""
    out = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        r = json.loads(line)
        key = "{}[{}] {} seed={}{}".format(
            r.get("scenario", "?"), r.get("index", "?"),
            r.get("benchmark", "?"), r.get("seed", "?"),
            " gals" if r.get("gals") else "")
        out[key] = (float(r["ticks"]), "tk")
        # Gated interval-meter series: compare the last interval's
        # cumulative committed count when present; absent fields
        # (pre-meter archives, meterless runs) are simply skipped.
        intervals = r.get("intervals")
        if intervals:
            committed = sum(s.get("committed", 0) for s in intervals)
            out[key + " interval"] = (float(committed), "in")
    return out


def ledger_entries(data):
    """The ledger's entries, oldest first; ValueError if malformed."""
    entries = data.get("entries")
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("results"), dict)
            for e in entries):
        raise ValueError("ledger 'entries' must be a list of objects "
                         "with a 'results' object")
    return entries


def ledger_metrics(entry):
    """"workload seed=N metric" -> (median, unit) for one entry."""
    out = {}
    for workload, seeds in entry["results"].items():
        for seed, metrics in seeds.items():
            for metric, cell in metrics.items():
                out[f"{workload} seed={seed} {metric}"] = (
                    float(cell["median"]), cell.get("unit", ""))
    return out


def entry_label(entry):
    """Which tree a ledger entry measured."""
    commit = entry.get("commit") or (
        "child of " + str(entry.get("parent", "?")))
    return f"{commit} ({entry.get('label', '')})"


def load(path):
    """Return the metric map for either supported format."""
    with open(path) as f:
        text = f.read()
    try:
        data = json.loads(text)
    except ValueError:
        data = None
    if isinstance(data, dict) and "benchmarks" in data:
        return medians(data)
    return trajectory_ticks(text.splitlines())


def load_ledger_pair(path):
    """Metric maps of the ledger's last two entries."""
    with open(path) as f:
        entries = ledger_entries(json.load(f))
    if len(entries) < 2:
        raise ValueError(f"{path}: the ledger needs two entries to "
                         f"compare, has {len(entries)}")
    base, cur = ledger_metrics(entries[-2]), ledger_metrics(entries[-1])
    print(f"baseline: {entry_label(entries[-2])}")
    print(f"current:  {entry_label(entries[-1])}")
    return base, cur


def fmt(value):
    """Large values as integers, small ones to four digits."""
    return f"{value:.0f}" if abs(value) >= 100 else f"{value:.4g}"


def gain(name, old, new):
    """Ratio oriented so that above 1 is better."""
    higher = name.rsplit(" ", 1)[-1] in HIGHER_IS_BETTER
    num, den = (new, old) if higher else (old, new)
    if den == 0:
        return 1.0 if num == 0 else float("inf")
    return num / den


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2

    try:
        if len(argv) == 2:
            base, cur = load_ledger_pair(argv[1])
        else:
            base = load(argv[1])
            cur = load(argv[2])
    except (OSError, ValueError, KeyError, TypeError,
            AttributeError) as e:
        print(f"compare_bench: cannot read inputs: {e}", file=sys.stderr)
        return 1

    if not base or not cur:
        print("compare_bench: no comparable entries found "
              "(need ledger entries, median aggregates or trajectory "
              "records)",
              file=sys.stderr)
        return 1

    shared = [n for n in cur if n in base]
    width = max((len(n) for n in shared), default=10)
    print(f"{'benchmark':<{width}}  {'baseline':>18}  {'current':>18}"
          f"  {'gain':>8}")
    for name in shared:
        old, unit = base[name]
        new, _ = cur[name]
        ratio = gain(name, old, new)
        marker = ""
        if ratio >= 1.05:
            marker = "  better"
        elif ratio <= 0.95:
            marker = "  WORSE"
        print(f"{name:<{width}}  {fmt(old):>10}{unit:>8}  "
              f"{fmt(new):>10}{unit:>8}  {ratio:>7.2f}x{marker}")

    for name in sorted(set(cur) - set(base)):
        print(f"{name:<{width}}  {'-':>18}  "
              f"{fmt(cur[name][0]):>10}{cur[name][1]:>8}  (new)")
    for name in sorted(set(base) - set(cur)):
        print(f"{name:<{width}}  {fmt(base[name][0]):>10}"
              f"{base[name][1]:>8}  {'-':>18}  (removed)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
