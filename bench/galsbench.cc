/**
 * @file
 * galsbench — the one CLI for every experiment in this repo.
 *
 * Replaces the former 15 hand-rolled bench drivers: each paper
 * figure, ablation and sweep is a registered Scenario; galsbench
 * expands the chosen scenarios into their run grids, executes them on
 * the parallel ExperimentEngine, and renders the results either as
 * the paper-style tables (default) or as raw JSON-lines / CSV
 * records.
 *
 * Sweeps are archivable: `--output PATH` streams every per-run record
 * into a trajectory file (JSON-lines, CSV when PATH ends in .csv, or
 * the compact binary gtrj format when it ends in .gtrj — `galsbench
 * parse` converts the latter back to the exact text bytes) and
 * `--manifest PATH` writes a run manifest (engine, seeds, config
 * hashes); both are byte-identical for any `--jobs` on any machine.
 * `--interval-ticks K` additionally samples per-interval meters (IPC,
 * per-domain energy, FIFO occupancy) every K ticks into each record.
 * `--seeds N` / `--seed-list a,b,c` replicate every grid point across
 * workload seeds, and the table/JSON/CSV reports then carry
 * mean ± 95% CI columns (per-replica rows stay in the trajectory).
 *
 * Sweeps also scale past one machine: `--shard i/N` runs the i-th of
 * N disjoint round-robin slices of every selected scenario's grid,
 * `--merge` fuses the resulting shard trajectories back into the
 * canonical single-machine file (cmp-identical to an unsharded run),
 * `--merge-manifest` does the same for the shard manifests, and
 * `--verify MANIFEST` re-runs an archived manifest and byte-compares
 * the regenerated trajectory against the archived one.
 *
 * Usage:
 *   galsbench --list [--format md]
 *   galsbench --scenario fig05 [--scenario fig09 ...] | --all
 *             [--jobs N] [--format table|json|csv]
 *             [--insts N] [--bench NAME] [--seed N]
 *             [--seeds N | --seed-list a,b,c]
 *             [--shard I/N]
 *             [--output PATH] [--manifest PATH]
 *   galsbench --merge SHARD.jsonl... --output PATH
 *             [--merge-manifest SHARD.json... --manifest PATH]
 *   galsbench --verify MANIFEST [--jobs N]
 *   galsbench dispatch --scenario NAME... --output PATH [...]
 *
 * `dispatch` is the crash-safe orchestration of a whole sweep: it
 * shards the grid, drives `galsbench --shard` worker subprocesses
 * with retry/backoff and straggler kills, streams records with
 * per-record flushing, and resumes an interrupted dispatch from the
 * surviving records (docs/ORCHESTRATION.md).
 *
 * Environment: GALSSIM_INSTS and GALSSIM_BENCH provide defaults for
 * --insts / --bench (the knobs the old drivers honoured).
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/register_all.hh"
#include "core/snapshot.hh"
#include "fabric/fabric_config.hh"
#include "runner/engine.hh"
#include "runner/fault.hh"
#include "runner/gtrj.hh"
#include "runner/merge.hh"
#include "runner/orchestrator.hh"
#include "runner/reporter.hh"
#include "runner/scenario.hh"
#include "runner/stats.hh"
#include "runner/trajectory.hh"

using namespace gals;
using namespace gals::runner;

namespace
{

void
usage(std::FILE *to, int exitCode)
{
    std::fprintf(
        to,
        "usage: galsbench --list [--format md]\n"
        "       galsbench (--scenario NAME)... | --all\n"
        "                 [--jobs N] [--format table|json|csv]\n"
        "                 [--insts N] [--bench NAME] [--seed N]\n"
        "                 [--seeds N | --seed-list a,b,c]\n"
        "                 [--shard I/N]\n"
        "                 [--cores A,B,...] [--topology T,...]\n"
        "                 [--traffic P,...] [--interval-ticks K]\n"
        "                 [--warmup-insts K] [--snapshot-dir PATH]\n"
        "                 [--output PATH] [--manifest PATH]\n"
        "       galsbench --merge SHARD... --output PATH\n"
        "                 [--merge-manifest SHARD... --manifest "
        "PATH]\n"
        "       galsbench --verify MANIFEST [--jobs N]\n"
        "       galsbench parse INPUT.gtrj [--format json|csv]\n"
        "                 [--output PATH]\n"
        "       galsbench dispatch (--scenario NAME)... | --all\n"
        "                 --output PATH [--manifest PATH]\n"
        "                 [--slices M] [--workers W] [--worker-jobs "
        "N]\n"
        "                 [--insts N] [--bench NAME] [--seed N]\n"
        "                 [--seeds N | --seed-list a,b,c]\n"
        "                 [--cores A,B,...] [--topology T,...]\n"
        "                 [--traffic P,...] [--interval-ticks K]\n"
        "                 [--warmup-insts K] [--snapshot-dir PATH]\n"
        "                 [--retries N] [--backoff-ms N]\n"
        "                 [--backoff-cap-ms N] [--straggler-factor "
        "X]\n"
        "                 [--min-deadline-ms N]\n"
        "                 [--status-interval-ms N] [--fresh]\n"
        "                 [--worker-binary PATH]\n"
        "\n"
        "  --list          list registered scenarios and exit\n"
        "                  (--format md emits the markdown catalog\n"
        "                  that docs/SCENARIOS.md is generated from)\n"
        "  --scenario NAME run one scenario (repeatable)\n"
        "  --all           run every registered scenario\n"
        "  --jobs N        worker threads (0 = all hardware threads;\n"
        "                  default 1; results are identical for any "
        "N)\n"
        "  --format F      table (default), json or csv\n"
        "  --insts N       instructions per run (or GALSSIM_INSTS)\n"
        "  --bench NAME    restrict the benchmark sweep (repeatable,\n"
        "                  or GALSSIM_BENCH)\n"
        "  --seed N        workload seed (default 0)\n"
        "  --seeds N       replicate every grid point over N seeds\n"
        "                  (seed, seed+1, ...); reports show\n"
        "                  mean +/- 95%% CI\n"
        "  --seed-list S   explicit comma-separated replica seeds\n"
        "                  (overrides --seed/--seeds)\n"
        "  --shard I/N     run only the I-th of N disjoint slices of\n"
        "                  every grid (1-based; requires --output\n"
        "                  or --manifest; table/json/csv reports are\n"
        "                  suppressed — merge the shards instead)\n"
        "  --cores A,B     restrict the fabric scenarios' core-count\n"
        "                  sweep (each >= 1; 1 = the single-core\n"
        "                  paper pipeline)\n"
        "  --topology T    restrict the fabric topology sweep:\n"
        "                  ring, mesh2d (comma-separated)\n"
        "  --traffic P     restrict the fabric traffic-matrix sweep:\n"
        "                  none, permutation, uniform, incast,\n"
        "                  hotspot[:K] (comma-separated)\n"
        "  --output PATH   append every per-run record to a\n"
        "                  trajectory file; the extension picks the\n"
        "                  format: .jsonl/.json (JSON lines), .csv,\n"
        "                  or .gtrj (compact binary; `galsbench\n"
        "                  parse` converts it back to text)\n"
        "  --interval-ticks K\n"
        "                  sample per-interval meters every K ticks\n"
        "                  (IPC, per-domain energy, FIFO occupancy);\n"
        "                  records gain an \"intervals\" time-series\n"
        "  --warmup-insts K\n"
        "                  split every single-core run into K warmup\n"
        "                  instructions plus (insts - K) measured\n"
        "                  ones (K must be < --insts, and the grid\n"
        "                  may not contain fabric runs); runs\n"
        "                  sharing a warmup stem reuse one memoized\n"
        "                  warm snapshot instead of re-simulating it\n"
        "  --snapshot-dir PATH\n"
        "                  existing directory where warm snapshots\n"
        "                  are exchanged on disk, so separate\n"
        "                  processes (--shard workers, dispatch)\n"
        "                  share warmup stems; never affects the\n"
        "                  records, manifests or hashes\n"
        "  --manifest PATH write a run manifest (version, engine,\n"
        "                  seeds, shard, per-scenario config hashes)\n"
        "  --merge F...    merge shard trajectory files into the\n"
        "                  canonical unsharded ordering at --output\n"
        "  --merge-manifest F...\n"
        "                  merge shard manifests into the canonical\n"
        "                  manifest at --manifest\n"
        "  --verify M      re-run the archived manifest M and byte-\n"
        "                  compare the regenerated trajectory against\n"
        "                  the archived one; non-zero exit on any\n"
        "                  difference\n"
        "  parse INPUT     convert a .gtrj binary trajectory to the\n"
        "                  exact JSON-lines (default) or CSV bytes a\n"
        "                  native text run would have written, to\n"
        "                  --output PATH or stdout\n"
        "\n"
        "dispatch runs the whole sweep as a crash-safe orchestration:\n"
        "the grid is split into M slices, worker subprocesses execute\n"
        "them (up to W at a time) with per-record flushing, failed\n"
        "workers are retried with capped exponential backoff, hung\n"
        "workers are killed past a deadline scaled from the median\n"
        "slice time, and re-running the same dispatch resumes from\n"
        "whatever records already survived (kill -9 loses at most one\n"
        "record). Progress: <output>.dispatch/status.json. See\n"
        "docs/ORCHESTRATION.md.\n");
    std::exit(exitCode);
}

const char *
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "galsbench: %s needs a value\n", argv[i]);
        usage(stderr, 2);
    }
    return argv[++i];
}

std::uint64_t
numericValue(const char *flag, const char *text)
{
    // strtoull silently wraps negatives ("-1" -> 2^64-1) and
    // saturates out-of-range values with only errno to show for it,
    // so reject a leading minus sign explicitly — skipping the same
    // whitespace set strtoull itself skips — and check ERANGE.
    const char *p = text;
    while (std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(text, &end, 10);
    if (*p == '-' || end == text || *end != '\0' ||
        errno == ERANGE) {
        std::fprintf(stderr,
                     "galsbench: %s expects a non-negative number, "
                     "got '%s'\n",
                     flag, text);
        usage(stderr, 2);
    }
    return v;
}

/** numericValue() additionally bounded to `unsigned` range, so
 *  --jobs / --seeds cannot silently truncate through a cast. */
unsigned
unsignedValue(const char *flag, const char *text)
{
    const std::uint64_t v = numericValue(flag, text);
    if (v > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr, "galsbench: %s value %s is out of "
                             "range\n",
                     flag, text);
        usage(stderr, 2);
    }
    return static_cast<unsigned>(v);
}

/** Parse the --seed-list value: comma-separated non-negative
 *  integers, at least one. */
std::vector<std::uint64_t>
seedListValue(const char *text)
{
    std::vector<std::uint64_t> seeds;
    const std::string s = text;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        const std::string item = s.substr(pos, comma - pos);
        if (item.empty()) {
            std::fprintf(stderr,
                         "galsbench: --seed-list expects "
                         "comma-separated numbers, got '%s'\n",
                         text);
            usage(stderr, 2);
        }
        seeds.push_back(numericValue("--seed-list", item.c_str()));
        pos = comma + 1;
    }
    return seeds;
}

/** Split a comma-separated flag value; every item must be
 *  non-empty. */
std::vector<std::string>
commaListValue(const char *flag, const char *text)
{
    std::vector<std::string> items;
    const std::string s = text;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        const std::string item = s.substr(pos, comma - pos);
        if (item.empty()) {
            std::fprintf(stderr,
                         "galsbench: %s expects comma-separated "
                         "values, got '%s'\n",
                         flag, text);
            usage(stderr, 2);
        }
        items.push_back(item);
        pos = comma + 1;
    }
    return items;
}

/** Parse the --cores value: comma-separated core counts >= 1. */
std::vector<unsigned>
coreListValue(const char *text)
{
    std::vector<unsigned> cores;
    for (const std::string &item : commaListValue("--cores", text)) {
        const unsigned n = unsignedValue("--cores", item.c_str());
        if (n == 0) {
            std::fprintf(stderr,
                         "galsbench: --cores values must be >= 1, "
                         "got '%s'\n",
                         text);
            usage(stderr, 2);
        }
        cores.push_back(n);
    }
    return cores;
}

/** Parse the --topology value: comma-separated topology names. */
std::vector<std::string>
topologyListValue(const char *text)
{
    std::vector<std::string> topos = commaListValue("--topology", text);
    for (const std::string &t : topos) {
        TopologyKind kind;
        if (!parseTopologyKind(t, kind)) {
            std::fprintf(stderr,
                         "galsbench: --topology expects 'ring' or "
                         "'mesh2d', got '%s'\n",
                         t.c_str());
            usage(stderr, 2);
        }
    }
    return topos;
}

/** Parse the --traffic value: comma-separated traffic-matrix specs
 *  (syntax check only — core-count cross-checks happen in
 *  checkFabricAxes() once --cores is known). */
std::vector<std::string>
trafficListValue(const char *text)
{
    std::vector<std::string> specs = commaListValue("--traffic", text);
    for (const std::string &spec : specs) {
        const std::string err = checkTrafficSpec(spec);
        if (!err.empty()) {
            std::fprintf(stderr, "galsbench: --traffic: %s\n",
                         err.c_str());
            usage(stderr, 2);
        }
    }
    return specs;
}

/** Cross-validate explicit --traffic specs against explicit --cores
 *  counts: a spec referencing core K needs K < N for every fabric
 *  (multi-core) point it will be crossed with. */
void
checkFabricAxes(const SweepOptions &opts)
{
    for (const std::string &spec : opts.traffics)
        for (unsigned n : opts.coreCounts) {
            if (n < 2)
                continue; // single-core points carry no fabric
            std::vector<TrafficFlow> flows;
            const std::string err =
                parseTrafficPattern(spec, n, flows);
            if (!err.empty()) {
                std::fprintf(stderr,
                             "galsbench: --traffic '%s' with --cores "
                             "%u: %s\n",
                             spec.c_str(), n, err.c_str());
                usage(stderr, 2);
            }
        }
}

/** Reject --warmup-insts (exit 2 with usage) when any selected
 *  scenario's grid holds a fabric run: warm snapshots are single-core
 *  only, so expandReplicatedRuns() leaves fabric runs cold, and the
 *  manifest would record a warmup split those records never took.
 *  Unknown names are left to the caller's own check. */
void
checkWarmupGrid(const ScenarioRegistry &registry,
                const std::vector<std::string> &names,
                const SweepOptions &opts)
{
    if (opts.warmupInstructions == 0)
        return;
    for (const std::string &name : names) {
        const Scenario *scenario = registry.find(name);
        if (!scenario)
            continue;
        for (const RunConfig &cfg :
             expandReplicatedRuns(*scenario, opts, nullptr))
            if (cfg.fabric.active()) {
                std::fprintf(stderr,
                             "galsbench: --warmup-insts does not "
                             "apply to fabric runs (scenario '%s' "
                             "has one)\n",
                             name.c_str());
                usage(stderr, 2);
            }
    }
}

/** Flush std::cout and turn a write failure into exit 1: reports
 *  and listings must not masquerade as success on a full disk or
 *  dead pipe. */
int
stdoutExitCode()
{
    std::cout.flush();
    if (!std::cout) {
        std::fprintf(stderr, "galsbench: error writing to stdout\n");
        return 1;
    }
    return 0;
}

/** Parse the --shard value "I/N": 1 <= I <= N. */
ShardSpec
shardValue(const char *text)
{
    const std::string s = text;
    const std::size_t slash = s.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= s.size()) {
        std::fprintf(stderr,
                     "galsbench: --shard expects I/N (e.g. 2/3), "
                     "got '%s'\n",
                     text);
        usage(stderr, 2);
    }
    ShardSpec shard;
    shard.index =
        unsignedValue("--shard", s.substr(0, slash).c_str());
    shard.count =
        unsignedValue("--shard", s.substr(slash + 1).c_str());
    if (shard.index < 1 || shard.count < 1 ||
        shard.index > shard.count) {
        std::fprintf(stderr,
                     "galsbench: --shard %s out of range "
                     "(need 1 <= I <= N)\n",
                     text);
        usage(stderr, 2);
    }
    return shard;
}

/** Consume the file arguments following --merge/--merge-manifest
 *  (every subsequent argv entry up to the next --flag) into
 *  @p files; a repeated flag appends rather than replacing. */
void
fileListValue(const char *flag, int argc, char **argv, int &i,
              std::vector<std::string> &files)
{
    const std::size_t before = files.size();
    while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        files.push_back(argv[++i]);
    if (files.size() == before) {
        std::fprintf(stderr,
                     "galsbench: %s needs at least one file\n", flag);
        usage(stderr, 2);
    }
}

/** Strict --output extension check: an unknown extension is a usage
 *  error (exit 2), so a typo'd path cannot silently become a
 *  JSON-lines file nobody asked for. */
void
checkOutputPath(const std::string &path)
{
    TrajectoryFormat format;
    if (!trajectoryFormatForCliPath(path, format)) {
        std::fprintf(stderr,
                     "galsbench: --output expects a .jsonl, .json, "
                     ".csv or .gtrj path, got '%s'\n",
                     path.c_str());
        usage(stderr, 2);
    }
}

/** Parse a positive decimal double (for --straggler-factor). */
double
doubleValue(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE || v <= 0.0) {
        std::fprintf(stderr,
                     "galsbench: %s expects a positive number, got "
                     "'%s'\n",
                     flag, text);
        usage(stderr, 2);
    }
    return v;
}

/** This binary's own path, for dispatch workers to exec. */
std::string
selfExePath()
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    return buf;
}

/**
 * `galsbench dispatch ...`: the crash-safe sweep orchestrator
 * (runner/orchestrator.hh). argv[1] is "dispatch"; everything after
 * it is parsed here — the run-mode flags keep their meaning, plus
 * the orchestration knobs.
 */
int
dispatchMain(int argc, char **argv, const ScenarioRegistry &registry)
{
    DispatchOptions opts;
    opts.sweep = SweepOptions::fromEnvironment();
    opts.workerBinary = selfExePath();
    bool runAll = false;
    std::vector<std::string> cliBenchmarks;

    for (int i = 2; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--scenario")) {
            opts.scenarios.push_back(argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--all")) {
            runAll = true;
        } else if (!std::strcmp(arg, "--output")) {
            opts.outputPath = argValue(argc, argv, i);
        } else if (!std::strcmp(arg, "--manifest")) {
            opts.manifestPath = argValue(argc, argv, i);
        } else if (!std::strcmp(arg, "--slices")) {
            opts.slices =
                unsignedValue("--slices", argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--workers")) {
            opts.workers =
                unsignedValue("--workers", argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--worker-jobs")) {
            opts.workerJobs = unsignedValue("--worker-jobs",
                                            argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--insts")) {
            opts.sweep.instructions =
                numericValue("--insts", argValue(argc, argv, i));
            if (opts.sweep.instructions == 0) {
                std::fprintf(stderr,
                             "galsbench: --insts must be > 0\n");
                return 2;
            }
        } else if (!std::strcmp(arg, "--bench")) {
            cliBenchmarks.push_back(argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--seed")) {
            opts.sweep.seed =
                numericValue("--seed", argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--seeds")) {
            opts.sweep.seedReplicas =
                unsignedValue("--seeds", argValue(argc, argv, i));
            if (opts.sweep.seedReplicas == 0) {
                std::fprintf(stderr,
                             "galsbench: --seeds must be > 0\n");
                return 2;
            }
        } else if (!std::strcmp(arg, "--seed-list")) {
            opts.sweep.explicitSeeds =
                seedListValue(argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--cores")) {
            opts.sweep.coreCounts =
                coreListValue(argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--topology")) {
            opts.sweep.topologies =
                topologyListValue(argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--traffic")) {
            opts.sweep.traffics =
                trafficListValue(argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--interval-ticks")) {
            opts.sweep.intervalTicks = numericValue(
                "--interval-ticks", argValue(argc, argv, i));
            if (opts.sweep.intervalTicks == 0) {
                std::fprintf(stderr,
                             "galsbench: --interval-ticks must be "
                             "> 0\n");
                return 2;
            }
        } else if (!std::strcmp(arg, "--warmup-insts")) {
            opts.sweep.warmupInstructions = numericValue(
                "--warmup-insts", argValue(argc, argv, i));
            if (opts.sweep.warmupInstructions == 0) {
                std::fprintf(stderr,
                             "galsbench: --warmup-insts must be "
                             "> 0\n");
                return 2;
            }
        } else if (!std::strcmp(arg, "--snapshot-dir")) {
            opts.snapshotDir = argValue(argc, argv, i);
            std::error_code ec;
            if (!std::filesystem::is_directory(opts.snapshotDir,
                                               ec)) {
                std::fprintf(stderr,
                             "galsbench: --snapshot-dir '%s' is "
                             "not an existing directory\n",
                             opts.snapshotDir.c_str());
                return 2;
            }
        } else if (!std::strcmp(arg, "--retries")) {
            // N retries = N+1 attempts per slice.
            opts.policy.maxAttempts =
                unsignedValue("--retries", argValue(argc, argv, i)) +
                1;
        } else if (!std::strcmp(arg, "--backoff-ms")) {
            opts.policy.backoffBaseMs = numericValue(
                "--backoff-ms", argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--backoff-cap-ms")) {
            opts.policy.backoffCapMs = numericValue(
                "--backoff-cap-ms", argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--straggler-factor")) {
            opts.policy.stragglerFactor = doubleValue(
                "--straggler-factor", argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--min-deadline-ms")) {
            opts.policy.minDeadlineMs = numericValue(
                "--min-deadline-ms", argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--status-interval-ms")) {
            opts.statusIntervalMs = numericValue(
                "--status-interval-ms", argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--fresh")) {
            opts.fresh = true;
        } else if (!std::strcmp(arg, "--worker-binary")) {
            opts.workerBinary = argValue(argc, argv, i);
        } else if (!std::strcmp(arg, "--worker-arg")) {
            // TEST-ONLY: forwarded verbatim to every worker launch.
            opts.workerArgs.push_back(argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--fault-first-attempt")) {
            // TEST-ONLY: I:SPEC injects SPEC (exit-after=K /
            // hang-after=K) into slice I's first attempt only, so
            // the retry runs clean.
            const std::string v = argValue(argc, argv, i);
            const std::size_t colon = v.find(':');
            FaultPlan plan;
            std::string ferr;
            if (colon == std::string::npos ||
                !parseFaultSpec(v.substr(colon + 1), plan, ferr)) {
                std::fprintf(stderr,
                             "galsbench: --fault-first-attempt "
                             "expects SLICE:exit-after=K or "
                             "SLICE:hang-after=K, got '%s'\n",
                             v.c_str());
                return 2;
            }
            const unsigned slice = unsignedValue(
                "--fault-first-attempt",
                v.substr(0, colon).c_str());
            std::vector<std::string> &args =
                opts.firstAttemptArgs[slice];
            if (plan.exitAfter != FaultPlan::disabled) {
                args.push_back("--fault-exit-after");
                args.push_back(std::to_string(plan.exitAfter));
            }
            if (plan.hangAfter != FaultPlan::disabled) {
                args.push_back("--fault-hang-after");
                args.push_back(std::to_string(plan.hangAfter));
            }
        } else if (!std::strcmp(arg, "--help") ||
                   !std::strcmp(arg, "-h")) {
            usage(stdout, 0);
        } else {
            std::fprintf(stderr,
                         "galsbench: unknown dispatch argument "
                         "'%s'\n",
                         arg);
            usage(stderr, 2);
        }
    }

    if (!cliBenchmarks.empty())
        opts.sweep.benchmarks = std::move(cliBenchmarks);
    checkFabricAxes(opts.sweep);
    if (opts.sweep.warmupInstructions > 0 &&
        opts.sweep.warmupInstructions >= opts.sweep.instructions) {
        std::fprintf(stderr,
                     "galsbench: --warmup-insts (%llu) must be < "
                     "the instruction count (%llu)\n",
                     static_cast<unsigned long long>(
                         opts.sweep.warmupInstructions),
                     static_cast<unsigned long long>(
                         opts.sweep.instructions));
        return 2;
    }
    if (runAll) {
        opts.scenarios.clear();
        for (const Scenario &s : registry.all())
            opts.scenarios.push_back(s.name);
    }
    checkWarmupGrid(registry, opts.scenarios, opts.sweep);
    if (opts.scenarios.empty()) {
        std::fprintf(stderr,
                     "galsbench: dispatch needs --scenario/--all\n");
        return 2;
    }
    if (opts.outputPath.empty()) {
        std::fprintf(stderr,
                     "galsbench: dispatch needs --output PATH for "
                     "the merged trajectory\n");
        return 2;
    }
    if (opts.workerBinary.empty()) {
        std::fprintf(stderr,
                     "galsbench: cannot resolve own binary path; "
                     "pass --worker-binary PATH\n");
        return 2;
    }
    checkOutputPath(opts.outputPath);

    DispatchReport report;
    return runDispatch(registry, opts, std::cerr, &report) ? 0 : 1;
}

/**
 * `galsbench parse INPUT.gtrj ...`: offline conversion of a binary
 * trajectory back to the exact text a native text-format run of the
 * same sweep writes — JSON lines byte-identical to `--output
 * foo.jsonl` (CSV likewise) — so binary archives stay greppable and
 * diffable without re-simulating anything.
 */
int
parseMain(int argc, char **argv)
{
    std::string inputPath, outputPath;
    bool csv = false;
    for (int i = 2; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--format")) {
            const char *v = argValue(argc, argv, i);
            if (!std::strcmp(v, "json")) {
                csv = false;
            } else if (!std::strcmp(v, "csv")) {
                csv = true;
            } else {
                std::fprintf(stderr,
                             "galsbench: parse --format expects "
                             "'json' or 'csv', got '%s'\n",
                             v);
                usage(stderr, 2);
            }
        } else if (!std::strcmp(arg, "--output")) {
            outputPath = argValue(argc, argv, i);
        } else if (!std::strcmp(arg, "--help") ||
                   !std::strcmp(arg, "-h")) {
            usage(stdout, 0);
        } else if (!std::strncmp(arg, "--", 2)) {
            std::fprintf(stderr,
                         "galsbench: unknown parse argument '%s'\n",
                         arg);
            usage(stderr, 2);
        } else if (inputPath.empty()) {
            inputPath = arg;
        } else {
            std::fprintf(stderr,
                         "galsbench: parse takes one input file, got "
                         "'%s' and '%s'\n",
                         inputPath.c_str(), arg);
            usage(stderr, 2);
        }
    }
    if (inputPath.empty()) {
        std::fprintf(stderr,
                     "galsbench: parse needs an input .gtrj file\n");
        usage(stderr, 2);
    }

    std::ifstream is(inputPath, std::ios::in | std::ios::binary);
    if (!is) {
        std::fprintf(stderr, "galsbench: cannot open '%s'\n",
                     inputPath.c_str());
        return 1;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    if (is.bad()) {
        std::fprintf(stderr, "galsbench: error reading '%s'\n",
                     inputPath.c_str());
        return 1;
    }

    std::string out, err;
    const bool ok = csv ? gtrj::toCsv(buf.str(), out, err)
                        : gtrj::toJsonLines(buf.str(), out, err);
    if (!ok) {
        std::fprintf(stderr, "galsbench: parse: %s: %s\n",
                     inputPath.c_str(), err.c_str());
        return 1;
    }

    if (outputPath.empty()) {
        std::cout << out;
        return stdoutExitCode();
    }
    std::ofstream os(outputPath, std::ios::out | std::ios::trunc |
                                     std::ios::binary);
    if (os)
        os.write(out.data(),
                 static_cast<std::streamsize>(out.size()));
    os.flush();
    if (!os) {
        // A truncated conversion must not pass for the real thing in
        // a later byte-compare.
        std::fprintf(stderr, "galsbench: error writing '%s'\n",
                     outputPath.c_str());
        std::remove(outputPath.c_str());
        return 1;
    }
    return 0;
}

/**
 * Run one scenario's shard slice with per-record streaming: every
 * finished run is appended and flushed in canonical slice order the
 * moment it and all its predecessors are done, so a crash at any
 * instant loses at most the record being written. @p skip positions
 * (already on disk from a previous attempt) are neither re-simulated
 * nor re-written. faultTick() after each flush is where the injected
 * test faults fire.
 */
void
runSliceStreamed(const ExperimentEngine &engine, TrajectorySink &sink,
                 const std::string &scenario,
                 const std::vector<RunConfig> &shardRuns,
                 const std::vector<std::size_t> &indices,
                 std::size_t skip)
{
    const std::size_t n = shardRuns.size();
    if (skip >= n)
        return;
    std::vector<RunResults> results(n);
    std::vector<char> ready(n, 0);
    std::mutex mu;
    std::size_t next = skip;
    engine.runIndexed(n - skip, [&](std::size_t t) {
        const std::size_t j = skip + t;
        RunResults r = runOne(shardRuns[j]);
        const std::lock_guard<std::mutex> lock(mu);
        results[j] = std::move(r);
        ready[j] = 1;
        // Ordered flush window: drain the contiguous ready prefix.
        while (next < n && ready[next]) {
            sink.appendOne(scenario, shardRuns[next], results[next],
                           indices[next]);
            faultTick();
            ++next;
        }
    });
}

} // namespace

int
main(int argc, char **argv)
{
    ScenarioRegistry registry;
    bench::registerAllScenarios(registry);

    SweepOptions opts = SweepOptions::fromEnvironment();
    // TEST-ONLY (docs/ORCHESTRATION.md): deterministic worker fault
    // injection for the orchestrator's crash-safety tests.
    if (const char *env = std::getenv("GALSSIM_FAULT")) {
        FaultPlan plan;
        std::string ferr;
        if (!parseFaultSpec(env, plan, ferr)) {
            std::fprintf(stderr, "galsbench: GALSSIM_FAULT: %s\n",
                         ferr.c_str());
            return 2;
        }
        setFaultPlan(plan);
    }

    if (argc >= 2 && !std::strcmp(argv[1], "dispatch"))
        return dispatchMain(argc, argv, registry);
    if (argc >= 2 && !std::strcmp(argv[1], "parse"))
        return parseMain(argc, argv);

    std::vector<std::string> selected, cliBenchmarks;
    std::vector<std::string> mergeFiles, mergeManifestFiles;
    std::string outputPath, manifestPath, verifyPath;
    bool listOnly = false, runAll = false, jobsFlag = false;
    unsigned jobs = 1;
    std::uint64_t resumeSkip = 0;
    FaultPlan cliFault;
    OutputFormat format = OutputFormat::table;
    // Sweep-shaping flags that --merge/--verify must reject rather
    // than silently ignore (--verify replays exactly what the
    // manifest records; e.g. --verify --shard would quietly re-run
    // the whole archive, not a slice).
    std::vector<std::string> sweepFlags;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--list")) {
            listOnly = true;
        } else if (!std::strcmp(arg, "--all")) {
            runAll = true;
        } else if (!std::strcmp(arg, "--scenario")) {
            selected.push_back(argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--jobs")) {
            jobs = unsignedValue("--jobs", argValue(argc, argv, i));
            jobsFlag = true;
        } else if (!std::strcmp(arg, "--format")) {
            format = parseOutputFormat(argValue(argc, argv, i));
            sweepFlags.push_back("--format");
        } else if (!std::strcmp(arg, "--insts")) {
            opts.instructions =
                numericValue("--insts", argValue(argc, argv, i));
            sweepFlags.push_back("--insts");
            if (opts.instructions == 0) {
                std::fprintf(stderr,
                             "galsbench: --insts must be > 0\n");
                return 2;
            }
        } else if (!std::strcmp(arg, "--bench")) {
            cliBenchmarks.push_back(argValue(argc, argv, i));
            sweepFlags.push_back("--bench");
        } else if (!std::strcmp(arg, "--seed")) {
            opts.seed =
                numericValue("--seed", argValue(argc, argv, i));
            sweepFlags.push_back("--seed");
        } else if (!std::strcmp(arg, "--seeds")) {
            opts.seedReplicas =
                unsignedValue("--seeds", argValue(argc, argv, i));
            sweepFlags.push_back("--seeds");
            if (opts.seedReplicas == 0) {
                std::fprintf(stderr,
                             "galsbench: --seeds must be > 0\n");
                return 2;
            }
        } else if (!std::strcmp(arg, "--seed-list")) {
            opts.explicitSeeds =
                seedListValue(argValue(argc, argv, i));
            sweepFlags.push_back("--seed-list");
        } else if (!std::strcmp(arg, "--shard")) {
            opts.shard = shardValue(argValue(argc, argv, i));
            sweepFlags.push_back("--shard");
        } else if (!std::strcmp(arg, "--cores")) {
            opts.coreCounts = coreListValue(argValue(argc, argv, i));
            sweepFlags.push_back("--cores");
        } else if (!std::strcmp(arg, "--topology")) {
            opts.topologies =
                topologyListValue(argValue(argc, argv, i));
            sweepFlags.push_back("--topology");
        } else if (!std::strcmp(arg, "--traffic")) {
            opts.traffics =
                trafficListValue(argValue(argc, argv, i));
            sweepFlags.push_back("--traffic");
        } else if (!std::strcmp(arg, "--interval-ticks")) {
            opts.intervalTicks = numericValue(
                "--interval-ticks", argValue(argc, argv, i));
            sweepFlags.push_back("--interval-ticks");
            if (opts.intervalTicks == 0) {
                std::fprintf(stderr,
                             "galsbench: --interval-ticks must be "
                             "> 0\n");
                return 2;
            }
        } else if (!std::strcmp(arg, "--warmup-insts")) {
            opts.warmupInstructions = numericValue(
                "--warmup-insts", argValue(argc, argv, i));
            sweepFlags.push_back("--warmup-insts");
            if (opts.warmupInstructions == 0) {
                std::fprintf(stderr,
                             "galsbench: --warmup-insts must be "
                             "> 0\n");
                return 2;
            }
        } else if (!std::strcmp(arg, "--snapshot-dir")) {
            const std::string dir = argValue(argc, argv, i);
            sweepFlags.push_back("--snapshot-dir");
            std::error_code ec;
            if (!std::filesystem::is_directory(dir, ec)) {
                std::fprintf(stderr,
                             "galsbench: --snapshot-dir '%s' is "
                             "not an existing directory\n",
                             dir.c_str());
                return 2;
            }
            setSnapshotDir(dir);
        } else if (!std::strcmp(arg, "--merge")) {
            fileListValue("--merge", argc, argv, i, mergeFiles);
        } else if (!std::strcmp(arg, "--merge-manifest")) {
            fileListValue("--merge-manifest", argc, argv, i,
                          mergeManifestFiles);
        } else if (!std::strcmp(arg, "--verify")) {
            verifyPath = argValue(argc, argv, i);
        } else if (!std::strcmp(arg, "--output")) {
            outputPath = argValue(argc, argv, i);
        } else if (!std::strcmp(arg, "--manifest")) {
            manifestPath = argValue(argc, argv, i);
        } else if (!std::strcmp(arg, "--resume-skip")) {
            // Hidden worker flag (galsbench dispatch relaunches):
            // the first N slice records are already on disk — append
            // to --output instead of truncating it, and neither
            // re-simulate nor re-write those positions.
            resumeSkip = numericValue("--resume-skip",
                                      argValue(argc, argv, i));
            sweepFlags.push_back("--resume-skip");
        } else if (!std::strcmp(arg, "--fault-exit-after")) {
            // Hidden TEST-ONLY flags (docs/ORCHESTRATION.md): die or
            // hang after N flushed records.
            cliFault.exitAfter = numericValue(
                "--fault-exit-after", argValue(argc, argv, i));
            sweepFlags.push_back("--fault-exit-after");
        } else if (!std::strcmp(arg, "--fault-hang-after")) {
            cliFault.hangAfter = numericValue(
                "--fault-hang-after", argValue(argc, argv, i));
            sweepFlags.push_back("--fault-hang-after");
        } else if (!std::strcmp(arg, "--help") ||
                   !std::strcmp(arg, "-h")) {
            usage(stdout, 0);
        } else {
            std::fprintf(stderr, "galsbench: unknown argument '%s'\n",
                         arg);
            usage(stderr, 2);
        }
    }

    // Explicit --bench flags override the GALSSIM_BENCH default.
    if (!cliBenchmarks.empty())
        opts.benchmarks = std::move(cliBenchmarks);
    checkFabricAxes(opts);
    // Checked after the whole parse so --insts/--warmup-insts order
    // does not matter.
    if (opts.warmupInstructions > 0 &&
        opts.warmupInstructions >= opts.instructions) {
        std::fprintf(stderr,
                     "galsbench: --warmup-insts (%llu) must be < "
                     "the instruction count (%llu)\n",
                     static_cast<unsigned long long>(
                         opts.warmupInstructions),
                     static_cast<unsigned long long>(
                         opts.instructions));
        return 2;
    }

    if (cliFault.active())
        setFaultPlan(cliFault);
    if (!outputPath.empty())
        checkOutputPath(outputPath);
    if (resumeSkip > 0 &&
        (!opts.shard.active() || outputPath.empty() ||
         trajectoryFormatForPath(outputPath) ==
             TrajectoryFormat::csv)) {
        std::fprintf(stderr,
                     "galsbench: --resume-skip only applies to a "
                     "--shard run with a JSON-lines or gtrj "
                     "--output\n");
        return 2;
    }

    const bool mergeMode =
        !mergeFiles.empty() || !mergeManifestFiles.empty();
    const bool verifyMode = !verifyPath.empty();
    const bool runMode = runAll || !selected.empty();
    if (static_cast<int>(listOnly) + static_cast<int>(mergeMode) +
            static_cast<int>(verifyMode) + static_cast<int>(runMode) >
        1) {
        std::fprintf(stderr,
                     "galsbench: --list, --merge/--merge-manifest, "
                     "--verify and scenario runs are mutually "
                     "exclusive\n");
        return 2;
    }

    // --jobs feeds the ExperimentEngine, which merge mode never
    // runs; treat it like the other mode-irrelevant flags.
    if (mergeMode && jobsFlag)
        sweepFlags.insert(sweepFlags.begin(), "--jobs");
    if ((mergeMode || verifyMode) && !sweepFlags.empty()) {
        std::fprintf(stderr,
                     "galsbench: %s does not apply to %s (the "
                     "%s)\n",
                     sweepFlags.front().c_str(),
                     verifyMode ? "--verify" : "--merge",
                     verifyMode
                         ? "manifest alone defines the replay"
                         : "inputs alone define the merge");
        return 2;
    }

    if (mergeMode) {
        if (!mergeFiles.empty() && outputPath.empty()) {
            std::fprintf(stderr,
                         "galsbench: --merge needs --output PATH for "
                         "the merged trajectory\n");
            return 2;
        }
        if (!mergeManifestFiles.empty() && manifestPath.empty()) {
            std::fprintf(stderr,
                         "galsbench: --merge-manifest needs "
                         "--manifest PATH for the merged manifest\n");
            return 2;
        }
        if (mergeManifestFiles.empty() && !manifestPath.empty()) {
            // Silently skipping the manifest would archive a merged
            // trajectory that a later --verify has nothing to
            // replay against.
            std::fprintf(stderr,
                         "galsbench: --manifest in merge mode needs "
                         "the shard manifests via --merge-manifest\n");
            return 2;
        }
        if (mergeFiles.empty() && !outputPath.empty()) {
            // The symmetric hazard: a merged manifest recording a
            // trajectory this invocation never produced.
            std::fprintf(stderr,
                         "galsbench: --output in merge mode needs "
                         "the shard trajectories via --merge\n");
            return 2;
        }
        // Manifests first: when both are given, the recovered sweep
        // shape is the authoritative completeness check for the
        // trajectory merge.
        bool ok = true;
        MergePlan plan;
        const MergePlan *planPtr = nullptr;
        if (!mergeManifestFiles.empty()) {
            ok = mergeManifests(mergeManifestFiles, manifestPath,
                                outputPath, std::cerr, &plan);
            planPtr = &plan;
        }
        if (ok && !mergeFiles.empty()) {
            ok = mergeTrajectories(mergeFiles, outputPath, std::cerr,
                                   planPtr);
            if (!ok && !mergeManifestFiles.empty()) {
                // Don't leave a canonical-looking manifest behind
                // whose recorded trajectory was never written.
                std::remove(manifestPath.c_str());
                std::fprintf(stderr,
                             "galsbench: removed '%s' (trajectory "
                             "merge failed)\n",
                             manifestPath.c_str());
            }
        }
        return ok ? 0 : 1;
    }

    if (verifyMode) {
        if (!outputPath.empty() || !manifestPath.empty()) {
            std::fprintf(stderr,
                         "galsbench: --verify replays an archived "
                         "manifest; --output/--manifest do not "
                         "apply\n");
            return 2;
        }
        const ExperimentEngine engine(jobs);
        return verifyManifest(registry, engine, verifyPath,
                              std::cerr)
                   ? 0
                   : 1;
    }

    if (listOnly) {
        if (!outputPath.empty() || !manifestPath.empty()) {
            std::fprintf(stderr,
                         "galsbench: --output/--manifest are only "
                         "valid when running scenarios\n");
            return 2;
        }
        if (format == OutputFormat::markdown) {
            // The checked-in catalog documents the registry at stock
            // sweep defaults, deliberately ignoring GALSSIM_INSTS /
            // --insts overrides so the CI drift check is stable in
            // any environment.
            writeScenarioCatalogMarkdown(std::cout, registry,
                                         SweepOptions{});
            return stdoutExitCode();
        }
        std::printf("%-16s %-14s %s\n", "name", "figure",
                    "description");
        for (const Scenario &s : registry.all())
            std::printf("%-16s %-14s %s\n", s.name.c_str(),
                        s.figure.c_str(), s.description.c_str());
        return stdoutExitCode();
    }

    if (format == OutputFormat::markdown) {
        std::fprintf(stderr,
                     "galsbench: --format md is only valid with "
                     "--list\n");
        return 2;
    }

    if (runAll) {
        // --all replaces any --scenario picks (no duplicate runs).
        selected.clear();
        for (const Scenario &s : registry.all())
            selected.push_back(s.name);
    }

    if (selected.empty()) {
        std::fprintf(stderr,
                     "galsbench: no scenario selected (try --list)\n");
        usage(stderr, 2);
    }

    // Resolve every scenario before opening the sink: the sink
    // truncates --output on open, and a typo'd scenario name must
    // not destroy a previously archived trajectory.
    std::vector<const Scenario *> scenarios;
    scenarios.reserve(selected.size());
    for (const std::string &name : selected) {
        const Scenario *scenario = registry.find(name);
        if (!scenario) {
            std::fprintf(stderr,
                         "galsbench: unknown scenario '%s' (try "
                         "--list)\n",
                         name.c_str());
            return 2;
        }
        scenarios.push_back(scenario);
    }
    checkWarmupGrid(registry, selected, opts);

    if (opts.shard.active() && outputPath.empty() &&
        manifestPath.empty()) {
        std::fprintf(stderr,
                     "galsbench: --shard runs a grid slice whose "
                     "reports are suppressed; give --output and/or "
                     "--manifest to keep its records\n");
        return 2;
    }

    std::unique_ptr<TrajectorySink> sink;
    if (!outputPath.empty())
        sink = std::make_unique<TrajectorySink>(outputPath,
                                                resumeSkip > 0);
    std::vector<ManifestScenario> manifestScenarios;

    // Covers exit-after=0 / hang-after=0: the fault fires before the
    // first record of the sweep.
    faultPoint();

    const std::size_t replicas = opts.seedList().size();
    std::uint64_t skipLeft = resumeSkip;
    const ExperimentEngine engine(jobs);
    for (const Scenario *scenario : scenarios) {
        std::size_t gridSize = 0;
        const std::vector<RunConfig> runs =
            expandReplicatedRuns(*scenario, opts, &gridSize);
        // The manifest always describes the canonical full grid —
        // shard manifests differ from the unsharded one only by the
        // shard object and output path, which is what --merge-manifest
        // strips when fusing them back.
        manifestScenarios.push_back({scenario->name, gridSize,
                                     replicas, runConfigHash(runs)});

        if (opts.shard.active()) {
            // Run only this shard's slice; records carry their
            // canonical grid indices so --merge can reassemble the
            // single-machine trajectory byte for byte. The paper
            // tables need the whole grid, so no report is printed
            // here.
            const std::vector<std::size_t> indices =
                shardRunIndices(runs.size(), opts.shard);
            const std::vector<RunConfig> shardRuns =
                selectRuns(runs, indices);
            if (sink) {
                if (sink->format() != TrajectoryFormat::csv) {
                    // Stream + flush record by record (JSON lines or
                    // gtrj frames — both are self-delimiting): this
                    // is what lets `galsbench dispatch` lose at most
                    // one record to a killed worker.
                    const std::size_t skip =
                        std::min<std::uint64_t>(skipLeft,
                                                shardRuns.size());
                    skipLeft -= skip;
                    runSliceStreamed(engine, *sink, scenario->name,
                                     shardRuns, indices, skip);
                } else {
                    const std::vector<RunResults> results =
                        engine.run(shardRuns);
                    sink->append(scenario->name, shardRuns, results,
                                 &indices);
                }
                std::fprintf(stderr,
                             "galsbench: %s: shard %u/%u ran %zu of "
                             "%zu runs\n",
                             scenario->name.c_str(), opts.shard.index,
                             opts.shard.count, shardRuns.size(),
                             runs.size());
            } else {
                // Manifest-only shard invocation: the manifest is a
                // function of the configs alone, so don't burn the
                // slice's simulation time to discard its results.
                std::fprintf(stderr,
                             "galsbench: %s: shard %u/%u manifest "
                             "only (%zu of %zu runs not executed)\n",
                             scenario->name.c_str(), opts.shard.index,
                             opts.shard.count, shardRuns.size(),
                             runs.size());
            }
            continue;
        }

        const std::vector<RunResults> results = engine.run(runs);

        if (sink)
            sink->append(scenario->name, runs, results);

        if (replicas <= 1) {
            switch (format) {
              case OutputFormat::table:
                scenario->reduce(opts, SweepView{results});
                break;
              case OutputFormat::json:
                writeJsonLines(std::cout, scenario->name, runs,
                               results);
                break;
              case OutputFormat::csv:
                writeCsv(std::cout, scenario->name, runs, results);
                break;
              case OutputFormat::markdown:
                break; // rejected above; --list handles md itself
            }
            continue;
        }

        if (gridSize == 0) {
            // Literature-only scenario (empty grid): nothing to
            // aggregate, but its table report is still valid.
            if (format == OutputFormat::table)
                scenario->reduce(opts, SweepView{results});
            continue;
        }

        // The first replica block is the grid the aggregated
        // reports describe.
        const std::vector<RunConfig> gridCfgs(
            runs.begin(),
            runs.begin() + static_cast<std::ptrdiff_t>(gridSize));
        const ReplicaSummary summary =
            summarizeReplicas(gridSize, results);
        switch (format) {
          case OutputFormat::table:
            scenario->reduce(opts, SweepView{summary.mean, &summary});
            writeReplicationTable(std::cout, scenario->name, gridCfgs,
                                  summary);
            break;
          case OutputFormat::json:
            writeJsonLinesSummary(std::cout, scenario->name, gridCfgs,
                                  summary);
            break;
          case OutputFormat::csv:
            writeCsvSummary(std::cout, scenario->name, gridCfgs,
                            summary);
            break;
          case OutputFormat::markdown:
            break;
        }
    }

    if (sink)
        sink->close();
    if (!manifestPath.empty())
        writeManifestFile(manifestPath, opts, manifestEngineName,
                          outputPath, manifestScenarios);

    return stdoutExitCode();
}
