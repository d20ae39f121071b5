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
 * Usage: see usage(). main() takes the sweep-axis flags from
 * runner/sweep_axes.hh and hand-parses only its own per-invocation
 * flags.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/register_all.hh"
#include "core/snapshot.hh"
#include "runner/atomic_file.hh"
#include "runner/engine.hh"
#include "runner/gtrj.hh"
#include "runner/merge.hh"
#include "runner/reporter.hh"
#include "runner/scenario.hh"
#include "runner/stats.hh"
#include "runner/sweep_axes.hh"
#include "runner/trajectory.hh"

using namespace gals;
using namespace gals::runner;

namespace
{

[[noreturn]] void
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
        "                  processes (e.g. --shard runs) share\n"
        "                  warmup stems; never affects the\n"
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
        "                  --output PATH or stdout\n");
    std::exit(exitCode);
}

/** Unless @p err is empty: print "galsbench: @p err", then usage,
 *  and exit 2 — the one way every invalid value fails. */
void
usageError(const std::string &err)
{
    if (err.empty())
        return;
    std::fprintf(stderr, "galsbench: %s\n", err.c_str());
    usage(stderr, 2);
}

const char *
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        usageError(std::string(argv[i]) + " needs a value");
    return argv[++i];
}

/** A non-negative decimal bounded to `unsigned` range, so --jobs
 *  and --shard cannot silently truncate through a cast. */
unsigned
unsignedValue(const char *flag, const char *text)
{
    unsigned v = 0;
    usageError(parseUnsigned(flag, text, v));
    return v;
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
        slash + 1 >= s.size())
        usageError("--shard expects I/N (e.g. 2/3), got '" + s + "'");
    ShardSpec shard;
    shard.index =
        unsignedValue("--shard", s.substr(0, slash).c_str());
    shard.count =
        unsignedValue("--shard", s.substr(slash + 1).c_str());
    if (shard.index < 1 || shard.count < 1 ||
        shard.index > shard.count)
        usageError("--shard " + s + " out of range (need 1 <= I <= N)");
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
    if (files.size() == before)
        usageError(std::string(flag) + " needs at least one file");
}

/** Strict --output extension check: an unknown extension is a usage
 *  error (exit 2), so a typo'd path cannot silently become a
 *  JSON-lines file nobody asked for. */
void
checkOutputPath(const std::string &path)
{
    TrajectoryFormat format;
    if (!trajectoryFormatForCliPath(path, format))
        usageError("--output expects a .jsonl, .json, .csv or .gtrj "
                   "path, got '" + path + "'");
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
                usageError(std::string("parse --format expects 'json' "
                                       "or 'csv', got '") +
                           v + "'");
            }
        } else if (!std::strcmp(arg, "--output")) {
            outputPath = argValue(argc, argv, i);
        } else if (!std::strcmp(arg, "--help") ||
                   !std::strcmp(arg, "-h")) {
            usage(stdout, 0);
        } else if (!std::strncmp(arg, "--", 2)) {
            usageError(std::string("unknown parse argument '") + arg +
                       "'");
        } else if (inputPath.empty()) {
            inputPath = arg;
        } else {
            usageError("parse takes one input file, got '" + inputPath +
                       "' and '" + arg + "'");
        }
    }
    if (inputPath.empty())
        usageError("parse needs an input .gtrj file");

    std::string in, out, err;
    if (!readWholeFile(inputPath, in, err)) {
        std::fprintf(stderr, "galsbench: %s\n", err.c_str());
        return 1;
    }
    const bool ok = csv ? gtrj::toCsv(in, out, err)
                        : gtrj::toJsonLines(in, out, err);
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

} // namespace

int
main(int argc, char **argv)
{
    ScenarioRegistry registry;
    bench::registerAllScenarios(registry);

    if (argc >= 2 && !std::strcmp(argv[1], "parse"))
        return parseMain(argc, argv);

    SweepAxisParser axes;
    ShardSpec shard;
    std::vector<std::string> selected;
    std::vector<std::string> mergeFiles, mergeManifestFiles;
    std::string outputPath, manifestPath, verifyPath;
    bool listOnly = false, runAll = false, jobsFlag = false;
    unsigned jobs = 1;
    OutputFormat format = OutputFormat::table;
    // Sweep-shaping flags that --merge/--verify must reject rather
    // than silently ignore (--verify replays exactly what the
    // manifest records; e.g. --verify --shard would quietly re-run
    // the whole archive, not a slice).
    std::vector<std::string> sweepFlags;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (const auto err = axes.take(argc, argv, i)) {
            usageError(*err);
            sweepFlags.push_back(arg);
            continue;
        }
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
        } else if (!std::strcmp(arg, "--shard")) {
            // This invocation's slice of the grid, not a sweep axis.
            shard = shardValue(argValue(argc, argv, i));
            sweepFlags.push_back("--shard");
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
        } else if (!std::strcmp(arg, "--help") ||
                   !std::strcmp(arg, "-h")) {
            usage(stdout, 0);
        } else {
            usageError(std::string("unknown argument '") + arg + "'");
        }
    }

    if (runAll) {
        // --all replaces any --scenario picks (no duplicate runs).
        selected.clear();
        for (const Scenario &s : registry.all())
            selected.push_back(s.name);
    }
    // Checked after the whole parse so flag order does not matter.
    SweepOptions opts;
    usageError(axes.finish(registry, selected, opts));
    opts.shard = shard;
    if (!opts.snapshotDir.empty())
        setSnapshotDir(opts.snapshotDir);
    if (!outputPath.empty())
        checkOutputPath(outputPath);

    const bool mergeMode =
        !mergeFiles.empty() || !mergeManifestFiles.empty();
    const bool verifyMode = !verifyPath.empty();
    const bool runMode = runAll || !selected.empty();
    if (static_cast<int>(listOnly) + static_cast<int>(mergeMode) +
            static_cast<int>(verifyMode) + static_cast<int>(runMode) >
        1) {
        usageError("--list, --merge/--merge-manifest, --verify and scenario "
                   "runs are mutually exclusive");
    }

    // --jobs feeds the ExperimentEngine, which merge mode never
    // runs; treat it like the other mode-irrelevant flags.
    if (mergeMode && jobsFlag)
        sweepFlags.insert(sweepFlags.begin(), "--jobs");
    if ((mergeMode || verifyMode) && !sweepFlags.empty()) {
        usageError(sweepFlags.front() + " does not apply to " +
                   (verifyMode ? "--verify (the manifest alone defines "
                                 "the replay)"
                               : "--merge (the inputs alone define the "
                                 "merge)"));
    }

    if (mergeMode) {
        if (!mergeFiles.empty() && outputPath.empty())
            usageError("--merge needs --output PATH for the merged "
                       "trajectory");
        if (!mergeManifestFiles.empty() && manifestPath.empty())
            usageError("--merge-manifest needs --manifest PATH for the "
                       "merged manifest");
        if (mergeManifestFiles.empty() && !manifestPath.empty()) {
            // Silently skipping the manifest would archive a merged
            // trajectory that a later --verify has nothing to
            // replay against.
            usageError("--manifest in merge mode needs the shard manifests "
                       "via --merge-manifest");
        }
        if (mergeFiles.empty() && !outputPath.empty()) {
            // The symmetric hazard: a merged manifest recording a
            // trajectory this invocation never produced.
            usageError("--output in merge mode needs the shard trajectories "
                       "via --merge");
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
        if (!outputPath.empty() || !manifestPath.empty())
            usageError("--verify replays an archived manifest; "
                       "--output/--manifest do not apply");
        const ExperimentEngine engine(jobs);
        return verifyManifest(registry, engine, verifyPath,
                              std::cerr)
                   ? 0
                   : 1;
    }

    if (listOnly) {
        if (!outputPath.empty() || !manifestPath.empty())
            usageError("--output/--manifest are only valid when running "
                       "scenarios");
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

    if (format == OutputFormat::markdown)
        usageError("--format md is only valid with --list");

    if (selected.empty())
        usageError("no scenario selected (try --list)");

    // Resolve every scenario before opening the sink: the sink
    // truncates --output on open, and a typo'd scenario name must
    // not destroy a previously archived trajectory.
    std::vector<const Scenario *> scenarios;
    scenarios.reserve(selected.size());
    for (const std::string &name : selected) {
        const Scenario *scenario = registry.find(name);
        if (!scenario)
            usageError("unknown scenario '" + name + "' (try --list)");
        scenarios.push_back(scenario);
    }

    if (opts.shard.active() && outputPath.empty() &&
        manifestPath.empty()) {
        usageError("--shard runs a grid slice whose reports are suppressed; "
                   "give --output and/or --manifest to keep its records");
    }

    std::unique_ptr<TrajectorySink> sink;
    if (!outputPath.empty())
        sink = std::make_unique<TrajectorySink>(outputPath);
    std::vector<ManifestScenario> manifestScenarios;

    const std::size_t replicas = opts.seedList().size();
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
                sink->append(scenario->name, shardRuns,
                             engine.run(shardRuns), &indices);
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
