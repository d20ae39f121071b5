#include "runner/scenario.hh"

#include <algorithm>
#include <iterator>

#include "sim/logging.hh"

namespace gals::runner
{

std::vector<std::string>
SweepOptions::benchmarkSet() const
{
    return benchmarks.empty() ? benchmarkNames() : benchmarks;
}

std::vector<std::uint64_t>
SweepOptions::seedList() const
{
    if (!explicitSeeds.empty())
        return explicitSeeds;
    std::vector<std::uint64_t> seeds;
    seeds.reserve(seedReplicas == 0 ? 1 : seedReplicas);
    for (unsigned r = 0; r < std::max(1u, seedReplicas); ++r)
        seeds.push_back(seed + r);
    return seeds;
}

void
ScenarioRegistry::add(Scenario s)
{
    if (s.name.empty())
        gals_fatal("scenario registered without a name");
    if (find(s.name))
        gals_fatal("scenario '", s.name, "' registered twice");
    scenarios_.push_back(std::move(s));
}

const Scenario *
ScenarioRegistry::find(const std::string &name) const
{
    for (const Scenario &s : scenarios_)
        if (s.name == name)
            return &s;
    return nullptr;
}

void
appendPair(std::vector<RunConfig> &runs, const std::string &benchmark,
           std::uint64_t instructions, const DvfsSetting &galsDvfs,
           std::uint64_t seed, const ProcessorConfig &proc)
{
    RunConfig base;
    base.benchmark = benchmark;
    base.instructions = instructions;
    base.gals = false;
    base.seed = seed;
    base.proc = proc;

    RunConfig galsCfg = base;
    galsCfg.gals = true;
    galsCfg.dvfs = galsDvfs;

    runs.push_back(std::move(base));
    runs.push_back(std::move(galsCfg));
}

std::vector<RunConfig>
expandReplicatedRuns(const Scenario &s, const SweepOptions &opts,
                     std::size_t *gridSize)
{
    std::vector<RunConfig> all;
    std::size_t grid = 0;
    bool first = true;
    for (std::uint64_t seed : opts.seedList()) {
        SweepOptions replica = opts;
        replica.seed = seed;
        std::vector<RunConfig> runs =
            s.makeRuns ? s.makeRuns(replica)
                       : std::vector<RunConfig>();
        if (first) {
            grid = runs.size();
            first = false;
        } else {
            gals_assert(runs.size() == grid, "scenario '", s.name,
                        "': replica grid size ", runs.size(),
                        " != ", grid,
                        " (grid shape may not depend on the seed)");
        }
        all.insert(all.end(),
                   std::make_move_iterator(runs.begin()),
                   std::make_move_iterator(runs.end()));
    }
    // The interval meter applies sweep-wide; stamping here (the one
    // place every scenario's grid passes through) keeps the option
    // out of each scenario's makeRuns(). The warmup split is stamped
    // the same way, but only onto single-core runs: fabric runs do
    // not support warm snapshots, and leaving their field at 0 keeps
    // their hashes unchanged instead of silently ignoring the option
    // mid-run (runOne asserts the combination never reaches it, and
    // galsbench rejects --warmup-insts and --interval-ticks for grids
    // with fabric runs; --verify of an older fabric archive recording
    // an interval still reproduces its stamped hash).
    for (RunConfig &cfg : all) {
        cfg.intervalTicks = opts.intervalTicks;
        if (!cfg.fabric.active())
            cfg.warmupInstructions = opts.warmupInstructions;
    }
    if (gridSize)
        *gridSize = grid;
    return all;
}

std::vector<RunConfig>
selectRuns(const std::vector<RunConfig> &runs,
           const std::vector<std::size_t> &indices)
{
    std::vector<RunConfig> out;
    out.reserve(indices.size());
    for (std::size_t i : indices) {
        gals_assert(i < runs.size(), "selectRuns: index ", i,
                    " out of range (", runs.size(), " runs)");
        out.push_back(runs[i]);
    }
    return out;
}

PairResults
pairAt(const std::vector<RunResults> &results, std::size_t i)
{
    gals_assert(2 * i + 1 < results.size(),
                "pairAt(", i, ") out of range (", results.size(),
                " results)");
    PairResults pr;
    pr.base = results[2 * i];
    pr.galsRun = results[2 * i + 1];
    return pr;
}

} // namespace gals::runner
