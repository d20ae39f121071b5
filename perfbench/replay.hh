/**
 * @file
 * Layer replays: the workload generator, branch predictor, caches and
 * power accounting run inside a stage's tick(), where a ticker
 * wrapper cannot separate them. After a traced pass, the benchmark
 * regenerates each run's correct-path instruction stream and drives a
 * fresh instance of each layer through its public API with it, timing
 * each layer alone.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>

#include "core/experiment.hh"
#include "perfbench/machine.hh"

namespace perfbench
{

/** Host time and operation counts of the replays of one pass. */
struct ReplayTotals
{
    double genBuildS = 0; ///< StreamGenerator construction
    double genNextS = 0;  ///< StreamGenerator::next()
    std::uint64_t genInsts = 0;
    double bpredS = 0; ///< BranchUnit predict + update
    std::uint64_t branches = 0;
    double cacheS = 0; ///< CacheHierarchy fetch + data accesses
    std::uint64_t cacheAccesses = 0;
    double powerS = 0; ///< EnergyAccount::domainCycle()
    std::uint64_t domainCycles = 0;
    /** Folded layer outputs, so no replay is optimized away. */
    double sink = 0;
};

/** Replay every core of the finished run @p cfg (its clock edges
 *  from @p spans) and add the costs to @p totals. */
void replayRun(const gals::RunConfig &cfg, const RunSpans &spans,
               ReplayTotals &totals);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
