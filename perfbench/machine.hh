/**
 * @file
 * One simulation, built from the public primitives gals::runOne()
 * uses — Processor / fabric::System construction, warm-state acquire
 * and restore, run() / runResumed(), extractRunResults() — with host
 * timestamps at the boundaries between them, and optionally a timing
 * wrapper around each pipeline stage's clock-domain ticker.
 *
 * The wrapper replaces a stage's registration (removeTicker) by a
 * timing ClockDomain::Ticker registered at the same priority 10. Each
 * stage is the only priority-10 ticker on its domain, so the order of
 * ticks on every edge is unchanged and the run's record is
 * byte-identical to an untraced runOne() of the same config; the
 * benchmark checks that on every run.
 */

#ifndef PERFBENCH_MACHINE_HH
#define PERFBENCH_MACHINE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/domain.hh"
#include "core/experiment.hh"

namespace perfbench
{

/** The five per-core pipeline stages, in domain order. */
enum Stage : unsigned
{
    stFetch,
    stDecode,
    stInt,
    stFp,
    stMem,
    numStages
};

/** What one run cost on the host, and the counters the per-layer
 *  metrics read from its machine. Times are seconds. */
struct RunSpans
{
    /** @name Phase spans (every run) */
    /// @{
    double setupS = 0;   ///< acquire + construction + restore
    double runS = 0;     ///< run() / runResumed() / System::run()
    double extractS = 0; ///< finalize + extractRunResults()
    /// @}

    /** @name Set-up detail */
    /// @{
    double acquireS = 0;  ///< acquireWarmupSnapshot()
    double restoreS = 0;  ///< restoreWarmMachine()
    double fabricBuildS = 0; ///< fabric::System construction
    double finalizeS = 0; ///< Processor::finalizeEnergyNj()
    std::uint64_t warmKey = 0; ///< warmupKeyHash(), 0 when cold
    /// @}

    /** @name Stage self time and ticks (traced runs only) */
    /// @{
    std::array<double, numStages> stageS{};
    std::array<std::uint64_t, numStages> stageTicks{};
    /// @}

    /** @name Machine counters, summed over cores */
    /// @{
    std::uint64_t events = 0; ///< events the run's queue serviced
    std::uint64_t execIssued = 0;
    std::uint64_t dirCorrect = 0, dirTotal = 0;
    std::array<std::uint64_t, 3> cacheAccesses{}; ///< il1, dl1, l2
    std::array<std::uint64_t, 3> cacheMisses{};
    /// @}

    /** Per core: clock edges and supply of each domain, for the
     *  power replay. */
    std::vector<gals::PerDomain<std::uint64_t>> domainEdges;
    std::vector<gals::PerDomain<double>> domainVdd;
};

/**
 * Execute @p cfg exactly as gals::runOne() does, filling @p spans.
 * With @p traced, each pipeline stage ticks through a timing wrapper.
 */
gals::RunResults runMachine(const gals::RunConfig &cfg, bool traced,
                            RunSpans &spans);

} // namespace perfbench

#endif // PERFBENCH_MACHINE_HH
