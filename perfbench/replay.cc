#include "perfbench/replay.hh"

#include <algorithm>
#include <chrono>
#include <vector>

#include "bpred/bpred.hh"
#include "cache/hierarchy.hh"
#include "power/energy_account.hh"
#include "workload/generator.hh"

namespace perfbench
{

using namespace gals;
using Clock = std::chrono::steady_clock;

namespace
{

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool
isBranch(InstClass c)
{
    return c == InstClass::condBranch || c == InstClass::uncondBranch ||
           c == InstClass::call || c == InstClass::ret;
}

} // namespace

void
replayRun(const RunConfig &cfg, const RunSpans &spans,
          ReplayTotals &t)
{
    const unsigned cores = cfg.fabric.active() ? cfg.fabric.cores : 1;
    const BenchmarkProfile &profile = findBenchmark(cfg.benchmark);
    std::vector<GenInst> stream(cfg.instructions);

    for (unsigned c = 0; c < cores; ++c) {
        // Core c of a fabric runs the workload seeded cfg.seed + c
        // (fabric/system.cc); a single core runs cfg.seed.
        Clock::time_point t0 = Clock::now();
        StreamGenerator gen(profile, cfg.seed + c);
        t.genBuildS += since(t0);
        t0 = Clock::now();
        for (GenInst &inst : stream)
            inst = gen.next();
        t.genNextS += since(t0);
        t.genInsts += stream.size();

        BranchUnit bu(cfg.proc.core.bpred);
        t0 = Clock::now();
        for (const GenInst &inst : stream) {
            if (!isBranch(inst.cls))
                continue;
            const BranchPrediction p = bu.predict(inst.pc, inst.cls);
            bu.update(inst.pc, inst.cls, inst.taken, inst.target);
            t.sink += p.target & 1;
            ++t.branches;
        }
        t.bpredS += since(t0);
        t.sink += static_cast<double>(bu.dirCorrect());

        CacheHierarchy hier(cfg.proc.core.caches);
        const std::uint64_t line = hier.config().lineBytes;
        std::uint64_t lastLine = ~std::uint64_t(0);
        t0 = Clock::now();
        for (const GenInst &inst : stream) {
            // Fetch touches the I-cache once per distinct line.
            if (inst.pc / line != lastLine) {
                lastLine = inst.pc / line;
                t.sink += hier.instFetch(inst.pc).level;
                ++t.cacheAccesses;
            }
            if (inst.cls == InstClass::load ||
                inst.cls == InstClass::store) {
                t.sink += hier.dataAccess(inst.memAddr,
                                          inst.cls == InstClass::store)
                              .level;
                ++t.cacheAccesses;
            }
        }
        t.cacheS += since(t0);

        // One domainCycle() per clock edge the core's run took, with
        // the domains interleaved as their edges are.
        const PowerModel model(cfg.proc.core, cfg.proc.tech,
                               cfg.proc.clocks);
        EnergyAccount energy(model);
        const PerDomain<std::uint64_t> &edges = spans.domainEdges[c];
        const PerDomain<double> &vdd = spans.domainVdd[c];
        const std::uint64_t most =
            *std::max_element(edges.begin(), edges.end());
        t0 = Clock::now();
        for (std::uint64_t i = 0; i < most; ++i)
            for (unsigned d = 0; d < numDomains; ++d)
                if (i < edges[d])
                    energy.domainCycle(static_cast<DomainId>(d), vdd[d]);
        t.powerS += since(t0);
        for (unsigned d = 0; d < numDomains; ++d)
            t.domainCycles += edges[d];
        t.sink += energy.totalNj();
    }
}

} // namespace perfbench
