/**
 * @file
 * Fabric extension: the CI smoke point — one base/GALS pair on a
 * 4-core ring with uniform traffic. Small enough for the sharded CI
 * matrix, yet it exercises every fabric layer: System, topology
 * generation, NIC injection/reply, link clock domains and the
 * per-core metrics plumbing.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "bench/register_all.hh"
#include "fabric/fabric_config.hh"

namespace gals::bench
{

using namespace gals::runner;

Scenario
fabricSmokeScenario()
{
    Scenario s;
    s.name = "fabric_smoke";
    s.figure = "Fabric ext.";
    s.description =
        "CI smoke: base/GALS pair on a 4-core ring, uniform traffic";

    s.readsFabricAxes = true;
    s.makeRuns = [](const SweepOptions &opts) {
        std::vector<RunConfig> runs;
        const std::string bench = primaryBenchmark(opts, "gcc");
        for (unsigned c : opts.coreSet({4})) {
            for (const std::string &topo :
                 opts.topologySet({"ring"})) {
                for (const std::string &traffic :
                     opts.trafficSet({"uniform"})) {
                    const std::size_t at = runs.size();
                    appendPair(runs, bench, opts.instructions,
                               DvfsSetting(), opts.seed);
                    for (std::size_t k = at; k < runs.size(); ++k) {
                        if (c <= 1)
                            continue;
                        runs[k].fabric.cores = c;
                        parseTopologyKind(topo,
                                          runs[k].fabric.topology);
                        runs[k].fabric.traffic = traffic;
                    }
                    if (c == 1)
                        break;
                }
                if (c == 1)
                    break;
            }
        }
        return runs;
    };

    s.reduce = [](const SweepOptions &opts, const SweepView &sweep) {
        const std::vector<RunResults> &results = sweep.runs;
        figureHeader("Fabric extension", "4-core ring smoke pair",
                     opts);
        for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
            const RunResults &base = results[i];
            const RunResults &galsRun = results[i + 1];
            std::printf("%-10s base IPC %7.3f  gals IPC %7.3f  "
                        "rel %6.3f  cores %zu\n",
                        base.benchmark.c_str(), base.ipcNominal,
                        galsRun.ipcNominal,
                        base.ipcNominal > 0.0
                            ? galsRun.ipcNominal / base.ipcNominal
                            : 0.0,
                        galsRun.cores.empty() ? 1
                                              : galsRun.cores.size());
            for (const CoreResults &c : galsRun.cores)
                std::printf("  core %u: committed %llu  IPC %6.3f  "
                            "msgs %llu/%llu  lat %6.1f cyc\n",
                            c.core,
                            static_cast<unsigned long long>(
                                c.committed),
                            c.ipcNominal,
                            static_cast<unsigned long long>(
                                c.msgsSent),
                            static_cast<unsigned long long>(
                                c.msgsReceived),
                            c.avgRemoteLatencyCycles);
        }
    };

    return s;
}

} // namespace gals::bench
