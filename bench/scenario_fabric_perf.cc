/**
 * @file
 * Fabric extension: GALS-vs-base performance as the paper pipeline is
 * replicated into an N-core GALS fabric (fabric/system.hh).
 *
 * The grid crosses the benchmark sweep with the --cores / --topology /
 * --traffic axes (defaults: 1 and 4 cores, ring, uniform). Core-count
 * 1 points carry no fabric at all — they are bit-identical to the
 * fig05 grid, so `--scenario fabric_perf --cores 1` reproduces the
 * paper's single-core numbers record for record.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "bench/register_all.hh"
#include "fabric/fabric_config.hh"

namespace gals::bench
{

using namespace gals::runner;

namespace
{

/** One grid point of the fabric sweep (the label for pair i). */
struct FabricPoint
{
    unsigned cores;
    std::string topology;
    std::string traffic;
    std::string benchmark;
};

/** The shared grid walk: makeRuns() and reduce() must agree on the
 *  point order, so both derive it from this single expansion. At
 *  cores == 1 the topology/traffic axes collapse (a single core has
 *  no fabric to shape), keeping the 1-core slice identical to the
 *  single-core scenarios. */
std::vector<FabricPoint>
fabricPerfPoints(const SweepOptions &opts)
{
    std::vector<FabricPoint> points;
    for (unsigned c : opts.coreSet({1, 4})) {
        for (const std::string &topo : opts.topologySet({"ring"})) {
            for (const std::string &traffic :
                 opts.trafficSet({"uniform"})) {
                for (const std::string &name : opts.benchmarkSet())
                    points.push_back({c, topo, traffic, name});
                if (c == 1)
                    break;
            }
            if (c == 1)
                break;
        }
    }
    return points;
}

void
applyFabric(RunConfig &cfg, const FabricPoint &p)
{
    if (p.cores <= 1)
        return;
    cfg.fabric.cores = p.cores;
    parseTopologyKind(p.topology, cfg.fabric.topology);
    cfg.fabric.traffic = p.traffic;
}

} // namespace

Scenario
fabricPerfScenario()
{
    Scenario s;
    s.name = "fabric_perf";
    s.figure = "Fabric ext.";
    s.description =
        "GALS vs base across an N-core fabric (cores x topology x "
        "traffic)";

    s.readsFabricAxes = true;
    s.makeRuns = [](const SweepOptions &opts) {
        std::vector<RunConfig> runs;
        for (const FabricPoint &p : fabricPerfPoints(opts)) {
            const std::size_t at = runs.size();
            appendPair(runs, p.benchmark, opts.instructions,
                       DvfsSetting(), opts.seed);
            for (std::size_t k = at; k < runs.size(); ++k)
                applyFabric(runs[k], p);
        }
        return runs;
    };

    s.reduce = [](const SweepOptions &opts, const SweepView &sweep) {
        const std::vector<RunResults> &results = sweep.runs;
        figureHeader("Fabric extension",
                     "GALS vs base across the N-core fabric", opts);

        const std::vector<FabricPoint> points =
            fabricPerfPoints(opts);
        std::printf("%-10s %5s %-7s %-12s %9s %9s %9s %9s\n",
                    "benchmark", "cores", "topo", "traffic",
                    "base IPC", "gals IPC", "rel perf", "lat(cyc)");

        MeanTracker single, multi;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const FabricPoint &p = points[i];
            const PairResults pr = pairAt(results, i);
            const double rel =
                pr.base.ipcNominal > 0.0
                    ? pr.galsRun.ipcNominal / pr.base.ipcNominal
                    : 0.0;
            // Fabric round-trip latency, averaged over the GALS
            // run's cores (0 when the point has no fabric).
            double lat = 0.0;
            for (const CoreResults &c : pr.galsRun.cores)
                lat += c.avgRemoteLatencyCycles;
            if (!pr.galsRun.cores.empty())
                lat /= double(pr.galsRun.cores.size());
            std::printf("%-10s %5u %-7s %-12s %9.3f %9.3f %9.3f "
                        "%9.1f\n",
                        p.benchmark.c_str(), p.cores,
                        p.cores > 1 ? p.topology.c_str() : "-",
                        p.cores > 1 ? p.traffic.c_str() : "-",
                        pr.base.ipcNominal, pr.galsRun.ipcNominal,
                        rel, lat);
            if (rel > 0.0)
                (p.cores > 1 ? multi : single).add(rel);
        }
        std::printf("\nGEOMEAN rel perf: single-core %.3f, "
                    "multi-core %.3f\n",
                    single.mean(), multi.mean());
        std::printf("(single-core points reproduce fig05; the "
                    "multi-core delta is the fabric's added "
                    "synchronization cost)\n");
    };

    return s;
}

} // namespace gals::bench
