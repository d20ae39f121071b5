/**
 * @file
 * Fabric extension: topology x traffic-matrix sensitivity of the
 * GALS fabric at a fixed core count (default 8 cores, gcc).
 *
 * Every point is one GALS run; the table compares ring vs 2D-mesh
 * routing under the four traffic matrices (permutation, uniform,
 * incast, hotspot) on per-core IPC, fabric round-trip latency and
 * remote-window stalls.
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

struct TopoPoint
{
    unsigned cores;
    std::string topology;
    std::string traffic;
};

std::vector<TopoPoint>
fabricTopoPoints(const SweepOptions &opts)
{
    std::vector<TopoPoint> points;
    for (unsigned c : opts.coreSet({8})) {
        for (const std::string &topo :
             opts.topologySet({"ring", "mesh2d"})) {
            for (const std::string &traffic : opts.trafficSet(
                     {"permutation", "uniform", "incast", "hotspot"})) {
                points.push_back({c, topo, traffic});
                if (c == 1)
                    break;
            }
            if (c == 1)
                break;
        }
    }
    return points;
}

} // namespace

Scenario
fabricTopoScenario()
{
    Scenario s;
    s.name = "fabric_topo";
    s.figure = "Fabric ext.";
    s.description =
        "Topology x traffic-matrix sensitivity of the GALS fabric";

    s.readsFabricAxes = true;
    s.makeRuns = [](const SweepOptions &opts) {
        std::vector<RunConfig> runs;
        const std::string bench = primaryBenchmark(opts, "gcc");
        for (const TopoPoint &p : fabricTopoPoints(opts)) {
            RunConfig cfg;
            cfg.benchmark = bench;
            cfg.instructions = opts.instructions;
            cfg.gals = true;
            cfg.seed = opts.seed;
            if (p.cores > 1) {
                cfg.fabric.cores = p.cores;
                parseTopologyKind(p.topology, cfg.fabric.topology);
                cfg.fabric.traffic = p.traffic;
            }
            runs.push_back(cfg);
        }
        return runs;
    };

    s.reduce = [](const SweepOptions &opts, const SweepView &sweep) {
        const std::vector<RunResults> &results = sweep.runs;
        figureHeader("Fabric extension",
                     "topology x traffic sensitivity (GALS)", opts);

        const std::vector<TopoPoint> points = fabricTopoPoints(opts);
        std::printf("%5s %-7s %-12s %9s %9s %10s %12s\n", "cores",
                    "topo", "traffic", "IPC", "lat(cyc)",
                    "rem.stall", "energy (J)");
        for (std::size_t i = 0;
             i < points.size() && i < results.size(); ++i) {
            const TopoPoint &p = points[i];
            const RunResults &r = results[i];
            double lat = 0.0;
            std::uint64_t stalls = 0;
            for (const CoreResults &c : r.cores) {
                lat += c.avgRemoteLatencyCycles;
                stalls += c.remoteStallCycles;
            }
            if (!r.cores.empty())
                lat /= double(r.cores.size());
            std::printf("%5u %-7s %-12s %9.3f %9.1f %10llu %12.4e\n",
                        p.cores, p.topology.c_str(),
                        p.traffic.c_str(), r.ipcNominal, lat,
                        static_cast<unsigned long long>(stalls),
                        r.energyJ);
        }
        std::printf("\n(lat = mean fabric round-trip latency in "
                    "nominal cycles; rem.stall = fetch cycles lost "
                    "to the remote-completion window)\n");
    };

    return s;
}

} // namespace gals::bench
