/**
 * @file
 * Paper Figure 6: average slip — the fetch-to-commit latency of each
 * committed instruction — in the base and GALS designs.
 *
 * Paper result: slip increases by ~65% on average in the GALS
 * processor, because the asynchronous channels lengthen the effective
 * pipeline. (Our base machine carries more queueing than the paper's,
 * so part of the FIFO latency hides under existing queue wait; the
 * measured growth is smaller — see the "Close the slip gap" item in
 * ROADMAP.md.)
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "bench/register_all.hh"

namespace gals::bench
{

using namespace gals::runner;

Scenario
fig06Scenario()
{
    Scenario s;
    s.name = "fig06";
    s.figure = "Figure 6";
    s.description =
        "average instruction slip (fetch -> commit), base vs GALS";

    s.makeRuns = [](const SweepOptions &opts) {
        std::vector<RunConfig> runs;
        for (const auto &name : opts.benchmarkSet())
            appendPair(runs, name, opts.instructions, DvfsSetting(),
                       opts.seed);
        return runs;
    };

    s.reduce = [](const SweepOptions &opts, const SweepView &sweep) {
        const std::vector<RunResults> &results = sweep.runs;
        figureHeader("Figure 6",
                     "average instruction slip (fetch -> commit), "
                     "cycles",
                     opts);

        const auto names = opts.benchmarkSet();
        std::printf("%-10s %12s %12s %10s\n", "benchmark", "base slip",
                    "gals slip", "ratio");

        MeanTracker ratio;
        for (std::size_t i = 0; i < names.size(); ++i) {
            const PairResults pr = pairAt(results, i);
            std::printf("%-10s %12.1f %12.1f %10.2f\n",
                        names[i].c_str(), pr.base.avgSlipCycles,
                        pr.galsRun.avgSlipCycles, pr.slipRatio());
            ratio.add(pr.slipRatio());
        }
        std::printf("%-10s %12s %12s %10.2f\n", "GEOMEAN", "", "",
                    ratio.mean());
        std::printf("\npaper: slip grows ~65%% in GALS; measured "
                    "growth: %.1f%%\n",
                    100.0 * (ratio.mean() - 1.0));
    };

    return s;
}

} // namespace gals::bench
