#include "runner/reporter.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "runner/scenario.hh"
#include "runner/stats.hh"
#include "sim/logging.hh"

namespace gals::runner
{

namespace
{

/** Round-trip-exact rendering of a finite double (%.17g). */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
}

/** JSON number token: `null` for NaN/infinity, which %.17g would
 *  render as the invalid bare tokens `nan` / `inf`. */
std::string
jsonNum(double v)
{
    return std::isfinite(v) ? num(v) : "null";
}

/** CSV number field: empty for NaN/infinity (the conventional
 *  missing-value encoding). */
std::string
csvNum(double v)
{
    return std::isfinite(v) ? num(v) : std::string();
}

/** One metric rendered for a per-run record: integral columns print
 *  their exact uint64 value, doubles round-trip exact with
 *  non-finite mapped per format. */
std::string
metricValue(const MetricAccessor &acc, const RunResults &r, bool json)
{
    if (acc.integral)
        return num(acc.getU(r));
    const double v = acc.get(r);
    return json ? jsonNum(v) : csvNum(v);
}

void
checkSizes(const std::vector<RunConfig> &cfgs,
           const std::vector<RunResults> &results,
           const std::vector<std::size_t> *indices)
{
    gals_assert(cfgs.size() == results.size(),
                "reporter: ", cfgs.size(), " configs vs ",
                results.size(), " results");
    gals_assert(!indices || indices->size() == results.size(),
                "reporter: ", indices->size(), " indices vs ",
                results.size(), " results");
}

std::size_t
recordIndex(const std::vector<std::size_t> *indices, std::size_t i)
{
    return indices ? (*indices)[i] : i;
}

} // namespace

OutputFormat
parseOutputFormat(const std::string &name)
{
    if (name == "table")
        return OutputFormat::table;
    if (name == "json")
        return OutputFormat::json;
    if (name == "csv")
        return OutputFormat::csv;
    if (name == "md" || name == "markdown")
        return OutputFormat::markdown;
    gals_fatal("unknown output format '", name,
               "' (expected table, json, csv or md)");
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
writeJsonLines(std::ostream &os, const std::string &scenario,
               const std::vector<RunConfig> &cfgs,
               const std::vector<RunResults> &results,
               const std::vector<std::size_t> *indices)
{
    checkSizes(cfgs, results, indices);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunConfig &c = cfgs[i];
        const RunResults &r = results[i];
        os << "{\"scenario\":" << jsonQuote(scenario)
           << ",\"index\":" << recordIndex(indices, i)
           << ",\"benchmark\":" << jsonQuote(r.benchmark)
           << ",\"gals\":" << (r.gals ? "true" : "false")
           << ",\"dynamic_dvfs\":" << (c.dynamicDvfs ? "true" : "false")
           << ",\"instructions\":" << num(c.instructions)
           << ",\"seed\":" << num(c.seed)
           << ",\"phase_seed\":" << num(effectivePhaseSeed(c));
        // Warmup split only when one was requested: pre-warmup
        // records keep their exact bytes.
        if (c.warmupInstructions > 0)
            os << ",\"warmup_insts\":" << num(c.warmupInstructions);
        // Fabric axes only for fabric runs: pre-fabric records (and
        // N=1 fabric-scenario records) keep their exact bytes.
        if (c.fabric.active())
            os << ",\"cores\":" << c.fabric.cores << ",\"topology\":"
               << jsonQuote(topologyKindName(c.fabric.topology))
               << ",\"traffic\":" << jsonQuote(c.fabric.traffic);
        for (const MetricAccessor &acc : metricAccessors())
            os << ",\"" << acc.name
               << "\":" << metricValue(acc, r, true);
        os << ",\"energy_nj\":{";
        bool first = true;
        for (const auto &[unit, nj] : r.unitEnergyNj) {
            if (!first)
                os << ",";
            first = false;
            os << jsonQuote(unit) << ":" << jsonNum(nj);
        }
        os << "}";
        if (!r.cores.empty()) {
            os << ",\"per_core\":[";
            for (std::size_t k = 0; k < r.cores.size(); ++k) {
                const CoreResults &cr = r.cores[k];
                if (k)
                    os << ",";
                os << "{\"core\":" << cr.core << ",\"committed\":"
                   << num(cr.committed) << ",\"ipc_nominal\":"
                   << jsonNum(cr.ipcNominal) << ",\"energy_j\":"
                   << jsonNum(cr.energyJ) << ",\"fifo_events\":"
                   << num(cr.fifoEvents) << ",\"msgs_sent\":"
                   << num(cr.msgsSent) << ",\"msgs_received\":"
                   << num(cr.msgsReceived)
                   << ",\"remote_stall_cycles\":"
                   << num(cr.remoteStallCycles)
                   << ",\"avg_remote_latency_cycles\":"
                   << jsonNum(cr.avgRemoteLatencyCycles) << "}";
            }
            os << "]";
        }
        // Interval-meter series, gated on the config so the array is
        // present exactly when the meter was requested; unmetered
        // records keep their exact bytes. Only single-core runs are
        // metered (the CLI rejects the meter on fabric grids), so an
        // empty array comes only from an archive written before that
        // rejection.
        if (c.intervalTicks > 0) {
            os << ",\"interval_ticks\":" << num(c.intervalTicks)
               << ",\"intervals\":[";
            for (std::size_t k = 0; k < r.intervals.size(); ++k) {
                const IntervalSample &s = r.intervals[k];
                if (k)
                    os << ",";
                os << "{\"tick\":" << num(s.tick)
                   << ",\"committed\":" << num(s.committed)
                   << ",\"ipc\":" << jsonNum(s.ipc)
                   << ",\"energy_nj\":{";
                for (unsigned d = 0; d < numDomains; ++d)
                    os << (d ? "," : "")
                       << jsonQuote(
                              domainName(static_cast<DomainId>(d)))
                       << ":" << jsonNum(s.energyNj[d]);
                os << "},\"fifo_occ\":" << num(s.fifoOcc) << "}";
            }
            os << "]";
        }
        os << "}\n";
    }
}

void
writeCsvHeader(std::ostream &os, const RunResults &sample)
{
    os << "scenario,index,benchmark,gals,dynamic_dvfs,instructions,"
          "seed,phase_seed";
    for (const MetricAccessor &acc : metricAccessors())
        os << "," << acc.name;
    for (const auto &[unit, nj] : sample.unitEnergyNj)
        os << "," << csvField("energy_nj." + unit);
    os << "\n";
}

void
writeCsvRows(std::ostream &os, const std::string &scenario,
             const std::vector<RunConfig> &cfgs,
             const std::vector<RunResults> &results,
             const std::vector<std::size_t> *indices)
{
    checkSizes(cfgs, results, indices);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunConfig &c = cfgs[i];
        const RunResults &r = results[i];
        os << csvField(scenario) << "," << recordIndex(indices, i)
           << ","
           << csvField(r.benchmark) << "," << (r.gals ? 1 : 0) << ","
           << (c.dynamicDvfs ? 1 : 0) << "," << num(c.instructions)
           << "," << num(c.seed) << ","
           << num(effectivePhaseSeed(c));
        for (const MetricAccessor &acc : metricAccessors())
            os << "," << metricValue(acc, r, false);
        for (const auto &[unit, nj] : r.unitEnergyNj)
            os << "," << csvNum(nj);
        os << "\n";
    }
}

void
writeCsv(std::ostream &os, const std::string &scenario,
         const std::vector<RunConfig> &cfgs,
         const std::vector<RunResults> &results)
{
    checkSizes(cfgs, results, nullptr);
    // Unit-energy columns from the first record; every run reports
    // the same unit set (the Unit enum).
    writeCsvHeader(os, results.empty() ? RunResults() : results.front());
    writeCsvRows(os, scenario, cfgs, results);
}

void
writeJsonLinesSummary(std::ostream &os, const std::string &scenario,
                      const std::vector<RunConfig> &gridCfgs,
                      const ReplicaSummary &summary)
{
    gals_assert(gridCfgs.size() == summary.gridSize,
                "summary reporter: ", gridCfgs.size(),
                " grid configs vs grid size ", summary.gridSize);
    const auto &accessors = metricAccessors();
    for (std::size_t g = 0; g < summary.gridSize; ++g) {
        const RunConfig &c = gridCfgs[g];
        const RunResults &r = summary.mean[g];
        os << "{\"scenario\":" << jsonQuote(scenario)
           << ",\"index\":" << g
           << ",\"benchmark\":" << jsonQuote(r.benchmark)
           << ",\"gals\":" << (r.gals ? "true" : "false")
           << ",\"dynamic_dvfs\":" << (c.dynamicDvfs ? "true" : "false")
           << ",\"instructions\":" << num(c.instructions)
           << ",\"replicas\":" << summary.replicas;
        for (std::size_t m = 0; m < accessors.size(); ++m) {
            const MetricSummary &s = summary.metrics[g][m];
            os << ",\"" << accessors[m].name
               << "\":" << jsonNum(s.mean) << ",\""
               << accessors[m].name << "_ci95\":" << jsonNum(s.ci95);
        }
        os << ",\"energy_nj\":{";
        bool first = true;
        for (const auto &[unit, nj] : r.unitEnergyNj) {
            if (!first)
                os << ",";
            first = false;
            os << jsonQuote(unit) << ":" << jsonNum(nj);
        }
        os << "}}\n";
    }
}

void
writeCsvSummary(std::ostream &os, const std::string &scenario,
                const std::vector<RunConfig> &gridCfgs,
                const ReplicaSummary &summary)
{
    gals_assert(gridCfgs.size() == summary.gridSize,
                "summary reporter: ", gridCfgs.size(),
                " grid configs vs grid size ", summary.gridSize);
    const auto &accessors = metricAccessors();

    os << "scenario,index,benchmark,gals,dynamic_dvfs,instructions,"
          "replicas";
    for (const MetricAccessor &acc : accessors)
        os << "," << acc.name << "," << acc.name << "_ci95";
    if (!summary.mean.empty())
        for (const auto &[unit, nj] : summary.mean.front().unitEnergyNj)
            os << "," << csvField("energy_nj." + unit);
    os << "\n";

    for (std::size_t g = 0; g < summary.gridSize; ++g) {
        const RunConfig &c = gridCfgs[g];
        const RunResults &r = summary.mean[g];
        os << csvField(scenario) << "," << g << ","
           << csvField(r.benchmark) << "," << (r.gals ? 1 : 0) << ","
           << (c.dynamicDvfs ? 1 : 0) << "," << num(c.instructions)
           << "," << summary.replicas;
        for (std::size_t m = 0; m < accessors.size(); ++m) {
            const MetricSummary &s = summary.metrics[g][m];
            os << "," << csvNum(s.mean) << "," << csvNum(s.ci95);
        }
        for (const auto &[unit, nj] : r.unitEnergyNj)
            os << "," << csvNum(nj);
        os << "\n";
    }
}

void
writeScenarioCatalogMarkdown(std::ostream &os,
                             const ScenarioRegistry &registry,
                             const SweepOptions &opts)
{
    os << "# Scenario catalog\n"
       << "\n"
       << "<!-- Generated by `galsbench --list --format md`. Do not "
          "edit by hand:\n"
          "     CI regenerates this file and fails on drift. -->\n"
       << "\n"
       << "Every paper figure, ablation and sweep is a registered "
          "scenario of the\n"
          "`galsbench` CLI. Run one with `galsbench --scenario "
          "<name>`; the *runs*\n"
          "column is the grid size at default sweep options ("
       << num(opts.instructions) << " instructions\nper run).\n"
       << "\n"
       << "| name | reference | description | runs | insts/run |\n"
       << "|---|---|---|---:|---:|\n";
    for (const Scenario &s : registry.all()) {
        const std::size_t runs =
            s.makeRuns ? s.makeRuns(opts).size() : 0;
        os << "| `" << s.name << "` | " << s.figure << " | "
           << s.description << " | " << runs << " | "
           << (runs == 0 ? std::string("-") : num(opts.instructions))
           << " |\n";
    }
}

} // namespace gals::runner
