/**
 * @file
 * galsperf: the galssim benchmark program.
 *
 *   galsperf --workload fig05|dvfs_warm|fabric_topo --seed N
 *                    --seconds S --trace 0|1 [--insts N]
 *
 * Builds the workload's grid from the repo's own scenario
 * registrations, runs one untimed reference pass through
 * gals::runOne(), then times whole passes until S seconds have been
 * measured. Every run of every pass is checked against its reference
 * record. The last stdout line is one JSON object: end-to-end metrics
 * with --trace 0, per-layer metrics with --trace 1 (see NOTES.md).
 * --insts overrides every per-run instruction budget (self-test).
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/register_all.hh"
#include "core/snapshot.hh"
#include "perfbench/calibrate.hh"
#include "perfbench/machine.hh"
#include "perfbench/replay.hh"
#include "runner/engine.hh"
#include "runner/gtrj.hh"
#include "runner/reporter.hh"
#include "runner/scenario.hh"

namespace perfbench
{
namespace
{

using namespace gals;
using namespace gals::runner;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Paper reference values (NOTES.md cites their sources). */
constexpr double paperSlowdownPct = 10.0;
constexpr double paperSlipGrowthPct = 65.0;
constexpr double paperPowerChangePct = -10.0;

/** The paper-error grids: the repo's default fig05 sweep (seed 0,
 *  50K instructions) and one held-out seed never used for tuning. */
constexpr std::uint64_t defaultPaperSeed = 0;
constexpr std::uint64_t heldOutPaperSeed = 2002;
constexpr std::uint64_t paperInstructions = 50000;

/** Minimum timed passes per run, whatever --seconds says. */
constexpr unsigned minPasses = 3;

/** Workers of the paper grids, which run after peak_rss_mb is read.
 *  Their records do not depend on the worker count. */
unsigned
paperJobs()
{
    return std::min(4u, ExperimentEngine::hardwareJobs());
}

/** One benchmark workload: a registered scenario swept with fixed
 *  options on @ref jobs engine workers (1 = serial). */
struct Workload
{
    std::string scenario;
    SweepOptions opts;
    unsigned jobs = 1;
};

bool
makeWorkload(const std::string &name, std::uint64_t seed,
             std::uint64_t insts, Workload &w)
{
    w.opts.seed = seed;
    if (name == "fig05") {
        w.scenario = "fig05";
        w.opts.instructions = insts ? insts : 50000;
    } else if (name == "dvfs_warm") {
        w.scenario = "dvfs-explorer";
        w.opts.instructions = insts ? insts : 40000;
        w.opts.warmupInstructions = w.opts.instructions / 2;
        w.opts.intervalTicks = 1000000;
        w.opts.seedReplicas = 4;
        w.jobs = 2;
    } else if (name == "fabric_topo") {
        w.scenario = "fabric_topo";
        w.opts.instructions = insts ? insts : 20000;
    } else {
        return false;
    }
    return true;
}

double
sumOf(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

/** Everything one pass produced. */
struct Pass
{
    bool traced = false;
    double wallS = 0;   ///< grid expansion + every run + encoding
    double expandS = 0; ///< grid expansion
    double taskWallS = 0; ///< first task start to last task end
    std::vector<RunConfig> cfgs;
    std::vector<RunResults> results;
    std::vector<RunSpans> spans;
    std::vector<std::string> frames;
    std::vector<double> taskS;
    std::vector<double> encodeS;
    std::vector<double> calS; ///< calibration rep before each run
};

Pass
runPass(const Scenario &scn, const Workload &w, bool traced)
{
    Pass p;
    p.traced = traced;
    // Every pass produces its own warm state.
    clearSnapshotCache();

    const Clock::time_point t0 = Clock::now();
    p.cfgs = expandReplicatedRuns(scn, w.opts, nullptr);
    p.expandS = since(t0);

    const std::size_t n = p.cfgs.size();
    p.results.resize(n);
    p.spans.resize(n);
    p.frames.resize(n);
    p.taskS.resize(n);
    p.encodeS.resize(n);
    // An untraced run is preceded, on its own worker, by one
    // calibration rep, which times the host's speed at that moment.
    if (!traced)
        p.calS.resize(n);
    auto task = [&](std::size_t i) {
        if (!traced)
            p.calS[i] = calibrationRepS();
        const Clock::time_point s = Clock::now();
        p.results[i] = runMachine(p.cfgs[i], traced, p.spans[i]);
        const Clock::time_point e = Clock::now();
        p.frames[i] = gtrj::encodeRecord(scn.name, i, p.cfgs[i],
                                         p.results[i]);
        p.encodeS[i] = since(e);
        p.taskS[i] = since(s);
    };

    const Clock::time_point tt = Clock::now();
    ExperimentEngine(w.jobs).runIndexed(n, task);
    p.taskWallS = since(tt);
    // The reps are not part of the pass; they are shared evenly
    // among the workers.
    p.wallS = since(t0) - sumOf(p.calS) / w.jobs;
    return p;
}

std::string
jsonLine(const std::string &scenario, std::size_t index,
         const RunConfig &cfg, const RunResults &r)
{
    std::ostringstream os;
    const std::vector<std::size_t> idx{index};
    writeJsonLines(os, scenario, {cfg}, {r}, &idx);
    return os.str();
}

/** Correctness of one run apart from reference equality: it
 *  committed its budget (per core on a fabric), and its gtrj frame
 *  decodes back to the record its JSON line shows. */
bool
runIsSound(const std::string &scenario, std::size_t index,
           const RunConfig &cfg, const RunResults &r,
           const std::string &frame, std::string &why)
{
    if (cfg.fabric.active()) {
        bool ok = r.cores.size() == cfg.fabric.cores;
        for (const CoreResults &c : r.cores)
            ok = ok && c.committed == cfg.instructions;
        if (!ok) {
            why = "a core did not commit its budget";
            return false;
        }
    } else if (r.committed !=
               cfg.instructions - cfg.warmupInstructions) {
        why = "committed " + std::to_string(r.committed) +
              " instructions, budget " +
              std::to_string(cfg.instructions -
                             cfg.warmupInstructions);
        return false;
    }

    std::string_view buf(frame);
    std::size_t pos = 0;
    std::string_view payload;
    std::string err;
    gtrj::DecodedRecord d;
    if (gtrj::nextFrame(buf, pos, payload, err) !=
            gtrj::FrameStatus::ok ||
        pos != buf.size() || !gtrj::decodePayload(payload, d, err)) {
        why = "gtrj frame does not decode: " + err;
        return false;
    }
    if (jsonLine(d.scenario, d.index, d.cfg, d.results) !=
        jsonLine(scenario, index, cfg, r)) {
        why = "decoded gtrj frame differs from the JSON record";
        return false;
    }
    return true;
}

/** Run counts of the correctness gate. */
struct Gate
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(bool ok, const std::string &what, const std::string &why)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: FAILED %s: %s\n",
                         what.c_str(), why.c_str());
        }
    }
};

void
gatePass(Gate &gate, const std::string &scenario, const Pass &p,
         const std::vector<std::string> &ref)
{
    for (std::size_t i = 0; i < p.cfgs.size(); ++i) {
        std::string why;
        bool ok = runIsSound(scenario, i, p.cfgs[i], p.results[i],
                             p.frames[i], why);
        if (ok && (i >= ref.size() || p.frames[i] != ref[i])) {
            ok = false;
            why = std::string(p.traced ? "traced" : "untraced") +
                  " record differs from runOne()";
        }
        gate.check(ok, scenario + "[" + std::to_string(i) + "]", why);
    }
}

/** Run @p cfgs through gals::runOne() on @p jobs engine workers,
 *  check every run, and return the records. */
std::vector<std::string>
runReference(const std::string &scenario,
             const std::vector<RunConfig> &cfgs, unsigned jobs,
             std::vector<RunResults> &results, Gate &gate,
             const std::string &label)
{
    results = ExperimentEngine(jobs).run(cfgs);
    std::vector<std::string> frames;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        frames.push_back(
            gtrj::encodeRecord(scenario, i, cfgs[i], results[i]));
        std::string why;
        gate.check(runIsSound(scenario, i, cfgs[i], results[i],
                              frames.back(), why),
                   label + "[" + std::to_string(i) + "]", why);
    }
    return frames;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** The result line's metrics, in emission order. */
struct Metrics
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> items;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (const Metric &m : items) {
            char num[64];
            const auto res =
                std::to_chars(num, num + sizeof(num), m.value);
            out += (out.size() > 1 ? ", \"" : "\"") + m.name +
                   "\": {\"value\": " + std::string(num, res.ptr) +
                   ", \"unit\": \"" + m.unit + "\"}";
        }
        return out + "}";
    }
};

std::uint64_t
committedOf(const Pass &p)
{
    std::uint64_t c = 0;
    for (const RunResults &r : p.results)
        c += r.committed;
    return c;
}

/** Host seconds the pass spent before simulating. */
double
setupOf(const Pass &p)
{
    double s = p.expandS;
    for (const RunSpans &sp : p.spans)
        s += sp.setupS;
    return s;
}

/** Reference seconds per host second over an untraced pass: each
 *  run's referenceRepS / its calibration rep, weighted by run time. */
double
scaleOf(const Pass &p)
{
    double ref = 0;
    for (std::size_t i = 0; i < p.calS.size(); ++i)
        ref += p.taskS[i] * referenceRepS / p.calS[i];
    return ref / sumOf(p.taskS);
}

/** Paper errors of one fig05 grid: |measured - paper| in pp for the
 *  geomean slowdown, slip growth and power change. */
std::array<double, 3>
paperErrors(const Scenario &fig05, std::uint64_t seed,
            std::uint64_t insts, Gate &gate)
{
    SweepOptions opts;
    opts.seed = seed;
    opts.instructions = insts;
    const std::vector<RunConfig> cfgs =
        expandReplicatedRuns(fig05, opts, nullptr);
    std::vector<RunResults> results;
    runReference(fig05.name, cfgs, paperJobs(), results, gate,
                 "paper grid seed " + std::to_string(seed));

    bench::MeanTracker perf, slip, power;
    for (std::size_t i = 0; i < cfgs.size() / 2; ++i) {
        const PairResults pr = pairAt(results, i);
        perf.add(pr.galsRun.ipcNominal / pr.base.ipcNominal);
        slip.add(pr.slipRatio());
        power.add(pr.powerRatio());
    }
    return {std::fabs(100.0 * (1.0 - perf.mean()) - paperSlowdownPct),
            std::fabs(100.0 * (slip.mean() - 1.0) - paperSlipGrowthPct),
            std::fabs(100.0 * (power.mean() - 1.0) -
                      paperPowerChangePct)};
}

/** Peak resident set of this process (VmHWM). Unlike getrusage's
 *  ru_maxrss it starts afresh at exec, so the launcher's memory does
 *  not count. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** The end-to-end metrics (--trace 0), from each untraced pass's
 *  rate and set-up time. */
void
endToEnd(const std::vector<double> &kips,
         const std::vector<double> &setup, double peakRss,
         const Scenario &fig05, std::uint64_t paperInsts, Gate &gate,
         Metrics &m)
{
    m.add("sim_kips", median(kips), "kinst/s");
    m.add("setup_s", median(setup), "s");
    m.add("peak_rss_mb", peakRss, "MB");

    const auto def = paperErrors(fig05, defaultPaperSeed, paperInsts,
                                 gate);
    const auto held = paperErrors(fig05, heldOutPaperSeed, paperInsts,
                                  gate);
    const char *names[3] = {"perf", "slip", "power"};
    for (unsigned i = 0; i < 3; ++i)
        m.add(std::string("paper_err_") + names[i] + "_pp", def[i], "pp");
    for (unsigned i = 0; i < 3; ++i)
        m.add(std::string("paper_err_") + names[i] + "_pp_heldout",
              held[i], "pp");
}

/** Per-layer values of one traced pass: host times, which vary from
 *  pass to pass, and counters, which do not. */
struct LayerPass
{
    std::array<double, numStages> stageS{};
    double runS = 0, residualS = 0, extractS = 0, finalizeS = 0;
    double acquireS = 0, restoreS = 0, fabricBuildS = 0;
    double busyS = 0, idleS = 0, encodeS = 0;
    ReplayTotals replay;

    std::uint64_t fetched = 0, wrong = 0, committed = 0, fifo = 0;
    std::uint64_t msgs = 0, issued = 0, events = 0, dirC = 0, dirT = 0;
    double latWeighted = 0;
    std::array<std::uint64_t, numStages> ticks{};
    std::array<std::uint64_t, 3> acc{}, miss{};
    std::set<std::uint64_t> stems;
    std::uint64_t acquires = 0, bytes = 0;
};

LayerPass
layerPass(const Pass &p, unsigned jobs)
{
    LayerPass l;
    for (std::size_t i = 0; i < p.cfgs.size(); ++i) {
        const RunResults &r = p.results[i];
        const RunSpans &sp = p.spans[i];
        for (unsigned s = 0; s < numStages; ++s) {
            l.stageS[s] += sp.stageS[s];
            l.ticks[s] += sp.stageTicks[s];
        }
        l.runS += sp.runS;
        l.extractS += sp.extractS;
        l.finalizeS += sp.finalizeS;
        l.acquireS += sp.acquireS;
        l.restoreS += sp.restoreS;
        l.fabricBuildS += sp.fabricBuildS;

        l.fetched += r.fetched;
        l.wrong += r.wrongPathFetched;
        l.committed += r.committed;
        l.fifo += r.fifoEvents;
        for (const CoreResults &c : r.cores) {
            l.msgs += c.msgsSent;
            l.latWeighted += c.avgRemoteLatencyCycles * c.msgsSent;
        }
        l.issued += sp.execIssued;
        l.events += sp.events;
        l.dirC += sp.dirCorrect;
        l.dirT += sp.dirTotal;
        for (unsigned c = 0; c < 3; ++c) {
            l.acc[c] += sp.cacheAccesses[c];
            l.miss[c] += sp.cacheMisses[c];
        }
        if (sp.warmKey != 0) {
            l.stems.insert(sp.warmKey);
            ++l.acquires;
        }
        l.bytes += p.frames[i].size();
        replayRun(p.cfgs[i], sp, l.replay);
    }
    l.residualS = l.runS;
    for (double s : l.stageS)
        l.residualS -= s;
    l.busyS = sumOf(p.taskS);
    l.idleS = std::max(0.0, jobs * p.taskWallS - l.busyS);
    l.encodeS = sumOf(p.encodeS);
    return l;
}

/** The per-layer metrics (--trace 1): host times are medians over
 *  the traced passes; counters are deterministic, so any pass's do. */
void
perLayer(const std::vector<LayerPass> &layers,
         const std::vector<double> &tracedWall,
         const std::vector<double> &plainWall, Metrics &m)
{
    auto med = [&layers](const std::function<double(const LayerPass &)>
                             &f) {
        std::vector<double> v;
        for (const LayerPass &l : layers)
            v.push_back(f(l));
        return median(v);
    };
    const LayerPass &c = layers.back();

    const double residual = med([](auto &l) { return l.residualS; });
    m.add("workload.build_s", med([](auto &l) { return l.replay.genBuildS; }), "s");
    m.add("workload.next_ns", med([](auto &l) {
              return 1e9 * ratio(l.replay.genNextS, l.replay.genInsts);
          }), "ns");
    m.add("cpu.fetch.self_s", med([](auto &l) { return l.stageS[stFetch]; }), "s");
    m.add("cpu.fetch.ticks", c.ticks[stFetch], "count");
    m.add("cpu.fetch.useful_ratio", 1.0 - ratio(c.wrong, c.fetched), "ratio");
    m.add("cpu.decode.self_s", med([](auto &l) { return l.stageS[stDecode]; }), "s");
    m.add("cpu.decode.ticks", c.ticks[stDecode], "count");
    m.add("cpu.decode.committed", c.committed, "count");
    m.add("cpu.exec.int.self_s", med([](auto &l) { return l.stageS[stInt]; }), "s");
    m.add("cpu.exec.fp.self_s", med([](auto &l) { return l.stageS[stFp]; }), "s");
    m.add("cpu.exec.mem.self_s", med([](auto &l) { return l.stageS[stMem]; }), "s");
    m.add("cpu.exec.ticks", c.ticks[stInt] + c.ticks[stFp] + c.ticks[stMem], "count");
    m.add("cpu.exec.issued", c.issued, "count");
    m.add("bpred.ns_per_branch", med([](auto &l) {
              return 1e9 * ratio(l.replay.bpredS, l.replay.branches);
          }), "ns");
    m.add("bpred.dir_accuracy", ratio(c.dirC, c.dirT), "ratio");
    m.add("cache.ns_per_access", med([](auto &l) {
              return 1e9 * ratio(l.replay.cacheS, l.replay.cacheAccesses);
          }), "ns");
    m.add("cache.il1.miss_rate", ratio(c.miss[0], c.acc[0]), "ratio");
    m.add("cache.dl1.miss_rate", ratio(c.miss[1], c.acc[1]), "ratio");
    m.add("cache.l2.miss_rate", ratio(c.miss[2], c.acc[2]), "ratio");
    m.add("core.channel.events", c.fifo, "count");
    m.add("sim.events", c.events, "count");
    m.add("sim.residual_s", residual, "s");
    m.add("sim.residual_ns_per_event", 1e9 * ratio(residual, c.events), "ns");
    m.add("power.domain_cycle_ns", med([](auto &l) {
              return 1e9 * ratio(l.replay.powerS, l.replay.domainCycles);
          }), "ns");
    m.add("power.finalize_s", med([](auto &l) { return l.finalizeS; }), "s");
    m.add("core.snapshot.acquire_s", med([](auto &l) { return l.acquireS; }), "s");
    m.add("core.snapshot.restore_s", med([](auto &l) { return l.restoreS; }), "s");
    m.add("core.snapshot.stems", c.stems.size(), "count");
    m.add("core.snapshot.acquires", c.acquires, "count");
    m.add("core.experiment.extract_s", med([](auto &l) { return l.extractS; }), "s");
    m.add("runner.engine.busy_s", med([](auto &l) { return l.busyS; }), "s");
    m.add("runner.engine.idle_s", med([](auto &l) { return l.idleS; }), "s");
    m.add("runner.record.encode_s", med([](auto &l) { return l.encodeS; }), "s");
    m.add("runner.record.bytes", c.bytes, "bytes");
    m.add("fabric.build_s", med([](auto &l) { return l.fabricBuildS; }), "s");
    m.add("fabric.msgs", c.msgs, "count");
    m.add("fabric.remote_latency_cycles", ratio(c.latWeighted, c.msgs), "cycles");
    m.add("trace.overhead_ratio", ratio(median(tracedWall), median(plainWall)),
          "ratio");

    // Each stage's share of run time, for a reader of the log.
    const double run = med([](auto &l) { return l.runS; });
    const char *stageNames[numStages] = {"fetch", "decode/commit", "int",
                                         "fp", "mem"};
    std::fprintf(stderr, "perfbench: layer shares of run time (%.3f s "
                         "per traced pass):\n", run);
    for (unsigned s = 0; s < numStages; ++s)
        std::fprintf(stderr, "  %-14s %5.1f%%\n", stageNames[s],
                     100.0 * ratio(med([s](auto &l) { return l.stageS[s]; }),
                                   run));
    std::fprintf(stderr, "  %-14s %5.1f%%\n", "residual",
                 100.0 * ratio(residual, run));
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: galsperf --workload "
                 "fig05|dvfs_warm|fabric_topo --seed N --seconds S "
                 "--trace 0|1 [--insts N]\n");
    return 2;
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    const char *end = s + std::strlen(s);
    const auto res = std::from_chars(s, end, out);
    return res.ec == std::errc() && res.ptr == end && end != s;
}

int
run(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0, seconds = 0, trace = 2, insts = 0;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        bool ok = true;
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            ok = haveSeed = parseU64(v, seed);
        else if (a == "--seconds")
            ok = parseU64(v, seconds);
        else if (a == "--trace")
            ok = parseU64(v, trace);
        else if (a == "--insts")
            ok = parseU64(v, insts) && insts >= 2;
        else
            return usage();
        if (!ok)
            return usage();
    }
    Workload w;
    if (!haveSeed || seconds == 0 || trace > 1 ||
        !makeWorkload(workload, seed, insts, w))
        return usage();

    ScenarioRegistry registry;
    bench::registerAllScenarios(registry);
    const Scenario &scn = *registry.find(w.scenario);
    const Scenario &fig05 = *registry.find("fig05");

    // The reference records: the grid through gals::runOne(), on the
    // workload's own workers so it shares the timed passes' memory
    // profile.
    Gate gate;
    clearSnapshotCache();
    std::vector<RunResults> refResults;
    const std::vector<std::string> ref = runReference(
        scn.name, expandReplicatedRuns(scn, w.opts, nullptr), w.jobs,
        refResults, gate, "reference " + scn.name);

    // Timed passes; with --trace 1 untraced and traced passes
    // alternate, so both see the same host conditions. A pass is
    // reduced to its figures as soon as it is checked, so memory does
    // not grow with the number of passes.
    std::vector<double> kips, setup, plainWall, tracedWall;
    std::vector<LayerPass> layers;
    const Clock::time_point start = Clock::now();
    while (since(start) < static_cast<double>(seconds) ||
           std::min(plainWall.size(),
                    trace ? tracedWall.size() : plainWall.size()) <
               minPasses) {
        const bool t = trace && plainWall.size() > tracedWall.size();
        const Pass p = runPass(scn, w, t);
        gatePass(gate, scn.name, p, ref);
        const double rate =
            static_cast<double>(committedOf(p)) / p.wallS / 1000.0;
        if (t) {
            std::fprintf(stderr,
                         "perfbench: traced pass: %zu runs, %.3f s, "
                         "%.1f kinst/s\n",
                         p.cfgs.size(), p.wallS, rate);
            tracedWall.push_back(p.wallS);
            layers.push_back(layerPass(p, w.jobs));
        } else {
            const double scale = scaleOf(p);
            std::fprintf(stderr,
                         "perfbench: untraced pass: %zu runs, %.3f s, "
                         "%.1f kinst/s, host speed %.3f; at reference "
                         "speed %.1f kinst/s, set-up %.4f s\n",
                         p.cfgs.size(), p.wallS, rate, scale,
                         rate / scale, setupOf(p) * scale);
            plainWall.push_back(p.wallS);
            kips.push_back(rate / scale);
            setup.push_back(setupOf(p) * scale);
        }
    }
    const double peakRss = peakRssMb();

    Metrics m;
    if (trace)
        perLayer(layers, tracedWall, plainWall, m);
    else
        endToEnd(kips, setup, peakRss, fig05,
                 insts ? insts : paperInstructions, gate, m);

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": %s}\n",
                gate.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(gate.attempted),
                static_cast<unsigned long long>(gate.failed),
                m.json().c_str());
    return std::fflush(stdout) == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
