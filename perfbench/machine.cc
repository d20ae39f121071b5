#include "perfbench/machine.hh"

#include <chrono>
#include <memory>
#include <string>

#include "core/snapshot.hh"
#include "dvfs/controller.hh"
#include "fabric/system.hh"
#include "sim/logging.hh"
#include "sim/meter.hh"

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

/** Times one stage's tick() from outside: the stage is unregistered
 *  from its domain and this wrapper takes its place at the same
 *  priority. */
class StageTimer final : public ClockDomain::Ticker
{
  public:
    void
    wrap(ClockDomain &domain, ClockDomain::Ticker &stage)
    {
        stage_ = &stage;
        domain.removeTicker(&stage);
        domain.addTicker(*this, 10);
    }

    void
    tick() override
    {
        const Clock::time_point t0 = Clock::now();
        stage_->tick();
        ns_ += (Clock::now() - t0).count();
        ++ticks_;
    }

    double seconds() const { return static_cast<double>(ns_) * 1e-9; }
    std::uint64_t ticks() const { return ticks_; }

  private:
    ClockDomain::Ticker *stage_ = nullptr;
    std::int64_t ns_ = 0;
    std::uint64_t ticks_ = 0;
};

/** One StageTimer per stage of every core. */
using StageTimers = std::unique_ptr<StageTimer[]>;

void
wrapStages(Processor &p, StageTimer *timers)
{
    timers[stFetch].wrap(p.domain(DomainId::fetch), p.fetch());
    timers[stDecode].wrap(p.domain(DomainId::decode), p.decodeUnit());
    timers[stInt].wrap(p.domain(DomainId::intd), p.intCluster());
    timers[stFp].wrap(p.domain(DomainId::fpd), p.fpCluster());
    timers[stMem].wrap(p.domain(DomainId::memd), p.memCluster());
}

void
collectStages(const StageTimer *timers, RunSpans &sp)
{
    for (unsigned s = 0; s < numStages; ++s) {
        sp.stageS[s] += timers[s].seconds();
        sp.stageTicks[s] += timers[s].ticks();
    }
}

/** Per-core counters the per-layer metrics read after a run. */
void
harvest(Processor &p, RunSpans &sp)
{
    sp.execIssued += p.intCluster().issued() + p.fpCluster().issued() +
                     p.memCluster().issued();
    const BranchUnit &bu = p.fetch().branchUnit();
    sp.dirCorrect += bu.dirCorrect();
    sp.dirTotal += bu.dirCorrect() + bu.dirWrong();
    const Cache *caches[3] = {&p.caches().il1(), &p.caches().dl1(),
                              &p.caches().l2()};
    for (unsigned i = 0; i < 3; ++i) {
        sp.cacheAccesses[i] += caches[i]->accesses();
        sp.cacheMisses[i] += caches[i]->misses();
    }
    PerDomain<std::uint64_t> edges{};
    PerDomain<double> vdd{};
    for (unsigned d = 0; d < numDomains; ++d) {
        const ClockDomain &cd = p.domain(static_cast<DomainId>(d));
        edges[d] = cd.cycle();
        vdd[d] = cd.vdd();
    }
    sp.domainEdges.push_back(edges);
    sp.domainVdd.push_back(vdd);
}

/**
 * The interval sampler runOne() attaches for RunConfig::intervalTicks
 * (a private class of core/experiment.cc), rebuilt on the public
 * PeriodicMeter so the benchmark's records carry the same samples.
 */
class IntervalMeter final : public PeriodicMeter
{
  public:
    IntervalMeter(EventQueue &eq, Processor &proc, Tick intervalTicks)
        : PeriodicMeter(eq, "meter", intervalTicks), proc_(proc)
    {
    }

    std::vector<IntervalSample> takeSamples()
    {
        return std::move(samples_);
    }

  protected:
    void
    sampleInterval(std::uint64_t, Tick now) override
    {
        IntervalSample s;
        s.tick = now;

        const std::uint64_t committed =
            proc_.decodeUnit().commitStats().committed;
        s.committed = committed - lastCommitted_;
        lastCommitted_ = committed;
        const double cycles =
            static_cast<double>(intervalTicks()) /
            static_cast<double>(proc_.config().nominalPeriod);
        s.ipc = cycles > 0.0 ? s.committed / cycles : 0.0;

        std::array<double, numDomains> energy{};
        for (unsigned i = 0; i < numUnits; ++i) {
            const Unit u = static_cast<Unit>(i);
            energy[domainIndex(unitDomain(u))] +=
                proc_.energy().unitEnergyNj(u);
        }
        for (unsigned d = 0; d < numDomains; ++d) {
            s.energyNj[d] = energy[d] - lastEnergyNj_[d];
            lastEnergyNj_[d] = energy[d];
        }

        std::uint64_t occ = 0;
        for (const ChannelBase *ch : proc_.channels()) {
            const std::uint64_t out =
                ch->pops() + ch->squashedItems();
            occ += ch->pushes() > out ? ch->pushes() - out : 0;
        }
        s.fifoOcc = occ;

        samples_.push_back(s);
    }

  private:
    Processor &proc_;
    std::uint64_t lastCommitted_ = 0;
    std::array<double, numDomains> lastEnergyNj_{};
    std::vector<IntervalSample> samples_;
};

RunResults
runFabric(const RunConfig &cfg, bool traced, RunSpans &sp,
          Clock::time_point t0)
{
    const Clock::time_point b = Clock::now();
    System sys(cfg);
    sp.fabricBuildS = since(b);

    StageTimers timers;
    if (traced) {
        timers = std::make_unique<StageTimer[]>(sys.cores() * numStages);
        for (unsigned c = 0; c < sys.cores(); ++c)
            wrapStages(sys.core(c), &timers[c * numStages]);
    }
    sp.setupS = since(t0);

    const Clock::time_point r = Clock::now();
    RunResults res = sys.run();
    sp.runS = since(r);

    // System::run() extracts every core inside its run span; traced
    // runs time that extraction again on the finished cores (energy
    // finalization is idempotent, so this reads only).
    if (traced) {
        const Clock::time_point e = Clock::now();
        for (unsigned c = 0; c < sys.cores(); ++c)
            (void)extractRunResults(sys.core(c), cfg);
        sp.extractS = since(e);
    }

    sp.events = sys.eventQueue().processedCount();
    for (unsigned c = 0; c < sys.cores(); ++c) {
        harvest(sys.core(c), sp);
        if (traced)
            collectStages(&timers[c * numStages], sp);
    }
    return res;
}

} // namespace

RunResults
runMachine(const RunConfig &cfg, bool traced, RunSpans &sp)
{
    const Clock::time_point t0 = Clock::now();
    if (cfg.fabric.active())
        return runFabric(cfg, traced, sp, t0);

    const BenchmarkProfile &profile = findBenchmark(cfg.benchmark);

    ProcessorConfig pc = cfg.proc;
    pc.gals = cfg.gals;
    pc.dvfs = cfg.gals ? cfg.dvfs : DvfsSetting();
    pc.phaseSeed = effectivePhaseSeed(cfg);

    const bool warm = cfg.warmupInstructions > 0;
    std::shared_ptr<const std::string> snapshot;
    if (warm) {
        sp.warmKey = warmupKeyHash(cfg);
        const Clock::time_point a = Clock::now();
        snapshot = acquireWarmupSnapshot(cfg);
        sp.acquireS = since(a);
    }

    EventQueue eq("eq." + cfg.benchmark);
    Processor proc(eq, pc, profile, cfg.seed);

    if (warm) {
        const Clock::time_point a = Clock::now();
        std::string err;
        if (!restoreWarmMachine(proc, cfg, *snapshot, &err))
            gals_panic("warm snapshot restore failed: ", err);
        sp.restoreS = since(a);
    }

    StageTimers timers;
    if (traced) {
        timers = std::make_unique<StageTimer[]>(numStages);
        wrapStages(proc, timers.get());
    }

    std::unique_ptr<DynamicDvfsController> ctrl;
    if (cfg.dynamicDvfs) {
        ctrl = std::make_unique<DynamicDvfsController>(eq, pc.tech);
        ctrl->manage(proc.domain(DomainId::fpd),
                     proc.fpCluster().issuedCounter(),
                     pc.core.fpIssueWidth);
        ctrl->start();
    }
    std::unique_ptr<IntervalMeter> meter;
    if (cfg.intervalTicks > 0) {
        meter = std::make_unique<IntervalMeter>(eq, proc,
                                                cfg.intervalTicks);
        meter->start();
    }
    sp.setupS = since(t0);

    const Clock::time_point r = Clock::now();
    if (warm)
        proc.runResumed(cfg.instructions - cfg.warmupInstructions);
    else
        proc.run(cfg.instructions);
    if (ctrl)
        ctrl->stop();
    if (meter)
        meter->stop();
    sp.runS = since(r);

    const Clock::time_point e = Clock::now();
    proc.finalizeEnergyNj();
    sp.finalizeS = since(e);
    RunResults res = extractRunResults(proc, cfg);
    if (meter)
        res.intervals = meter->takeSamples();
    sp.extractS = since(e);

    sp.events = eq.processedCount();
    harvest(proc, sp);
    if (traced)
        collectStages(timers.get(), sp);
    return res;
}

} // namespace perfbench
