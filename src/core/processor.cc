#include "core/processor.hh"

#include <cmath>

#include "sim/logging.hh"
#include "sim/snapshot_io.hh"

namespace gals
{

void
ProcessorConfig::validate() const
{
    core.validate();
    if (nominalPeriod == 0)
        gals_fatal("processor config: zero clock period");
    if (fifoCapacity < 2)
        gals_fatal("processor config: FIFO capacity must be >= 2");
    if (syncEdges == 0)
        gals_fatal("processor config: syncEdges must be >= 1");
    for (const double s : dvfs.slowdown)
        if (s < 1.0)
            gals_fatal("processor config: slowdown ", s, " < 1");
}

Processor::Processor(EventQueue &eq, const ProcessorConfig &cfg,
                     const BenchmarkProfile &profile,
                     std::uint64_t runSeed,
                     const std::string &namePrefix)
    : eq_(eq), cfg_(cfg), prefix_(namePrefix), profile_(profile),
      gen_(profile, runSeed), hier_(cfg.core.caches),
      powerModel_(cfg.core, cfg.tech, cfg.clocks), energy_(powerModel_)
{
    cfg_.validate();
    buildDomains(runSeed);
    buildChannels();
    buildStages();
}

Processor::~Processor()
{
    // Stop clocks so no event still scheduled on the queue refers to a
    // dying domain.
    for (auto &d : domains_)
        if (d && d->running())
            d->stop();
}

void
Processor::buildDomains(std::uint64_t runSeed)
{
    (void)runSeed;
    for (unsigned i = 0; i < numDomains; ++i) {
        const auto id = static_cast<DomainId>(i);
        const double slowdown = cfg_.dvfs.slowdown[i];
        const Tick period = static_cast<Tick>(
            std::llround(static_cast<double>(cfg_.nominalPeriod) *
                         slowdown));
        Tick phase = 0;
        domains_[i] = std::make_unique<ClockDomain>(
            eq_, prefix_ + "domain." + domainName(id), period, phase);
        domains_[i]->setVdd(cfg_.dvfs.vddOf(id, cfg_.tech));
    }
}

void
Processor::buildChannels()
{
    const ChannelMode mode =
        cfg_.gals ? ChannelMode::asyncFifo : ChannelMode::syncLatch;
    auto &d = domains_;
    auto dom = [&d](DomainId id) -> ClockDomain & {
        return *d[domainIndex(id)];
    };

    const unsigned cap = cfg_.fifoCapacity;
    const unsigned mcap = cfg_.msgFifoCapacity;
    const unsigned se = cfg_.syncEdges;

    fetchToDecode_ = std::make_unique<Channel<DynInstPtr>>(
        prefix_ + "ch.fetch2decode", mode, dom(DomainId::fetch),
        dom(DomainId::decode), cap, se);
    dispatchInt_ = std::make_unique<Channel<DynInstPtr>>(
        prefix_ + "ch.disp2int", mode, dom(DomainId::decode),
        dom(DomainId::intd), cap, se);
    dispatchFp_ = std::make_unique<Channel<DynInstPtr>>(
        prefix_ + "ch.disp2fp", mode, dom(DomainId::decode),
        dom(DomainId::fpd), cap, se);
    dispatchMem_ = std::make_unique<Channel<DynInstPtr>>(
        prefix_ + "ch.disp2mem", mode, dom(DomainId::decode),
        dom(DomainId::memd), cap, se);

    const DomainId execs[3] = {DomainId::intd, DomainId::fpd,
                               DomainId::memd};
    for (const DomainId p : execs) {
        for (const DomainId c : execs) {
            if (p == c)
                continue;
            wakeups_.push_back(std::make_unique<Channel<WakeupMsg>>(
                prefix_ + "ch.wakeup." + domainName(p) + "2" +
                    domainName(c),
                mode, dom(p), dom(c), mcap, se, false));
        }
    }

    completeInt_ = std::make_unique<Channel<CompleteMsg>>(
        prefix_ + "ch.complete.int", mode, dom(DomainId::intd),
        dom(DomainId::decode), mcap, se, false);
    completeFp_ = std::make_unique<Channel<CompleteMsg>>(
        prefix_ + "ch.complete.fp", mode, dom(DomainId::fpd),
        dom(DomainId::decode), mcap, se, false);
    completeMem_ = std::make_unique<Channel<CompleteMsg>>(
        prefix_ + "ch.complete.mem", mode, dom(DomainId::memd),
        dom(DomainId::decode), mcap, se, false);

    redirect_ = std::make_unique<Channel<RedirectMsg>>(
        prefix_ + "ch.redirect", mode, dom(DomainId::intd),
        dom(DomainId::fetch), 16, se, false);
    storeCommit_ = std::make_unique<Channel<StoreCommitMsg>>(
        prefix_ + "ch.storecommit", mode, dom(DomainId::decode),
        dom(DomainId::memd), mcap, se, false);
    bpredUpdate_ = std::make_unique<Channel<BpredUpdateMsg>>(
        prefix_ + "ch.bpredupdate", mode, dom(DomainId::decode),
        dom(DomainId::fetch), mcap, se, false);

    allChannels_ = {fetchToDecode_.get(), dispatchInt_.get(),
                    dispatchFp_.get(),    dispatchMem_.get(),
                    completeInt_.get(),   completeFp_.get(),
                    completeMem_.get(),   redirect_.get(),
                    storeCommit_.get(),   bpredUpdate_.get()};
    for (auto &w : wakeups_)
        allChannels_.push_back(w.get());
}

void
Processor::buildStages()
{
    auto &d = domains_;
    auto dom = [&d](DomainId id) -> ClockDomain & {
        return *d[domainIndex(id)];
    };

    fetch_ = std::make_unique<FetchStage>(
        cfg_.core, dom(DomainId::fetch), dom(DomainId::memd), gen_,
        hier_, energy_, *fetchToDecode_, *redirect_, *bpredUpdate_,
        cfg_.gals, cfg_.syncEdges);
    fetch_->onSquash([this](InstSeqNum seq) { squashFrom(seq); });

    decode_ = std::make_unique<DecodeCommitUnit>(
        cfg_.core, dom(DomainId::decode), energy_, *fetchToDecode_,
        *dispatchInt_, *dispatchFp_, *dispatchMem_,
        std::vector<Channel<CompleteMsg> *>{completeInt_.get(),
                                            completeFp_.get(),
                                            completeMem_.get()},
        *storeCommit_, *bpredUpdate_);

    // Wakeup channel layout (producer-major, skipping self):
    //   [0] int->fp  [1] int->mem
    //   [2] fp->int  [3] fp->mem
    //   [4] mem->int [5] mem->fp
    auto wk = [this](unsigned i) { return wakeups_[i].get(); };

    execInt_ = std::make_unique<ExecDomain>(
        ExecKind::intCluster, cfg_.core, dom(DomainId::intd), energy_,
        *dispatchInt_,
        std::vector<Channel<WakeupMsg> *>{wk(2), wk(4)},
        std::vector<Channel<WakeupMsg> *>{wk(0), wk(1)}, *completeInt_,
        redirect_.get(), nullptr, nullptr);

    execFp_ = std::make_unique<ExecDomain>(
        ExecKind::fpCluster, cfg_.core, dom(DomainId::fpd), energy_,
        *dispatchFp_,
        std::vector<Channel<WakeupMsg> *>{wk(0), wk(5)},
        std::vector<Channel<WakeupMsg> *>{wk(2), wk(3)}, *completeFp_,
        nullptr, nullptr, nullptr);

    execMem_ = std::make_unique<ExecDomain>(
        ExecKind::memCluster, cfg_.core, dom(DomainId::memd), energy_,
        *dispatchMem_,
        std::vector<Channel<WakeupMsg> *>{wk(1), wk(3)},
        std::vector<Channel<WakeupMsg> *>{wk(4), wk(5)}, *completeMem_,
        nullptr, storeCommit_.get(), &hier_);

    // Stage logic registered itself at priority 10 (each stage is a
    // ClockDomain::Ticker wired up in its constructor); the energy
    // close-out runs last (priority 90). Domains are started in
    // reverse pipeline order so that, in the synchronous machine,
    // consumers tick before producers at equal time.
    for (unsigned i = 0; i < numDomains; ++i) {
        const auto id = static_cast<DomainId>(i);
        energyTickers_[i].bind(energy_, id, *domains_[i]);
        domains_[i]->addTicker(energyTickers_[i], 90);
    }
    if (!cfg_.gals) {
        // The global clock grid switches every cycle of the (single)
        // clock; charge it from the reference domain.
        ClockDomain &ref = dom(DomainId::decode);
        globalClockTicker_.bind(energy_, ref);
        ref.addTicker(globalClockTicker_, 91);
    }
}

void
Processor::squashFrom(InstSeqNum afterSeq)
{
    auto younger = [afterSeq](const DynInstPtr &inst) {
        if (inst->seq > afterSeq) {
            inst->squashed = true;
            return true;
        }
        return false;
    };
    fetchToDecode_->squash(younger);
    dispatchInt_->squash(younger);
    dispatchFp_->squash(younger);
    dispatchMem_->squash(younger);

    decode_->squashAfter(afterSeq);
    execInt_->squashAfter(afterSeq);
    execFp_->squashAfter(afterSeq);
    execMem_->squashAfter(afterSeq);
}

void
Processor::prepareRun(std::uint64_t targetCommitted)
{
    gals_assert(targetCommitted > 0, "nothing to run");
    fetch_->setFetchLimit(targetCommitted);
}

void
Processor::startClocks(Rng &phaseRng)
{
    // Start clocks in reverse pipeline order (see buildStages). In
    // GALS mode each clock gets a random initial phase (section 4.3:
    // "the starting phase of each clock was set to a random value at
    // runtime").
    const DomainId start_order[numDomains] = {
        DomainId::intd, DomainId::fpd, DomainId::memd, DomainId::decode,
        DomainId::fetch};
    for (const DomainId id : start_order) {
        ClockDomain &cd = domain(id);
        if (cfg_.gals && cfg_.randomPhase)
            cd.setPhase(phaseRng.range(0, cd.period() - 1));
        cd.start();
    }
}

std::uint64_t
Processor::committed() const
{
    return decode_->commitStats().committed;
}

void
Processor::finishRun()
{
    endTick_ = eq_.now();
    for (auto &cd : domains_)
        if (cd->running())
            cd->stop();
}

void
Processor::run(std::uint64_t targetCommitted)
{
    prepareRun(targetCommitted);
    runLoop(targetCommitted);
    finishRun();
}

void
Processor::runLoop(std::uint64_t targetCommitted)
{
    Rng phase_rng(cfg_.phaseSeed * 0x9e3779b97f4a7c15ULL + 0x1234567ULL);
    startClocks(phase_rng);

    const Tick watchdog_ticks =
        cfg_.watchdogCycles * cfg_.nominalPeriod;
    std::uint64_t last_committed = decode_->commitStats().committed;
    Tick last_progress = eq_.now();

    while (decode_->commitStats().committed < targetCommitted) {
        gals_assert(!eq_.empty(), "event queue drained mid-run");
        eq_.serviceOne();

        const std::uint64_t c = decode_->commitStats().committed;
        if (c != last_committed) {
            last_committed = c;
            last_progress = eq_.now();
        } else if (eq_.now() - last_progress > watchdog_ticks) {
            gals_panic("watchdog: no commit for ", cfg_.watchdogCycles,
                       " cycles at tick ", eq_.now(), " (committed ",
                       c, "/", targetCommitted, ", rob=",
                       decode_->rob().size(), ", intIQ=",
                       execInt_->queue().size(), ", fpIQ=",
                       execFp_->queue().size(), ", memIQ=",
                       execMem_->queue().size(), ")");
        }
    }
}

void
Processor::runWarmup(std::uint64_t warmupCommitted)
{
    prepareRun(warmupCommitted);
    runLoop(warmupCommitted);
    drainToQuiescence();
    finishRun();
}

void
Processor::runResumed(std::uint64_t measuredCommitted)
{
    gals_assert(measuredCommitted > 0, "nothing to run");
    // The restored generator has already produced the warmup stream:
    // arm the limit relative to it (fetch compares against
    // gen_.generated(), not the commit counter, which restarts at 0).
    fetch_->setFetchLimit(gen_.generated() + measuredCommitted);
    runLoop(measuredCommitted);
    finishRun();
}

bool
Processor::quiescentForSnapshot() const
{
    if (!fetch_->quiescentForSnapshot() ||
        !decode_->quiescentForSnapshot() ||
        !execInt_->quiescentForSnapshot() ||
        !execFp_->quiescentForSnapshot() ||
        !execMem_->quiescentForSnapshot())
        return false;
    for (const ChannelBase *ch : allChannels_)
        if (ch->occupancy() != 0)
            return false;
    return true;
}

void
Processor::drainToQuiescence()
{
    // The fetch limit is already exhausted, so no new correct-path
    // work appears; whatever is still in flight (wrong-path fetches
    // awaiting their redirect, wakeup/complete/update messages in
    // FIFOs) retires or is squashed within a pipeline depth's worth
    // of cycles. The clocks self-reschedule, so bound the drain by
    // the same watchdog budget as the run loop.
    const Tick watchdog_ticks =
        cfg_.watchdogCycles * cfg_.nominalPeriod;
    const Tick start = eq_.now();
    while (!quiescentForSnapshot()) {
        gals_assert(!eq_.empty(), "event queue drained mid-drain");
        eq_.serviceOne();
        if (eq_.now() - start > watchdog_ticks)
            gals_panic("watchdog: machine not quiescent ",
                       cfg_.watchdogCycles,
                       " cycles after warmup target (tick ", eq_.now(),
                       ", rob=", decode_->rob().size(), ")");
    }
}

void
Processor::snapshotSave(SnapshotWriter &w)
{
    gals_assert(quiescentForSnapshot(),
                "warm snapshot of a non-quiescent machine");

    w.section("gen");
    gen_.snapshotSave(w);

    w.section("caches");
    hier_.il1().snapshotSave(w);
    hier_.dl1().snapshotSave(w);
    hier_.l2().snapshotSave(w);

    w.section("bpred");
    fetch_->branchUnit().snapshotSave(w);

    w.section("rename");
    decode_->rename().snapshotSave(w);

    w.section("fetch");
    w.u64(fetch_->nextSeq());

    // Channels and the event queue are empty by construction at the
    // quiescent snapshot point; the sections still exist in the
    // format so that relaxing the quiescence rule later is a format
    // extension, not a format break.
    w.section("channels");
    w.u64(allChannels_.size());
    for (const ChannelBase *ch : allChannels_)
        w.u64(ch->occupancy());
    w.section("events");
    w.u64(0);
}

void
Processor::snapshotRestore(SnapshotReader &r)
{
    r.section("gen");
    gen_.snapshotRestore(r);

    r.section("caches");
    hier_.il1().snapshotRestore(r);
    hier_.dl1().snapshotRestore(r);
    hier_.l2().snapshotRestore(r);

    r.section("bpred");
    fetch_->branchUnit().snapshotRestore(r);

    r.section("rename");
    decode_->rename().snapshotRestore(r);

    r.section("fetch");
    fetch_->setNextSeq(r.u64());

    r.section("channels");
    r.expectU64(r.u64(), allChannels_.size(), "snapshot channel count");
    for (std::size_t i = 0; r.ok() && i < allChannels_.size(); ++i)
        r.expectU64(r.u64(), 0, "in-flight channel payloads");
    r.section("events");
    r.expectU64(r.u64(), 0, "in-flight events");
    if (!r.ok())
        return;

    // Re-seed every execution domain's register-readiness view: at a
    // quiescent point nothing is in flight, so every physical
    // register is ready at its current rename epoch. Future
    // consumers rename to epoch e+1 and wait for the producer's
    // wakeup exactly as they would have in an uninterrupted run.
    RenameUnit &rn = decode_->rename();
    const unsigned regs = rn.totalPhysRegs();
    ExecDomain *clusters[3] = {execInt_.get(), execFp_.get(),
                               execMem_.get()};
    for (ExecDomain *c : clusters)
        for (unsigned reg = 0; reg < regs; ++reg) {
            const auto pr = static_cast<PhysRegId>(reg);
            c->scoreboard().observe(pr, rn.epochOf(pr));
        }
}

std::uint64_t
Processor::fifoEvents() const
{
    std::uint64_t n = 0;
    for (const ChannelBase *ch : allChannels_)
        n += ch->pushes() + ch->pops();
    return n;
}

double
Processor::finalizeEnergyNj()
{
    if (!energyFinalized_) {
        if (cfg_.gals) {
            // FIFO storage energy per push/pop, plus the synchronizer
            // flops toggling every consumer cycle on every channel.
            energy_.chargeImmediate(Unit::fifo, fifoEvents(),
                                    cfg_.tech.vddNominal);
            const double sync_flops = 8.0;
            for (const ChannelBase *ch : allChannels_) {
                const double nj = sync_flops * cfg_.tech.cLatchFf *
                                  cfg_.tech.vddNominal *
                                  cfg_.tech.vddNominal * 1e-6 *
                                  static_cast<double>(
                                      ch->consumer().cycle());
                energy_.chargeEnergyNj(Unit::fifo, nj,
                                       cfg_.tech.vddNominal);
            }
        }
        finalEnergyNj_ = energy_.totalNj();
        energyFinalized_ = true;
    }
    return finalEnergyNj_;
}

} // namespace gals
