/**
 * @file
 * Tests for the backend structures: ROB ordering and squash, issue
 * queue wakeup/selection (against a reference model), LSQ forwarding,
 * the functional unit pool and the instruction pool's lifetimes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "cpu/fu_pool.hh"
#include "cpu/issue_queue.hh"
#include "cpu/lsq.hh"
#include "cpu/rob.hh"
#include "cpu/scoreboard.hh"

using namespace gals;

namespace
{

/** Backs every instruction the tests make; outlives all of them. */
DynInstPool &
testPool()
{
    static DynInstPool pool;
    return pool;
}

DynInstPtr
makeInst(InstSeqNum seq, InstClass cls = InstClass::intAlu)
{
    DynInstPtr di = testPool().make();
    di->seq = seq;
    di->cls = cls;
    return di;
}

DynInstPtr
makeDep(InstSeqNum seq, PhysRegId src, std::uint32_t epoch)
{
    auto di = makeInst(seq);
    di->numSrcs = 1;
    di->physSrcs[0] = src;
    di->srcEpochs[0] = epoch;
    return di;
}

} // namespace

// ------------------------------------------------------------------ ROB

TEST(Rob, InsertAndCommitInOrder)
{
    Rob rob(8);
    rob.insert(makeInst(1));
    rob.insert(makeInst(2));
    EXPECT_EQ(rob.head()->seq, 1u);
    rob.popHead();
    EXPECT_EQ(rob.head()->seq, 2u);
}

TEST(Rob, FullDetection)
{
    Rob rob(2);
    rob.insert(makeInst(1));
    EXPECT_FALSE(rob.full());
    rob.insert(makeInst(2));
    EXPECT_TRUE(rob.full());
}

TEST(Rob, MarkCompleted)
{
    Rob rob(4);
    rob.insert(makeInst(1));
    rob.insert(makeInst(2));
    EXPECT_TRUE(rob.markCompleted(2));
    EXPECT_FALSE(rob.head()->completed);
    EXPECT_FALSE(rob.markCompleted(99)); // unknown seq: benign
}

TEST(Rob, SquashAfterRemovesYoungestFirst)
{
    Rob rob(8);
    for (InstSeqNum s = 1; s <= 5; ++s)
        rob.insert(makeInst(s));
    std::vector<InstSeqNum> squashed;
    const unsigned n = rob.squashAfter(
        2, [&squashed](DynInst &d) { squashed.push_back(d.seq); });
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(squashed, (std::vector<InstSeqNum>{5, 4, 3}));
    EXPECT_EQ(rob.size(), 2u);
}

TEST(Rob, SquashSetsFlag)
{
    Rob rob(4);
    auto di = makeInst(3);
    rob.insert(makeInst(1));
    rob.insert(di);
    rob.squashAfter(1, [](DynInst &) {});
    EXPECT_TRUE(di->squashed);
}

// --------------------------------------------------------- Issue queue

TEST(IssueQueue, ReadyAtInsertIssuesImmediately)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 4, sb);
    auto di = makeDep(1, 3, 0); // epoch 0 always ready
    iq.insert(di);
    std::vector<DynInstPtr> sel;
    iq.selectIssue(4, [](const DynInst &) { return true; }, sel);
    ASSERT_EQ(sel.size(), 1u);
    EXPECT_EQ(sel[0]->seq, 1u);
    EXPECT_TRUE(iq.empty());
}

TEST(IssueQueue, WaitsForWakeup)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 4, sb);
    iq.insert(makeDep(1, 3, 5)); // needs epoch 5 of reg 3
    std::vector<DynInstPtr> sel;
    iq.selectIssue(4, [](const DynInst &) { return true; }, sel);
    EXPECT_TRUE(sel.empty());
    sb.observe(3, 5);
    iq.wakeup(3, 5);
    iq.selectIssue(4, [](const DynInst &) { return true; }, sel);
    EXPECT_EQ(sel.size(), 1u);
}

TEST(IssueQueue, StaleWakeupIgnored)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 4, sb);
    iq.insert(makeDep(1, 3, 5));
    sb.observe(3, 4);
    iq.wakeup(3, 4); // older epoch: not enough
    std::vector<DynInstPtr> sel;
    iq.selectIssue(4, [](const DynInst &) { return true; }, sel);
    EXPECT_TRUE(sel.empty());
}

TEST(IssueQueue, WakeupTheScoreboardHasNotSeenPanics)
{
    // The scoreboard is the queue's only readiness source, so a wakeup
    // it has not observed would be lost: ExecDomain::localWakeup
    // always observes first.
    Scoreboard sb(16);
    IssueQueue iq("iq", 4, sb);
    iq.insert(makeDep(1, 3, 5));
    sb.observe(3, 4);
    EXPECT_DEATH(iq.wakeup(3, 5), "wakeup \\(3, 5\\) not observed");
}

TEST(IssueQueue, OldestFirstSelection)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 8, sb);
    for (InstSeqNum s = 1; s <= 4; ++s)
        iq.insert(makeDep(s, 0, 0));
    std::vector<DynInstPtr> sel;
    iq.selectIssue(2, [](const DynInst &) { return true; }, sel);
    ASSERT_EQ(sel.size(), 2u);
    EXPECT_EQ(sel[0]->seq, 1u);
    EXPECT_EQ(sel[1]->seq, 2u);
}

TEST(IssueQueue, FuRejectionSkipsButKeeps)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 8, sb);
    auto mul = makeInst(1, InstClass::intMult);
    auto alu = makeInst(2, InstClass::intAlu);
    iq.insert(mul);
    iq.insert(alu);
    // Reject multiplies: the younger ALU op issues around it.
    std::vector<DynInstPtr> sel;
    iq.selectIssue(
        4, [](const DynInst &d) { return d.cls != InstClass::intMult; },
        sel);
    ASSERT_EQ(sel.size(), 1u);
    EXPECT_EQ(sel[0]->seq, 2u);
    EXPECT_EQ(iq.size(), 1u);
}

TEST(IssueQueue, SquashAfter)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 8, sb);
    for (InstSeqNum s = 1; s <= 5; ++s)
        iq.insert(makeDep(s, 0, 0));
    EXPECT_EQ(iq.squashAfter(3), 2u);
    EXPECT_EQ(iq.size(), 3u);
}

TEST(IssueQueue, CapacityEnforced)
{
    Scoreboard sb(16);
    IssueQueue iq("iq", 2, sb);
    iq.insert(makeInst(1));
    iq.insert(makeInst(2));
    EXPECT_TRUE(iq.full());
}

namespace
{

/**
 * Reference issue queue with the straightforward semantics the real
 * one must reproduce: every wakeup is a full CAM scan that counts one
 * match per entry x source as it compares and sets the ready bits it
 * matches (the real queue reads them from the scoreboard instead),
 * and selection erases each issued entry from the middle of the
 * age-ordered vector.
 */
class RefIssueQueue
{
  public:
    RefIssueQueue(unsigned capacity, const Scoreboard &view)
        : capacity_(capacity), view_(view)
    {
    }

    bool full() const { return entries_.size() >= capacity_; }
    unsigned size() const { return static_cast<unsigned>(entries_.size()); }
    std::uint64_t wakeupMatches() const { return matches_; }

    void
    insert(const DynInstPtr &inst)
    {
        Entry e{inst, {}, false};
        for (unsigned i = 0; i < DynInst::maxSrcs; ++i)
            e.ready[i] = i >= inst->numSrcs;
        refresh(e);
        entries_.push_back(e);
    }

    void
    wakeup(PhysRegId reg, std::uint32_t epoch)
    {
        for (auto &e : entries_) {
            for (unsigned i = 0; i < e.inst->numSrcs; ++i) {
                ++matches_;
                if (!e.ready[i] && e.inst->physSrcs[i] == reg &&
                    e.inst->srcEpochs[i] <= epoch)
                    e.ready[i] = true;
            }
        }
    }

    template <typename Fu>
    std::vector<InstSeqNum>
    selectIssue(unsigned width, Fu fu)
    {
        std::vector<InstSeqNum> issued;
        for (auto it = entries_.begin();
             it != entries_.end() && issued.size() < width;) {
            refresh(*it);
            if (it->allReady && fu(*it->inst)) {
                issued.push_back(it->inst->seq);
                it = entries_.erase(it);
            } else {
                ++it;
            }
        }
        return issued;
    }

    unsigned
    squashAfter(InstSeqNum afterSeq)
    {
        const auto old_size = entries_.size();
        entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                      [afterSeq](const Entry &e) {
                                          return e.inst->seq > afterSeq;
                                      }),
                       entries_.end());
        return static_cast<unsigned>(old_size - entries_.size());
    }

  private:
    struct Entry
    {
        DynInstPtr inst;
        bool ready[DynInst::maxSrcs];
        bool allReady;
    };

    void
    refresh(Entry &e) const
    {
        e.allReady = true;
        for (unsigned i = 0; i < e.inst->numSrcs; ++i) {
            if (!e.ready[i])
                e.ready[i] = view_.ready(e.inst->physSrcs[i],
                                         e.inst->srcEpochs[i]);
            e.allReady = e.allReady && e.ready[i];
        }
    }

    unsigned capacity_;
    const Scoreboard &view_;
    std::vector<Entry> entries_;
    std::uint64_t matches_ = 0;
};

/** An FU predicate that consumes a budget and refuses multiplies on
 *  alternate calls, identical for both queues under test. */
struct BudgetFu
{
    unsigned budget;
    bool noMults;

    bool
    operator()(const DynInst &d)
    {
        if (budget == 0 || (noMults && d.cls == InstClass::intMult))
            return false;
        --budget;
        return true;
    }
};

std::vector<InstSeqNum>
seqsOf(const std::vector<DynInstPtr> &v)
{
    std::vector<InstSeqNum> out;
    for (const DynInstPtr &d : v)
        out.push_back(d->seq);
    return out;
}

} // namespace

TEST(IssueQueue, MatchesReferenceUnderRandomTraffic)
{
    constexpr unsigned numRegs = 12;
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
        std::mt19937 rng(seed);
        auto pick = [&rng](unsigned n) {
            return static_cast<unsigned>(rng() % n);
        };
        Scoreboard sb(numRegs);
        IssueQueue iq("iq", 8 + seed, sb);
        RefIssueQueue ref(8 + seed, sb);
        InstSeqNum next = 1;
        InstSeqNum oldest = 1;
        std::vector<DynInstPtr> issued;

        for (unsigned step = 0; step < 4000; ++step) {
            const unsigned op = pick(10);
            if (op < 4) {
                if (iq.full())
                    continue;
                DynInstPtr d = makeInst(
                    next++, pick(4) == 0 ? InstClass::intMult
                                         : InstClass::intAlu);
                d->numSrcs = pick(DynInst::maxSrcs + 1);
                for (unsigned i = 0; i < d->numSrcs; ++i) {
                    d->physSrcs[i] = static_cast<PhysRegId>(pick(numRegs));
                    d->srcEpochs[i] = pick(6);
                }
                iq.insert(d);
                ref.insert(d);
            } else if (op < 7) {
                const auto reg = static_cast<PhysRegId>(pick(numRegs));
                const std::uint32_t epoch = pick(6);
                // The scoreboard sees the value first, as in
                // ExecDomain::localWakeup.
                sb.observe(reg, epoch);
                iq.wakeup(reg, epoch);
                ref.wakeup(reg, epoch);
            } else if (op < 9) {
                const unsigned width = pick(5);
                const BudgetFu fu{pick(4), pick(2) == 0};
                iq.selectIssue(width, BudgetFu(fu), issued);
                ASSERT_EQ(seqsOf(issued), ref.selectIssue(width, fu))
                    << "seed " << seed << " step " << step;
            } else {
                const InstSeqNum after =
                    oldest + pick(static_cast<unsigned>(next - oldest + 1));
                ASSERT_EQ(iq.squashAfter(after), ref.squashAfter(after));
                oldest = after;
            }
            ASSERT_EQ(iq.size(), ref.size());
            ASSERT_EQ(iq.wakeupMatches(), ref.wakeupMatches())
                << "seed " << seed << " step " << step;

            // Ready state: a select whose FU always refuses sees
            // exactly the entries whose operands are all ready.
            if (step % 16 == 0) {
                std::vector<InstSeqNum> mine, theirs;
                iq.selectIssue(
                    ~0u,
                    [&mine](const DynInst &d) {
                        mine.push_back(d.seq);
                        return false;
                    },
                    issued);
                ref.selectIssue(~0u, [&theirs](const DynInst &d) {
                    theirs.push_back(d.seq);
                    return false;
                });
                ASSERT_TRUE(issued.empty());
                ASSERT_EQ(mine, theirs)
                    << "seed " << seed << " step " << step;
            }
        }
    }
}

// ---------------------------------------------------------------- LSQ

TEST(Lsq, ForwardFromCompletedOlderStore)
{
    Lsq lsq(8);
    auto st = makeInst(1, InstClass::store);
    st->memAddr = 0x1000;
    st->completed = true;
    auto ld = makeInst(2, InstClass::load);
    ld->memAddr = 0x1008; // same 32B line
    lsq.insert(st);
    lsq.insert(ld);
    EXPECT_TRUE(lsq.loadForwards(ld));
}

TEST(Lsq, NoForwardFromIncompleteStore)
{
    Lsq lsq(8);
    auto st = makeInst(1, InstClass::store);
    st->memAddr = 0x1000;
    auto ld = makeInst(2, InstClass::load);
    ld->memAddr = 0x1000;
    lsq.insert(st);
    lsq.insert(ld);
    EXPECT_FALSE(lsq.loadForwards(ld));
}

TEST(Lsq, NoForwardFromYoungerStore)
{
    Lsq lsq(8);
    auto ld = makeInst(1, InstClass::load);
    ld->memAddr = 0x1000;
    auto st = makeInst(2, InstClass::store);
    st->memAddr = 0x1000;
    st->completed = true;
    lsq.insert(ld);
    lsq.insert(st);
    EXPECT_FALSE(lsq.loadForwards(ld));
}

TEST(Lsq, DifferentLineNoForward)
{
    Lsq lsq(8);
    auto st = makeInst(1, InstClass::store);
    st->memAddr = 0x1000;
    st->completed = true;
    auto ld = makeInst(2, InstClass::load);
    ld->memAddr = 0x1040;
    lsq.insert(st);
    lsq.insert(ld);
    EXPECT_FALSE(lsq.loadForwards(ld));
}

TEST(Lsq, RemoveAndSquash)
{
    Lsq lsq(8);
    auto st = makeInst(1, InstClass::store);
    auto ld = makeInst(2, InstClass::load);
    auto ld2 = makeInst(3, InstClass::load);
    lsq.insert(st);
    lsq.insert(ld);
    lsq.insert(ld2);
    lsq.removeLoad(2);
    EXPECT_EQ(lsq.size(), 2u);
    EXPECT_EQ(lsq.squashAfter(1), 1u);
    lsq.removeStore(1);
    EXPECT_EQ(lsq.size(), 0u);
}

// ------------------------------------------------------------ FU pool

TEST(FuPool, SimpleUnitsPerCycle)
{
    FuPool fu(2, 1, 0);
    fu.newCycle(0);
    EXPECT_TRUE(fu.available(InstClass::intAlu));
    fu.allocate(InstClass::intAlu, 1);
    fu.allocate(InstClass::intAlu, 1);
    EXPECT_FALSE(fu.available(InstClass::intAlu));
    fu.newCycle(1);
    EXPECT_TRUE(fu.available(InstClass::intAlu));
}

TEST(FuPool, BranchesShareSimpleAlus)
{
    FuPool fu(1, 1, 0);
    fu.newCycle(0);
    fu.allocate(InstClass::condBranch, 1);
    EXPECT_FALSE(fu.available(InstClass::intAlu));
}

TEST(FuPool, UnpipelinedDivideBlocksMulGroup)
{
    FuPool fu(4, 1, 0);
    fu.newCycle(0);
    fu.allocate(InstClass::intDiv, 20);
    fu.newCycle(1);
    EXPECT_FALSE(fu.available(InstClass::intMult));
    fu.newCycle(20);
    EXPECT_TRUE(fu.available(InstClass::intMult));
}

TEST(FuPool, PipelinedMultiplyIssuesEveryCycle)
{
    FuPool fu(4, 1, 0);
    fu.newCycle(0);
    fu.allocate(InstClass::intMult, 3);
    fu.newCycle(1);
    EXPECT_TRUE(fu.available(InstClass::intMult));
}

TEST(FuPool, MemPortsIndependent)
{
    FuPool fu(0, 0, 2);
    fu.newCycle(0);
    fu.allocate(InstClass::load, 1);
    fu.allocate(InstClass::store, 1);
    EXPECT_FALSE(fu.available(InstClass::load));
    fu.newCycle(1);
    EXPECT_TRUE(fu.available(InstClass::store));
}

// -------------------------------------------------------- Scoreboard

TEST(Scoreboard, EpochSemantics)
{
    Scoreboard sb(8);
    EXPECT_TRUE(sb.ready(3, 0));  // initial values ready
    EXPECT_FALSE(sb.ready(3, 1)); // allocated epoch pending
    sb.observe(3, 1);
    EXPECT_TRUE(sb.ready(3, 1));
    sb.observe(3, 0); // stale observe cannot regress
    EXPECT_TRUE(sb.ready(3, 1));
}

// ---------------------------------------------------- Instruction pool

TEST(DynInstPool, SquashedInstructionLivesUntilCompletionPops)
{
    DynInstPool pool;
    Rob rob(4);
    // Stand-in for ExecDomain's completion heap: the only other
    // holder of an issued instruction.
    std::vector<DynInstPtr> completions;
    {
        DynInstPtr d = pool.make();
        d->seq = 7;
        d->physDest = 3;
        rob.insert(d);
        completions.push_back(d);
    }
    EXPECT_EQ(pool.live(), 1u);

    EXPECT_EQ(rob.squashAfter(6, [](DynInst &) {}), 1u);
    ASSERT_EQ(pool.live(), 1u); // the heap still holds it
    EXPECT_TRUE(completions.front()->squashed);
    EXPECT_EQ(completions.front()->seq, 7u);
    EXPECT_EQ(completions.front()->physDest, 3);

    completions.pop_back();
    EXPECT_EQ(pool.live(), 0u);
}

TEST(DynInstPool, RecycledSlotComesBackDefaultInitialised)
{
    DynInstPool pool;
    const DynInst *first = nullptr;
    {
        DynInstPtr d = pool.make();
        first = d.get();
        d->seq = 42;
        d->numSrcs = 2;
        d->physDest = 9;
        d->squashed = true;
        d->completed = true;
        d->fifoResidency = 1234;
        d->domainCrossings = 3;
    }
    ASSERT_EQ(pool.live(), 0u);

    DynInstPtr again = pool.make();
    ASSERT_EQ(again.get(), first); // the same slot, recycled
    const DynInst fresh;
    EXPECT_EQ(again->seq, fresh.seq);
    EXPECT_EQ(again->numSrcs, fresh.numSrcs);
    EXPECT_EQ(again->physDest, fresh.physDest);
    EXPECT_EQ(again->squashed, fresh.squashed);
    EXPECT_EQ(again->completed, fresh.completed);
    EXPECT_EQ(again->fifoResidency, fresh.fifoResidency);
    EXPECT_EQ(again->domainCrossings, fresh.domainCrossings);
}

TEST(DynInstPool, CopiesShareOneSlotAndDrainToZero)
{
    DynInstPool pool;
    EXPECT_EQ(pool.slots(), 0u); // nothing preallocated
    std::vector<DynInstPtr> held;
    for (InstSeqNum s = 1; s <= 200; ++s) {
        DynInstPtr d = pool.make();
        d->seq = s;
        held.push_back(d);
        held.push_back(d); // a second holder of the same instruction
    }
    EXPECT_EQ(pool.live(), 200u);
    EXPECT_GE(pool.slots(), 200u);

    DynInstPtr moved = std::move(held.front());
    EXPECT_FALSE(held.front());
    EXPECT_EQ(moved->seq, 1u);

    held.clear();
    EXPECT_EQ(pool.live(), 1u);
    moved.reset();
    EXPECT_EQ(pool.live(), 0u);
}
