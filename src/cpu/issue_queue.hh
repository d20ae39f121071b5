/**
 * @file
 * Out-of-order issue queue (one of three: int / fp / mem, paper Table
 * 3). Entries wait for their source operands to become ready in the
 * owning domain's scoreboard view and issue oldest-first.
 */

#ifndef CPU_ISSUE_QUEUE_HH
#define CPU_ISSUE_QUEUE_HH

#include <string>
#include <vector>

#include "cpu/scoreboard.hh"
#include "isa/dyn_inst.hh"
#include "sim/logging.hh"

namespace gals
{

/**
 * Age-ordered issue queue. The scoreboard is its only readiness
 * source, read at insert and at select; a wakeup sets nothing.
 */
class IssueQueue
{
  public:
    IssueQueue(std::string name, unsigned capacity,
               const Scoreboard &view);

    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    unsigned size() const
    {
        return static_cast<unsigned>(entries_.size());
    }

    /** Insert at dispatch; readiness snapshot from the scoreboard. */
    void insert(const DynInstPtr &inst);

    /** A wakeup for (@p reg, @p epoch), which the scoreboard has
     *  already observed, arrived: count its tag compares. */
    void
    wakeup(PhysRegId reg, std::uint32_t epoch)
    {
        gals_assert(view_.ready(reg, epoch), "issue queue '", name_,
                    "': wakeup (", reg, ", ", epoch, ") not observed");
        wakeupMatches_ += srcSum_;
    }

    /**
     * Select up to @p width ready instructions, oldest first, subject
     * to @p fuAvailable(const DynInst &) (checked and consumed per
     * candidate), into @p issued, which is cleared first. Selected
     * entries are removed from the queue; survivors keep their age
     * order.
     */
    template <typename FuAvailable>
    void selectIssue(unsigned width, FuAvailable &&fuAvailable,
                     std::vector<DynInstPtr> &issued);

    /** Remove all entries younger than @p afterSeq. @return count. */
    unsigned squashAfter(InstSeqNum afterSeq);

    /**
     * Number of wakeup-match operations (power accounting): every
     * wakeup compares its tag against every source operand of every
     * queued entry.
     */
    std::uint64_t wakeupMatches() const { return wakeupMatches_; }

    const std::string &name() const { return name_; }

  private:
    struct Entry
    {
        DynInstPtr inst;
        bool allReady = false;
    };

    /** Latch allReady once the scoreboard shows every operand ready;
     *  its epochs only grow, so a ready entry stays so. */
    void
    refreshReady(Entry &e) const
    {
        if (e.allReady)
            return;
        for (unsigned i = 0; i < e.inst->numSrcs; ++i)
            if (!view_.ready(e.inst->physSrcs[i], e.inst->srcEpochs[i]))
                return;
        e.allReady = true;
    }

    std::string name_;
    unsigned capacity_;
    const Scoreboard &view_;
    std::vector<Entry> entries_; ///< kept in age order
    std::uint64_t srcSum_ = 0;   ///< sum of numSrcs over entries_
    std::uint64_t wakeupMatches_ = 0;
};

template <typename FuAvailable>
void
IssueQueue::selectIssue(unsigned width, FuAvailable &&fuAvailable,
                        std::vector<DynInstPtr> &issued)
{
    issued.clear();
    if (width == 0)
        return;

    // One pass: entries that stay are compacted towards the front in
    // age order; the scan stops once the width is filled and the
    // unvisited tail slides down behind the survivors.
    const std::size_t n = entries_.size();
    std::size_t keep = 0;
    std::size_t i = 0;
    for (; i < n && issued.size() < width; ++i) {
        Entry &e = entries_[i];
        refreshReady(e);
        if (e.allReady && fuAvailable(*e.inst)) {
            srcSum_ -= e.inst->numSrcs;
            issued.push_back(std::move(e.inst));
        } else {
            if (keep != i)
                entries_[keep] = std::move(e);
            ++keep;
        }
    }
    if (keep != i) {
        for (; i < n; ++i)
            entries_[keep++] = std::move(entries_[i]);
        entries_.erase(entries_.begin() + keep, entries_.end());
    }
}

} // namespace gals

#endif // CPU_ISSUE_QUEUE_HH
