#include "cpu/issue_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace gals
{

IssueQueue::IssueQueue(std::string name, unsigned capacity,
                       const Scoreboard &view)
    : name_(std::move(name)), capacity_(capacity), view_(view)
{
    gals_assert(capacity_ > 0, "issue queue '", name_, "': no capacity");
}

void
IssueQueue::insert(const DynInstPtr &inst)
{
    gals_assert(!full(), "insert into full issue queue '", name_, "'");
    Entry e;
    e.inst = inst;
    for (unsigned i = 0; i < DynInst::maxSrcs; ++i)
        e.ready[i] = i >= inst->numSrcs;
    refreshReady(e);
    srcSum_ += inst->numSrcs;
    entries_.push_back(std::move(e));
}

void
IssueQueue::wakeup(PhysRegId reg, std::uint32_t epoch)
{
    // The tag is compared against every source of every entry.
    wakeupMatches_ += srcSum_;
    for (auto &e : entries_) {
        if (e.allReady)
            continue; // ready bits only ever turn on
        for (unsigned i = 0; i < e.inst->numSrcs; ++i) {
            if (!e.ready[i] && e.inst->physSrcs[i] == reg &&
                e.inst->srcEpochs[i] <= epoch)
                e.ready[i] = true;
        }
    }
}

unsigned
IssueQueue::squashAfter(InstSeqNum afterSeq)
{
    const auto old_size = entries_.size();
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [this, afterSeq](const Entry &e) {
                                      if (e.inst->seq <= afterSeq)
                                          return false;
                                      srcSum_ -= e.inst->numSrcs;
                                      return true;
                                  }),
                   entries_.end());
    return static_cast<unsigned>(old_size - entries_.size());
}

} // namespace gals
