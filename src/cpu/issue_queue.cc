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
    Entry e{inst};
    refreshReady(e);
    srcSum_ += inst->numSrcs;
    entries_.push_back(std::move(e));
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
