#include "cpu/rob.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace gals
{

Rob::Rob(unsigned capacity) : capacity_(capacity)
{
    gals_assert(capacity_ > 0, "ROB needs capacity");
}

void
Rob::insert(const DynInstPtr &inst)
{
    gals_assert(!full(), "insert into full ROB");
    gals_assert(q_.empty() || q_.back()->seq < inst->seq,
                "ROB insert out of program order");
    q_.push_back(inst);
}

const DynInstPtr &
Rob::head() const
{
    gals_assert(!empty(), "head() on empty ROB");
    return q_.front();
}

void
Rob::popHead()
{
    gals_assert(!empty(), "popHead() on empty ROB");
    q_.pop_front();
}

bool
Rob::markCompleted(InstSeqNum seq)
{
    // Completions arrive out of order. Seqs strictly increase along
    // the window, so @p seq sits at most (seq - head) slots in: probe
    // that slot (the window is usually gap-free), else binary-search
    // the slots before it.
    if (q_.empty() || seq < q_.front()->seq)
        return false;
    const std::uint64_t last = std::min<std::uint64_t>(
        seq - q_.front()->seq, q_.size() - 1);
    auto it = q_.begin() + static_cast<std::ptrdiff_t>(last);
    if ((*it)->seq != seq) {
        it = std::lower_bound(q_.begin(), it, seq,
                              [](const DynInstPtr &inst, InstSeqNum s) {
                                  return inst->seq < s;
                              });
        if ((*it)->seq != seq)
            return false;
    }
    (*it)->completed = true;
    return true;
}

} // namespace gals
