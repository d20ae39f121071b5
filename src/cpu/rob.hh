/**
 * @file
 * Reorder buffer: in-order window of in-flight instructions; supports
 * in-order commit from the head and squash-from-tail on misprediction
 * recovery.
 */

#ifndef CPU_ROB_HH
#define CPU_ROB_HH

#include <deque>

#include "isa/dyn_inst.hh"

namespace gals
{

/**
 * The reorder buffer (domain 2 in the GALS machine).
 */
class Rob
{
  public:
    explicit Rob(unsigned capacity);

    bool full() const { return q_.size() >= capacity_; }
    bool empty() const { return q_.empty(); }
    unsigned size() const { return static_cast<unsigned>(q_.size()); }
    unsigned capacity() const { return capacity_; }

    /** Insert at the tail (program order). */
    void insert(const DynInstPtr &inst);

    /** Oldest instruction; @pre !empty(). */
    const DynInstPtr &head() const;

    /** Remove the head (commit); @pre !empty(). */
    void popHead();

    /** Mark an in-flight instruction completed; false if not found. */
    bool markCompleted(InstSeqNum seq);

    /**
     * Remove every instruction younger than @p afterSeq, youngest
     * first, marking it squashed and invoking @p onSquash(DynInst &)
     * for each (used to release rename registers). @return number
     * squashed.
     */
    template <typename OnSquash>
    unsigned squashAfter(InstSeqNum afterSeq, OnSquash &&onSquash);

  private:
    unsigned capacity_;
    std::deque<DynInstPtr> q_; ///< strictly increasing seq
};

template <typename OnSquash>
unsigned
Rob::squashAfter(InstSeqNum afterSeq, OnSquash &&onSquash)
{
    unsigned n = 0;
    while (!q_.empty() && q_.back()->seq > afterSeq) {
        DynInstPtr inst = std::move(q_.back());
        q_.pop_back();
        inst->squashed = true;
        onSquash(*inst);
        ++n;
    }
    return n;
}

} // namespace gals

#endif // CPU_ROB_HH
