/**
 * @file
 * Dynamic instruction: one fetched micro-op in flight, carrying its
 * renamed operands, control-flow resolution and the timestamps the
 * paper's evaluation metrics are computed from (slip, FIFO residency).
 */

#ifndef ISA_DYN_INST_HH
#define ISA_DYN_INST_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "isa/inst.hh"
#include "sim/ticks.hh"

namespace gals
{

/** Monotonically increasing dynamic instruction sequence number. */
using InstSeqNum = std::uint64_t;

/**
 * A dynamic instruction in flight.
 *
 * A plain value type. In-flight instances live in a DynInstPool and
 * are held through DynInstPtr handles: the ROB, issue queues, LSQ,
 * channels and completion heaps all hold references while the
 * instruction traverses the machine.
 */
class DynInst
{
  public:
    static constexpr unsigned maxSrcs = 3;

    DynInst() = default;

    /** @name Static content (filled by fetch from the workload) */
    /// @{
    InstSeqNum seq = 0;
    std::uint64_t pc = 0;
    std::uint64_t index = 0;       ///< correct-path stream index
    InstClass cls = InstClass::intAlu;
    unsigned numSrcs = 0;
    RegId srcs[maxSrcs] = {invalidReg, invalidReg, invalidReg};
    RegId dest = invalidReg;
    bool wrongPath = false;        ///< fetched down a mispredicted path
    /// @}

    /** @name Control flow */
    /// @{
    bool predTaken = false;
    bool actualTaken = false;
    std::uint64_t predTarget = 0;
    std::uint64_t actualTarget = 0;
    bool mispredicted = false;     ///< known at resolve time
    bool btbMiss = false;
    /// @}

    /** @name Memory */
    /// @{
    std::uint64_t memAddr = 0;
    /// @}

    /** @name Renamed operands (filled at rename) */
    /// @{
    PhysRegId physSrcs[maxSrcs] = {invalidPhysReg, invalidPhysReg,
                                   invalidPhysReg};
    std::uint32_t srcEpochs[maxSrcs] = {0, 0, 0};
    PhysRegId physDest = invalidPhysReg;
    PhysRegId oldPhysDest = invalidPhysReg;
    std::uint32_t destEpoch = 0;
    /// @}

    /** @name Machine state */
    /// @{
    bool squashed = false;
    bool completed = false;
    /// @}

    /** @name Timestamps (ticks) for slip / FIFO accounting */
    /// @{
    Tick fetchTick = 0;
    Tick decodeTick = 0;
    Tick dispatchTick = 0;
    Tick issueTick = 0;
    Tick completeTick = 0;
    Tick commitTick = 0;
    Tick fifoResidency = 0;  ///< total time spent inside channels
    unsigned domainCrossings = 0;
    /// @}

    bool isBranch() const { return isBranchClass(cls); }
    bool isLoad() const { return cls == InstClass::load; }
    bool isStore() const { return cls == InstClass::store; }
    bool isMem() const { return isMemClass(cls); }
    bool isFp() const { return isFpClass(cls); }
    bool hasDest() const { return dest != invalidReg; }

    /** Slip: fetch-to-commit latency (paper Figure 6). */
    Tick slip() const { return commitTick - fetchTick; }

    /** One-line debug rendering. */
    std::string toString() const;
};

class DynInstPool;

/** One pool slot: the instruction plus its intrusive reference count. */
struct DynInstSlot
{
    DynInst inst;
    std::uint32_t refs = 0;
    DynInstPool *pool = nullptr;
};

/**
 * Counted handle to a pooled DynInst. Counting is intrusive and
 * non-atomic: a Processor and everything that holds its instructions
 * run on one thread. The slot returns to its pool when the last handle
 * drops. Only DynInstPool::make() creates non-null handles.
 */
class DynInstPtr
{
  public:
    DynInstPtr() = default;

    DynInstPtr(const DynInstPtr &o) : s_(o.s_)
    {
        if (s_ != nullptr)
            ++s_->refs;
    }

    DynInstPtr(DynInstPtr &&o) noexcept : s_(std::exchange(o.s_, nullptr))
    {
    }

    DynInstPtr &
    operator=(const DynInstPtr &o)
    {
        DynInstPtr(o).swap(*this);
        return *this;
    }

    DynInstPtr &
    operator=(DynInstPtr &&o) noexcept
    {
        DynInstPtr(std::move(o)).swap(*this);
        return *this;
    }

    ~DynInstPtr() { release(); }

    void swap(DynInstPtr &o) noexcept { std::swap(s_, o.s_); }

    /** Drop this reference; the handle becomes null. */
    void
    reset()
    {
        release();
        s_ = nullptr;
    }

    DynInst *get() const { return s_ != nullptr ? &s_->inst : nullptr; }
    DynInst *operator->() const { return &s_->inst; }
    DynInst &operator*() const { return s_->inst; }
    explicit operator bool() const { return s_ != nullptr; }

    bool operator==(std::nullptr_t) const { return s_ == nullptr; }

  private:
    friend class DynInstPool;

    explicit DynInstPtr(DynInstSlot *s) : s_(s) { ++s_->refs; }

    inline void release();

    DynInstSlot *s_ = nullptr;
};

/**
 * Free-list pool of in-flight instructions, one per Processor.
 *
 * Storage grows on demand in fixed-size chunks and is never returned
 * until the pool dies, so once the pool has reached the machine's peak
 * in-flight count, make() and the last handle's release perform no
 * allocation. Nothing
 * is preallocated at construction. Every handle must be dropped
 * before the pool is destroyed; a Processor guarantees that by
 * declaring its pool ahead of every channel and stage.
 *
 * Under AddressSanitizer free slots are poisoned, so a dangling handle
 * faults instead of reading a recycled instruction.
 */
class DynInstPool
{
  public:
    DynInstPool() = default;
    ~DynInstPool();

    DynInstPool(const DynInstPool &) = delete;
    DynInstPool &operator=(const DynInstPool &) = delete;

    /** A default-initialised instruction with one reference. */
    DynInstPtr
    make()
    {
        if (free_.empty())
            grow();
        DynInstSlot *s = free_.back();
        free_.pop_back();
        unpoison(s);
        new (&s->inst) DynInst();
        ++live_;
        return DynInstPtr(s);
    }

    /** Instructions currently referenced by at least one handle. */
    std::size_t live() const { return live_; }

    /** Slots allocated so far (live + free). */
    std::size_t slots() const { return chunks_.size() * chunkSlots; }

  private:
    friend class DynInstPtr;

    static constexpr std::size_t chunkSlots = 64;

    void
    recycle(DynInstSlot *s)
    {
        --live_;
        // free_ was reserved to slots() in grow(): no allocation here.
        free_.push_back(s);
        poison(s);
    }

    void grow();

    static void
    poison(DynInstSlot *s)
    {
#if defined(__SANITIZE_ADDRESS__)
        ASAN_POISON_MEMORY_REGION(s, sizeof(DynInstSlot));
#else
        (void)s;
#endif
    }

    static void
    unpoison(DynInstSlot *s)
    {
#if defined(__SANITIZE_ADDRESS__)
        ASAN_UNPOISON_MEMORY_REGION(s, sizeof(DynInstSlot));
#else
        (void)s;
#endif
    }

    std::vector<std::unique_ptr<DynInstSlot[]>> chunks_;
    std::vector<DynInstSlot *> free_;
    std::size_t live_ = 0;
};

inline void
DynInstPtr::release()
{
    if (s_ != nullptr && --s_->refs == 0)
        s_->pool->recycle(s_);
}

} // namespace gals

#endif // ISA_DYN_INST_HH
