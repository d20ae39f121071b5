/**
 * @file
 * Flat main-memory timing model: fixed latency, access counting.
 */

#ifndef CACHE_MEMORY_HH
#define CACHE_MEMORY_HH

#include <cstdint>

namespace gals
{

/**
 * Main memory behind the L2: constant-latency, infinite capacity.
 */
class MemoryModel
{
  public:
    explicit MemoryModel(unsigned latencyCycles = 60)
        : latency_(latencyCycles)
    {
    }

    /** Record an access and return its latency in cycles. */
    unsigned
    access()
    {
        ++accesses_;
        return latency_;
    }

    unsigned latency() const { return latency_; }
    std::uint64_t accesses() const { return accesses_; }

  private:
    unsigned latency_;
    std::uint64_t accesses_ = 0;
};

} // namespace gals

#endif // CACHE_MEMORY_HH
