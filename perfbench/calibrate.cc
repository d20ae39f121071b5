/**
 * @file
 * Host-speed calibration kernel (see calibrate.hh).
 */

#include "perfbench/calibrate.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench
{
namespace
{

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/** Folded kernel results, so no rep is optimized away. */
volatile std::uint64_t sink;

} // namespace

double
calibrationRepS()
{
    thread_local std::vector<std::uint32_t> table(1u << 17, 1);
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::vector<Event> heap;
    heap.reserve(4096);

    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 88172645463325252ull, acc = 0;
    for (unsigned i = 0; i < 400000; ++i) {
        std::uint32_t &e = table[xorshift(x) & (table.size() - 1)];
        if ((x >> 20) & 1)
            e += static_cast<std::uint32_t>(acc);
        else
            acc += e;
        acc = acc * 31 + ((e & 7) ? 1 : e);
    }
    for (std::uint32_t i = 0; i < 4000; ++i) {
        heap.emplace_back(xorshift(x), i);
        std::push_heap(heap.begin(), heap.end());
    }
    for (unsigned i = 0; i < 60000; ++i) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back().first -= xorshift(x) & 1023;
        std::push_heap(heap.begin(), heap.end());
    }
    const auto t1 = std::chrono::steady_clock::now();
    sink = acc + heap.front().second;
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace perfbench
