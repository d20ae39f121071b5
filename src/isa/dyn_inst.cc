#include "isa/dyn_inst.hh"

#include <sstream>

#include "sim/logging.hh"

namespace gals
{

std::string
DynInst::toString() const
{
    std::ostringstream os;
    os << "[" << seq << "] " << instClassName(cls) << " pc=0x" << std::hex
       << pc << std::dec;
    if (dest != invalidReg)
        os << " d=r" << dest << "(p" << physDest << ")";
    for (unsigned i = 0; i < numSrcs; ++i)
        os << " s" << i << "=r" << srcs[i] << "(p" << physSrcs[i] << ")";
    if (isMem())
        os << " addr=0x" << std::hex << memAddr << std::dec;
    if (isBranch()) {
        os << (actualTaken ? " T" : " N") << (predTaken ? "/pT" : "/pN");
        if (mispredicted)
            os << " MISP";
    }
    if (wrongPath)
        os << " WP";
    if (squashed)
        os << " SQ";
    return os.str();
}

DynInstPool::~DynInstPool()
{
    gals_assert(live_ == 0, live_,
                " instruction(s) still referenced at pool destruction");
    for (auto &chunk : chunks_)
        for (std::size_t i = 0; i < chunkSlots; ++i)
            unpoison(&chunk[i]);
}

void
DynInstPool::grow()
{
    auto chunk = std::make_unique<DynInstSlot[]>(chunkSlots);
    DynInstSlot *base = chunk.get();
    chunks_.push_back(std::move(chunk));
    free_.reserve(slots());
    // Pushed highest address first, so make() hands out the lowest.
    for (std::size_t i = chunkSlots; i-- > 0;) {
        base[i].pool = this;
        free_.push_back(&base[i]);
        poison(&base[i]);
    }
}

} // namespace gals
