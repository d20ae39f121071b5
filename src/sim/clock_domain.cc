#include "sim/clock_domain.hh"

#include <utility>

#include "sim/logging.hh"

namespace gals
{

ClockDomain::Ticker::~Ticker()
{
    if (tickerDomain_ != nullptr)
        tickerDomain_->unregisterTicker(this);
}

ClockDomain::ClockDomain(EventQueue &eq, std::string name, Tick period,
                         Tick phase)
    : eq_(eq), name_(std::move(name)), period_(period), phase_(phase),
      edgeEvent_(*this, period, name_ + ".edge")
{
    gals_assert(period > 0, "clock domain '", name_,
                "' needs a positive period");
}

ClockDomain::~ClockDomain()
{
    while (Ticker *t = tickers_.popFront())
        t->tickerDomain_ = nullptr;
}

void
ClockDomain::registerTicker(Ticker *t, int priority)
{
    gals_assert(t->tickerDomain_ == nullptr, "clock domain '", name_,
                "': ticker is already registered");
    t->tickerDomain_ = this;
    t->tickerPriority_ = priority;

    // Insert before the first node with a strictly greater priority,
    // scanning from the tail: equal priorities keep registration
    // order, and typical registration (ascending or uniform priority)
    // appends in O(1).
    Ticker *pos = tickers_.tail();
    while (pos != nullptr && pos->tickerPriority_ > priority)
        pos = TickerList::prev(pos);
    tickers_.insertAfter(pos, t);
}

void
ClockDomain::unregisterTicker(Ticker *t)
{
    tickers_.unlink(t);
    t->tickerDomain_ = nullptr;
}

void
ClockDomain::removeTicker(Ticker *ticker)
{
    gals_assert(ticker != nullptr, "clock domain '", name_,
                "': removeTicker(nullptr)");
    gals_assert(ticker->tickerDomain_ == this, "clock domain '", name_,
                "': ticker is not registered here");
    if (ticker == current_) {
        // Called from within the ticker's own tick(): the edge walk
        // still holds this node, so defer the unlink until its
        // callback returns.
        pendingSelfRemove_ = true;
        return;
    }
    unregisterTicker(ticker);
}

void
ClockDomain::start()
{
    gals_assert(!running_, "clock domain '", name_, "' already running");
    running_ = true;
    edgeEvent_.resumeRepeat();
    Tick first = eq_.now() + phase_;
    eq_.schedule(&edgeEvent_, first);
}

void
ClockDomain::stop()
{
    if (!running_)
        return;
    running_ = false;
    if (edgeEvent_.scheduled())
        eq_.deschedule(&edgeEvent_);
    edgeEvent_.cancelRepeat();
}

void
ClockDomain::setPeriod(Tick period)
{
    gals_assert(period > 0, "clock domain '", name_,
                "' needs a positive period");
    period_ = period;
    edgeEvent_.period(period);
}

void
ClockDomain::setPhase(Tick phase)
{
    gals_assert(!running_ && !seenEdge_, "clock domain '", name_,
                "': cannot change phase after starting");
    phase_ = phase;
}

Tick
ClockDomain::nextEdgeAt(Tick t) const
{
    // Reference edge: the next one committed to the queue if running,
    // otherwise extrapolate from the phase.
    Tick ref;
    if (edgeEvent_.scheduled())
        ref = edgeEvent_.when();
    else if (seenEdge_)
        ref = lastEdge_ + period_;
    else
        ref = phase_;

    if (t <= ref)
        return ref;
    const Tick delta = t - ref;
    const Tick steps = (delta + period_ - 1) / period_;
    return ref + steps * period_;
}

void
ClockDomain::edge()
{
    lastEdge_ = eq_.now();
    seenEdge_ = true;
    ++cycle_;

    // The successor is read *after* tick() so the walk observes
    // mid-tick insertions after the current node and mid-tick
    // removals of later nodes; only removal of the node whose tick()
    // is running is deferred (see removeTicker).
    Ticker *t = tickers_.head();
    while (t != nullptr) {
        current_ = t;
        pendingSelfRemove_ = false;
        t->tick();
        Ticker *next = TickerList::next(t);
        current_ = nullptr;
        if (pendingSelfRemove_) {
            pendingSelfRemove_ = false;
            unregisterTicker(t);
        }
        t = next;
    }
}

} // namespace gals
