/**
 * @file
 * Clock domains for locally synchronous blocks.
 *
 * A ClockDomain is a periodic event source with a period, a phase
 * offset, and an ordered list of per-edge tickers. The base (fully
 * synchronous) processor binds all pipeline regions to one domain; the
 * GALS processor instantiates five, each with its own period and a
 * random phase, exactly as in section 4.2 of the paper.
 *
 * The period may be changed at run time (the change takes effect after
 * the current edge), which is the mechanism used for dynamic frequency
 * scaling. Each domain also carries a supply voltage so the power model
 * can charge energy at the right Vdd.
 *
 * Tickers are intrusive list nodes with a virtual tick(): pipeline
 * stages derive from ClockDomain::Ticker and register themselves, so
 * the per-edge hot path is a plain list walk with one indirect call per
 * stage — no std::function hop, no allocation, no deferred sorting.
 * Lists stay sorted at insertion (ascending priority, then
 * registration order).
 */

#ifndef SIM_CLOCK_DOMAIN_HH
#define SIM_CLOCK_DOMAIN_HH

#include <string>
#include <type_traits>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/intrusive_list.hh"
#include "sim/ticks.hh"

namespace gals
{

/**
 * One locally synchronous clock region.
 */
class ClockDomain
{
  public:
    /**
     * One per-edge registration, linked into the domain's sorted
     * intrusive ticker list. Pipeline stages derive from this and
     * override tick(); registration wires the object straight into
     * the edge walk. A still-registered ticker unregisters itself on
     * destruction.
     */
    class Ticker
    {
      public:
        /** Called once per rising edge of the registered domain. */
        virtual void tick() = 0;

        Ticker(const Ticker &) = delete;
        Ticker &operator=(const Ticker &) = delete;

      protected:
        Ticker() = default;
        virtual ~Ticker();

      private:
        friend class ClockDomain;
        friend class IntrusiveList<Ticker, DefaultListTag>;

        IntrusiveLink<Ticker> &intrusiveLink(DefaultListTag)
        {
            return link_;
        }

        IntrusiveLink<Ticker> link_;
        ClockDomain *tickerDomain_ = nullptr;
        int tickerPriority_ = 0;
    };

    /**
     * @param eq       owning event queue
     * @param name     diagnostic name
     * @param period   clock period in ticks (> 0)
     * @param phase    first-edge offset in ticks (< period typically)
     */
    ClockDomain(EventQueue &eq, std::string name, Tick period,
                Tick phase = 0);
    ~ClockDomain();

    ClockDomain(const ClockDomain &) = delete;
    ClockDomain &operator=(const ClockDomain &) = delete;

    /**
     * Register a Ticker subclass object, run on every rising edge in
     * ascending @p priority then registration order. The domain does
     * not take ownership; the object must outlive its registration
     * (or rely on the Ticker destructor's self-unregistration).
     * @return the registration handle (== &ticker).
     */
    template <typename T>
    std::enable_if_t<std::is_base_of_v<Ticker, T>, Ticker *>
    addTicker(T &ticker, int priority = 50)
    {
        registerTicker(&ticker, priority);
        return &ticker;
    }

    /**
     * Unregister a ticker; O(1). Safe to call from within the
     * running ticker's own tick(): the unlink is deferred until that
     * tick() returns (removing a *different* ticker mid-edge takes
     * effect immediately).
     */
    void removeTicker(Ticker *ticker);

    /** Begin ticking: schedules the first edge at the phase offset. */
    void start();

    /** Stop ticking after the current edge. */
    void stop();

    bool running() const { return running_; }

    /** Current period in ticks. */
    Tick period() const { return period_; }

    /**
     * Change the period; takes effect when scheduling the edge after
     * the next one already committed to the queue (or immediately if
     * called between edges on a stopped clock).
     */
    void setPeriod(Tick period);

    /** Frequency in MHz implied by the current period. */
    double frequencyMHz() const { return mhzFromPeriod(period_); }

    /** Phase offset of the first edge. */
    Tick phase() const { return phase_; }

    /** Change the phase offset; only valid before start(). */
    void setPhase(Tick phase);

    /** Completed edge count (cycle counter). */
    Cycle cycle() const { return cycle_; }

    /** Time of the most recent edge; 0 before the first edge. */
    Tick lastEdge() const { return lastEdge_; }

    /**
     * First edge occurring at or after time @p t, assuming the period
     * stays at its current value. Used to model when a consumer clocked
     * by this domain can first observe an asynchronous input.
     */
    Tick nextEdgeAt(Tick t) const;

    /** First edge strictly after time @p t. */
    Tick nextEdgeAfter(Tick t) const { return nextEdgeAt(t + 1); }

    /** Supply voltage of this domain (volts). */
    double vdd() const { return vdd_; }
    void setVdd(double v) { vdd_ = v; }

    const std::string &name() const { return name_; }
    EventQueue &eventQueue() { return eq_; }

  private:
    /** The domain edge as a typed periodic event: one virtual
     *  process() straight into edge(), no std::function hop. */
    class EdgeEvent final : public PeriodicEvent
    {
      public:
        EdgeEvent(ClockDomain &domain, Tick period, std::string name)
            : PeriodicEvent(period, std::move(name),
                            Event::clockEdgePri),
              domain_(domain)
        {
        }

        void process() override { domain_.edge(); }

      private:
        ClockDomain &domain_;
    };

    using TickerList = IntrusiveList<Ticker>;

    void registerTicker(Ticker *t, int priority);
    void unregisterTicker(Ticker *t);
    void edge();

    EventQueue &eq_;
    std::string name_;
    Tick period_;
    Tick phase_;
    Tick lastEdge_ = 0;
    bool seenEdge_ = false;
    Cycle cycle_ = 0;
    bool running_ = false;
    double vdd_ = 1.5;

    /** Sorted intrusive ticker list (ascending priority, then
     *  registration order). */
    TickerList tickers_;

    /** Ticker whose tick() is currently executing, if any. */
    Ticker *current_ = nullptr;
    /** The current ticker asked to remove itself; honoured by the
     *  edge walk once its tick() returns. */
    bool pendingSelfRemove_ = false;

    EdgeEvent edgeEvent_;
};

} // namespace gals

#endif // SIM_CLOCK_DOMAIN_HH
