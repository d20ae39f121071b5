/**
 * @file
 * General-purpose event-driven simulation engine.
 *
 * This is the C++ analogue of the engine described in section 4.2 of
 * the paper: an event queue ordered by (time, priority) plus a global
 * timer. Events may be one-shot or periodic; periodic events model
 * clocked systems by rescheduling themselves one period into the
 * future, and any mixture of periodic and aperiodic events can be
 * simulated together, which is what makes multi-clock-domain (GALS)
 * simulation possible.
 *
 * The queue is a calendar queue / bucketed timing wheel (Brown, CACM
 * 1988) with dynamic resize. Events carry embedded bucket links, so
 * schedule/deschedule never allocate, and all operations are O(1)
 * amortized when the bucket width tracks the inter-event gap — which
 * it does for the clock-edge traffic that dominates GALS simulation.
 * Events pop in (time, priority, insertion-seq) order;
 * tests/test_calendar_queue.cc pins that order against an ordered-set
 * reference model.
 *
 * The dispatch path is typed and allocation-free: process() is the
 * only indirect call per event (no std::function hop, no dynamic_cast
 * probing — periodic events carry a flag set at construction). A
 * cached minimum makes same-tick pops O(1), and periodic repeats
 * re-enter the calendar through a fast reinsert that skips the
 * scheduling asserts and the grow check (the pop that delivered the
 * event just vacated the slot).
 */

#ifndef SIM_EVENT_QUEUE_HH
#define SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/intrusive_list.hh"
#include "sim/ticks.hh"

namespace gals
{

class EventQueue;

/** Tag for the calendar-bucket list an Event is linked into. */
struct EventBucketTag
{
};

/**
 * An occurrence scheduled on an EventQueue.
 *
 * Subclasses implement process(). An event object is owned by its
 * creator; the queue never deletes events. One event object can be
 * scheduled at most once at a time.
 *
 * The queue links scheduled events into its buckets through an
 * embedded IntrusiveLink, so scheduling an event never allocates
 * memory.
 */
class Event
{
  public:
    /** Default priorities; lower value executes first within a tick. */
    enum Priority : int
    {
        clockEdgePri = 0,    ///< clock-domain edges
        defaultPri = 50,     ///< ordinary events
        statsPri = 90,       ///< end-of-interval statistics
    };

    explicit Event(std::string name = "event", int priority = defaultPri);
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the queue when simulated time reaches when(). */
    virtual void process() = 0;

    /** Scheduled time; valid only while scheduled() is true. */
    Tick when() const { return when_; }

    /** Tie-break priority; lower executes first at equal time. */
    int priority() const { return priority_; }

    /** True while the event sits in a queue. */
    bool scheduled() const { return queue_ != nullptr; }

    const std::string &name() const { return name_; }

  protected:
    /** Subclass constructor tagging the event as periodic, so the
     *  queue reschedules it after process() without RTTI probing.
     *  Only PeriodicEvent may set this. */
    Event(std::string name, int priority, bool periodic);

  private:
    friend class EventQueue;
    friend class IntrusiveList<Event, EventBucketTag>;

    IntrusiveLink<Event, EventBucketTag> &
    intrusiveLink(EventBucketTag)
    {
        return calLink_;
    }

    std::string name_;
    int priority_;
    bool periodic_ = false;     ///< reschedule after process()
    Tick when_ = 0;
    std::uint64_t seq_ = 0;     ///< insertion order tie-break
    EventQueue *queue_ = nullptr;

    /** @name Intrusive calendar-bucket links
     * Valid only while scheduled. */
    /// @{
    IntrusiveLink<Event, EventBucketTag> calLink_;
    std::size_t bucket_ = 0;    ///< owning bucket index
    /// @}
};

/**
 * Periodic event: reschedules itself every period() ticks, exactly as
 * the paper's engine does for clocked systems. The period may be
 * changed from within process(); the new value applies to the next
 * rescheduling, which models dynamic frequency scaling.
 *
 * Hot-path subclasses (e.g. a clock domain's edge event) use the
 * protected constructor and override process() directly — one virtual
 * call per occurrence, no std::function.
 */
class PeriodicEvent : public Event
{
  public:
    PeriodicEvent(std::function<void()> fn, Tick period,
                  std::string name = "periodic",
                  int priority = clockEdgePri);

    void process() override;

    Tick period() const { return period_; }
    void period(Tick p);

    /** Stop after the current occurrence (deschedules the repeat). */
    void cancelRepeat() { repeating_ = false; }
    void resumeRepeat() { repeating_ = true; }

    /** Whether the event currently wants to repeat. */
    bool repeatingNow() const { return repeating_; }

  protected:
    /** For typed subclasses that override process() themselves. */
    PeriodicEvent(Tick period, std::string name, int priority);

  private:
    std::function<void()> fn_;
    Tick period_;
    bool repeating_ = true;
};

/**
 * The event queue and global timer.
 *
 * Events at equal (time, priority) execute in insertion order, which
 * keeps simulations deterministic.
 */
class EventQueue
{
  public:
    /** @name Calendar-queue tuning parameters
     *
     * The wheel starts with calInitialBuckets buckets of
     * calInitialWidth ticks each (sized for the ~1000-tick clock
     * periods that dominate this simulator) and resizes itself: with
     * N buckets, it doubles N when the population exceeds
     * calGrowPerBucket * N events and halves N when the population
     * falls below N / calShrinkDivisor events (never below
     * calInitialBuckets); the factor-4 gap between the two thresholds
     * is the hysteresis that prevents resize thrash. On every resize
     * the bucket width is re-derived as the pending events' time span
     * divided by their count (the average inter-event gap), rounded to
     * the nearest power of two >= 1 tick, which keeps roughly one
     * event per bucket-year. Bucket counts and widths stay powers of
     * two so both the bucket index and the year number are shifts and
     * masks, not divisions.
     */
    /// @{
    static constexpr std::size_t calInitialBuckets = 8;
    static constexpr unsigned calInitialWidthLog2 = 10; ///< 1024 ticks
    /** Grow when size() > calGrowPerBucket * bucket count. */
    static constexpr std::size_t calGrowPerBucket = 2;
    /** Shrink when size() < bucket count / calShrinkDivisor. */
    static constexpr std::size_t calShrinkDivisor = 2;
    /// @}

    explicit EventQueue(std::string name = "eventq");
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time (the global timer). */
    Tick now() const { return now_; }

    /** Schedule @p ev at absolute time @p when (>= now()). */
    void schedule(Event *ev, Tick when);

    /** Remove a scheduled event. */
    void deschedule(Event *ev);

    /** Reschedule to a new time whether or not currently scheduled. */
    void reschedule(Event *ev, Tick when);

    /** True if no events are pending. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Time of the next pending event; maxTick if none. */
    Tick nextEventTime() const;

    /**
     * Execute the single next event; returns false if the queue was
     * empty.
     */
    bool serviceOne();

    /**
     * Run until simulated time would exceed @p until or the queue
     * drains. Events scheduled exactly at @p until are executed.
     * @return number of events processed.
     */
    std::uint64_t runUntil(Tick until);

    /** Run until the queue drains; @return events processed. */
    std::uint64_t runAll();

    /** Total events processed since construction. */
    std::uint64_t processedCount() const { return processed_; }

    /** Current bucket count. */
    std::size_t calendarBuckets() const { return buckets_.size(); }

    /** Current bucket width in ticks. */
    Tick calendarBucketWidth() const { return Tick(1) << widthLog2_; }

    const std::string &name() const { return name_; }

  private:
    /** Pop order: (when, priority, insertion seq). */
    struct Less
    {
        bool
        operator()(const Event *a, const Event *b) const
        {
            if (a->when_ != b->when_)
                return a->when_ < b->when_;
            if (a->priority_ != b->priority_)
                return a->priority_ < b->priority_;
            return a->seq_ < b->seq_;
        }
    };

    /** One wheel slot: a (when, priority, seq)-sorted intrusive list. */
    using Bucket = IntrusiveList<Event, EventBucketTag>;

    std::size_t bucketIndex(Tick when) const
    {
        return static_cast<std::size_t>(when >> widthLog2_) &
               (buckets_.size() - 1);
    }

    void calInsert(Event *ev);
    void calRemove(Event *ev);
    /** Wheel search for the cheapest pending event behind an unknown
     *  min cache; nullptr when empty (caches the result). */
    Event *calFindMin() const;
    void calResize(std::size_t newBuckets);
    void calMaybeShrink();

    /** Cheapest pending event without detaching it; nullptr if none.
     *  Inline: with a warm min cache this is three loads, and it runs
     *  once per pop. */
    Event *
    peekMin() const
    {
        if (minCache_ != nullptr)
            return minCache_;
        return calFindMin();
    }
    /** Unlink a pending event and shrink the wheel if it thins out. */
    void detach(Event *ev);
    /** Detach @p ev and fire it: advance the timer, process(), and
     *  re-queue a periodic repeat. */
    void service(Event *ev);
    /** Re-queue a just-fired periodic event at now() + period():
     *  same effect as schedule(), minus the scheduling asserts and
     *  the grow check (the preceding pop vacated the slot). */
    void schedulePeriodicRepeat(PeriodicEvent *ev);

    std::string name_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    std::size_t size_ = 0;

    std::vector<Bucket> buckets_;
    unsigned widthLog2_ = calInitialWidthLog2;
    /** Cached minimum; nullptr means "unknown", recomputed lazily.
     *  When non-null it always points at the true minimum. */
    mutable Event *minCache_ = nullptr;
};

} // namespace gals

#endif // SIM_EVENT_QUEUE_HH
