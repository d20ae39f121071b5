/**
 * @file
 * EventQueue pop order against an ordered-set reference model.
 *
 * The calendar queue must pop events in exactly (time, priority,
 * insertion-seq) order for any schedule/deschedule/reschedule/service
 * history, including same-tick ties, periodic repeats, runUntil
 * boundary hits and wheel resizes. OracleQueue is that contract
 * written as the obvious std::set model; each scenario below is a
 * template run once on the real queue and once on the oracle, and the
 * full (event, time) pop logs must match. The remaining tests pin the
 * calendar-specific machinery (resize geometry, destructor safety)
 * and clock-domain traffic on top of the queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/channel.hh"
#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "tests/callback_adapters.hh"

using namespace gals;

namespace
{

/** One (event id, fire time) pop record. */
using PopLog = std::vector<std::pair<int, Tick>>;

/** A scenario's event: tie-break priority, period (0 = one-shot). */
struct EventSpec
{
    int priority = Event::defaultPri;
    Tick period = 0;
};

/**
 * The scheduling contract as a reference model: pending events in a
 * std::set ordered by (when, priority, insertion seq); a periodic
 * event that is still repeating and was not rescheduled by its own
 * callback re-enters at now + period with a fresh seq.
 */
class OracleQueue
{
  public:
    std::function<void(int)> onFire;

    explicit OracleQueue(std::vector<EventSpec> specs)
        : specs_(std::move(specs)), state_(specs_.size())
    {
    }

    Tick now() const { return now_; }
    bool scheduled(int id) const { return state_[id].pending; }
    bool empty() const { return pending_.empty(); }

    void
    schedule(int id, Tick when)
    {
        State &s = state_[id];
        s.key = {when, specs_[id].priority, nextSeq_++, id};
        s.pending = true;
        pending_.insert(s.key);
    }

    void
    deschedule(int id)
    {
        pending_.erase(state_[id].key);
        state_[id].pending = false;
    }

    void
    reschedule(int id, Tick when)
    {
        if (scheduled(id))
            deschedule(id);
        schedule(id, when);
    }

    bool
    serviceOne()
    {
        if (pending_.empty())
            return false;
        const Key key = *pending_.begin();
        const int id = std::get<3>(key);
        deschedule(id);
        now_ = std::get<0>(key);
        onFire(id);
        if (specs_[id].period > 0 && state_[id].repeating &&
            !state_[id].pending)
            schedule(id, now_ + specs_[id].period);
        return true;
    }

    void
    runUntil(Tick until)
    {
        while (!pending_.empty() &&
               std::get<0>(*pending_.begin()) <= until)
            serviceOne();
        now_ = std::max(now_, until);
    }

    void runAll() { while (serviceOne()) {} }

    void cancelRepeat(int id) { state_[id].repeating = false; }

  private:
    /** (when, priority, seq, id); seq is unique, so id never decides. */
    using Key = std::tuple<Tick, int, std::uint64_t, int>;

    struct State
    {
        Key key{};
        bool pending = false;
        bool repeating = true;
    };

    std::vector<EventSpec> specs_;
    std::vector<State> state_;
    std::set<Key> pending_;
    std::uint64_t nextSeq_ = 0;
    Tick now_ = 0;
};

/** The real EventQueue behind OracleQueue's interface. */
class CalendarHarness
{
  public:
    std::function<void(int)> onFire;

    explicit CalendarHarness(const std::vector<EventSpec> &specs)
    {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const int id = static_cast<int>(i);
            auto fire = [this, id] { onFire(id); };
            const std::string name = "ev" + std::to_string(id);
            if (specs[i].period > 0)
                events_.push_back(std::make_unique<PeriodicEvent>(
                    fire, specs[i].period, name, specs[i].priority));
            else
                events_.push_back(std::make_unique<CallbackEvent>(
                    fire, name, specs[i].priority));
        }
    }

    Tick now() const { return eq.now(); }
    bool scheduled(int id) const { return events_[id]->scheduled(); }
    bool empty() const { return eq.empty(); }
    void schedule(int id, Tick when) { eq.schedule(ev(id), when); }
    void deschedule(int id) { eq.deschedule(ev(id)); }
    void reschedule(int id, Tick when) { eq.reschedule(ev(id), when); }
    bool serviceOne() { return eq.serviceOne(); }
    void runUntil(Tick until) { eq.runUntil(until); }
    void runAll() { eq.runAll(); }

    void
    cancelRepeat(int id)
    {
        static_cast<PeriodicEvent *>(ev(id))->cancelRepeat();
    }

  private:
    Event *ev(int id) { return events_[id].get(); }

    EventQueue eq{"calendar"};
    /** Declared after eq: destroyed first, while it can deschedule. */
    std::vector<std::unique_ptr<Event>> events_;
};

/** Run @p scenario on both queues; both pop logs must match. */
#define EXPECT_MATCHES_ORACLE(scenario, ...)                           \
    do {                                                               \
        const PopLog cal = scenario<CalendarHarness>(__VA_ARGS__);     \
        const PopLog ref = scenario<OracleQueue>(__VA_ARGS__);         \
        ASSERT_FALSE(ref.empty());                                     \
        EXPECT_EQ(cal, ref);                                           \
    } while (0)

/** Deterministic random churn over one-shots in three priority
 *  classes: near (often same-tick) and far (bucket-lapping)
 *  reschedules, cancels, single services and runUntil boundaries. */
template <class Q>
PopLog
randomChurn(std::uint64_t seed)
{
    const int nEvents = 32;
    std::vector<EventSpec> specs;
    for (int i = 0; i < nEvents; ++i)
        specs.push_back({(i % 3) * 40, 0});
    Q q(specs);
    PopLog log;
    q.onFire = [&](int id) { log.emplace_back(id, q.now()); };

    Rng rng(seed);
    for (int k = 0; k < 4000; ++k) {
        const int id = static_cast<int>(rng.range(0, nEvents - 1));
        switch (rng.range(0, 9)) {
          case 0:
          case 1:
          case 2:
            q.reschedule(id, q.now() + rng.range(0, 3) * 10);
            break;
          case 3:
          case 4:
            q.reschedule(id, q.now() + rng.range(1, 500) * 1000);
            break;
          case 5:
            if (q.scheduled(id))
                q.deschedule(id);
            break;
          case 6:
          case 7:
            q.serviceOne();
            break;
          default:
            q.runUntil(q.now() + rng.range(0, 40) * 10);
            break;
        }
    }
    q.runAll();
    return log;
}

/** Sixteen events on one tick: order is (priority, seq). */
template <class Q>
PopLog
sameTickTies()
{
    std::vector<EventSpec> specs;
    for (int i = 0; i < 16; ++i)
        specs.push_back({(15 - i) % 4, 0});
    Q q(specs);
    PopLog log;
    q.onFire = [&](int id) { log.emplace_back(id, q.now()); };
    for (int i = 0; i < 16; ++i)
        q.schedule(i, 777);
    q.runAll();
    return log;
}

/** GALS-shaped traffic: five mismatched periodic clocks plus a
 *  statistics one-shot rescheduled between runUntil windows. */
template <class Q>
PopLog
periodicTraffic()
{
    const Tick periods[] = {1000, 1300, 2500, 997, 1111};
    std::vector<EventSpec> specs;
    for (Tick p : periods)
        specs.push_back({Event::clockEdgePri, p});
    const int shot = 5;
    specs.push_back({Event::statsPri, 0});
    Q q(specs);
    PopLog log;
    q.onFire = [&](int id) { log.emplace_back(id, q.now()); };
    for (int i = 0; i < 5; ++i)
        q.schedule(i, 100 * i);
    for (Tick t = 0; t < 400000; t += 50000) {
        q.runUntil(t + 49999);
        q.reschedule(shot, q.now() + 500);
    }
    q.runUntil(500000);
    for (int i = 0; i < 5; ++i)
        q.cancelRepeat(i);
    q.runAll();
    return log;
}

/** Five equal-period, equal-phase clocks tie at every edge. Clock 2
 *  schedules two one-shots at the clock priority: an echo on the
 *  current tick, which must fire after the pending tie (larger seq),
 *  and one on the next edge, which must fire after clocks 0 and 1 but
 *  before clock 2, whose repeat is queued only once its callback
 *  returns. */
template <class Q>
PopLog
sameTickPeriodicEcho()
{
    std::vector<EventSpec> specs;
    for (int i = 0; i < 5; ++i)
        specs.push_back({Event::clockEdgePri, 1000});
    const int echo = 5, nextEdge = 6;
    specs.push_back({Event::clockEdgePri, 0});
    specs.push_back({Event::clockEdgePri, 0});
    Q q(specs);
    PopLog log;
    q.onFire = [&](int id) {
        log.emplace_back(id, q.now());
        if (id == 2 && !q.scheduled(echo))
            q.schedule(echo, q.now());
        if (id == 2 && !q.scheduled(nextEdge))
            q.schedule(nextEdge, q.now() + 1000);
    };
    for (int i = 0; i < 5; ++i)
        q.schedule(i, 0);
    q.runUntil(20000);
    for (int i = 0; i < 5; ++i)
        q.cancelRepeat(i);
    q.runAll();
    return log;
}

/** Deschedules aimed at the min cache. Groups of eight events share
 *  a tick, so the pending minimum is always the lowest scheduled id;
 *  each round cancels that minimum (whose same-tick successor takes
 *  over), random other events, and services in between. */
template <class Q>
PopLog
descheduleTies(std::uint64_t seed)
{
    const int nEvents = 32;
    Q q{std::vector<EventSpec>(nEvents)};
    PopLog log;
    q.onFire = [&](int id) { log.emplace_back(id, q.now()); };
    Rng rng(seed);
    for (int round = 0; round < 100; ++round) {
        const Tick base = q.now() + 1000;
        for (int id = 0; id < nEvents; ++id)
            q.schedule(id, base + (id / 8) * 100);
        while (!q.empty()) {
            int min = 0;
            while (!q.scheduled(min))
                ++min;
            const int other =
                static_cast<int>(rng.range(0, nEvents - 1));
            switch (rng.range(0, 4)) {
              case 0:
              case 1:
                q.deschedule(min);
                break;
              case 2:
                if (q.scheduled(other))
                    q.deschedule(other);
                break;
              default:
                q.serviceOne();
                break;
            }
        }
    }
    return log;
}

/** Thousands of events with clustered and distant times grow the
 *  wheel; draining them (interleaved with cancels) shrinks it. */
template <class Q>
PopLog
resizeChurn()
{
    const int nEvents = 3000;
    std::vector<EventSpec> specs(nEvents, EventSpec{});
    Q q(specs);
    PopLog log;
    q.onFire = [&](int id) { log.emplace_back(id, q.now()); };
    Rng rng(11);
    for (int id = 0; id < nEvents; ++id)
        q.schedule(id, id % 7 == 0 ? rng.range(0, 100)
                                   : rng.range(0, 10'000'000));
    for (int id = 0; id < nEvents; id += 3)
        q.deschedule(id);
    for (int k = 0; k < 500; ++k)
        q.serviceOne();
    for (int id = 0; id < nEvents; id += 3)
        q.schedule(id, q.now() + rng.range(0, 50'000'000));
    q.runAll();
    return log;
}

} // namespace

TEST(CalendarVsOracle, RandomChurnPopOrder)
{
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
        SCOPED_TRACE(seed);
        EXPECT_MATCHES_ORACLE(randomChurn, seed);
    }
}

TEST(CalendarVsOracle, SameTickTieBreaks)
{
    EXPECT_MATCHES_ORACLE(sameTickTies);

    PopLog expect;
    for (int pri = 0; pri < 4; ++pri)
        for (int i = 0; i < 16; ++i)
            if ((15 - i) % 4 == pri)
                expect.emplace_back(i, 777);
    EXPECT_EQ(sameTickTies<CalendarHarness>(), expect);
}

TEST(CalendarVsOracle, PeriodicClockTraffic)
{
    EXPECT_MATCHES_ORACLE(periodicTraffic);
    EXPECT_GT(periodicTraffic<CalendarHarness>().size(), 1000u);
}

TEST(CalendarVsOracle, SameTickPeriodicEcho)
{
    EXPECT_MATCHES_ORACLE(sameTickPeriodicEcho);

    // Two edges: the clocks in scheduling order, the echo last, and
    // the next-edge one-shot ahead of clock 2's repeat.
    const PopLog log = sameTickPeriodicEcho<CalendarHarness>();
    const PopLog first(log.begin(), log.begin() + 13);
    const PopLog expect = {
        {0, 0},    {1, 0},    {2, 0},    {3, 0},    {4, 0},
        {5, 0},    {0, 1000}, {1, 1000}, {6, 1000}, {2, 1000},
        {3, 1000}, {4, 1000}, {5, 1000}};
    EXPECT_EQ(first, expect);
}

TEST(CalendarVsOracle, DescheduleMinimumAndTies)
{
    for (std::uint64_t seed : {3ull, 77ull}) {
        SCOPED_TRACE(seed);
        EXPECT_MATCHES_ORACLE(descheduleTies, seed);
    }
}

TEST(CalendarVsOracle, PopOrderAcrossResizes)
{
    EXPECT_MATCHES_ORACLE(resizeChurn);
}

TEST(CalendarVsOracle, ClockDomainsWithMidTickTickerChurn)
{
    // Two clock domains on the real queue, with a ticker added
    // mid-edge and later removed mid-edge by another ticker, against
    // the oracle's two periodic events (a: 700 ticks from 0, b: 1100
    // from 300) whose callbacks log what those tickers would.
    EventQueue eq("tickers");
    ClockDomain a(eq, "a", 700);
    ClockDomain b(eq, "b", 1100, 300);
    PopLog log;
    ClockDomain::Ticker *victim = nullptr;
    int edges = 0;
    addTicker(a, [&] {
        log.emplace_back(1, eq.now());
        ++edges;
        if (edges == 3)
            victim = addTicker(
                a, [&] { log.emplace_back(2, eq.now()); }, 60);
        if (edges == 6) {
            a.removeTicker(victim);
            victim = nullptr;
        }
    });
    addTicker(b, [&] { log.emplace_back(3, eq.now()); });
    a.start();
    b.start();
    eq.runUntil(15000);
    a.stop();
    b.stop();

    OracleQueue ref({{Event::clockEdgePri, 700},
                     {Event::clockEdgePri, 1100}});
    PopLog expect;
    int aEdges = 0;
    ref.onFire = [&](int id) {
        if (id == 1) {
            expect.emplace_back(3, ref.now());
            return;
        }
        expect.emplace_back(1, ref.now());
        ++aEdges;
        // Added during edge 3 behind the running ticker, so it fires
        // on that edge; removed during edge 6 before it runs.
        if (aEdges >= 3 && aEdges < 6)
            expect.emplace_back(2, ref.now());
    };
    ref.schedule(0, 0);
    ref.schedule(1, 300);
    ref.runUntil(15000);

    ASSERT_GT(log.size(), 30u);
    EXPECT_EQ(log, expect);
}

TEST(CalendarQueue, CrossDomainChannelFanInFanOut)
{
    // The fabric-shaped workload: three producer domains fan into a
    // hub domain through async FIFOs (the inter-core link pattern of
    // fabric/system.cc), the hub routes each item onward to one of
    // two sink domains, and every so often a mid-flight squash rips
    // items out of an in-flight link — exactly what a pipeline flush
    // does to an inter-core channel. Six domains with pairwise
    // mismatched periods and phases. Each sink must see every source's
    // items in push order, time must never run backwards, and every
    // link must account for each push as a pop, a squash or a
    // resident.
    for (std::uint64_t seed : {1ull, 9ull, 0xfab41cull}) {
        SCOPED_TRACE(seed);
        EventQueue eq("fabric");
        ClockDomain p0(eq, "p0", 1000), p1(eq, "p1", 1300, 250),
            p2(eq, "p2", 1700, 600);
        ClockDomain hub(eq, "hub", 900, 100);
        ClockDomain s0(eq, "s0", 1100, 40), s1(eq, "s1", 701, 7);
        ClockDomain *prods[] = {&p0, &p1, &p2};

        std::vector<std::unique_ptr<Channel<int>>> in, out;
        for (int i = 0; i < 3; ++i)
            in.push_back(std::make_unique<Channel<int>>(
                "in" + std::to_string(i), ChannelMode::asyncFifo,
                *prods[i], hub, 8, 2, false));
        ClockDomain *sinks[] = {&s0, &s1};
        for (int j = 0; j < 2; ++j)
            out.push_back(std::make_unique<Channel<int>>(
                "out" + std::to_string(j), ChannelMode::asyncFifo,
                hub, *sinks[j], 8, 2, false));

        std::vector<Rng> prodRng;
        std::vector<int> sent(3, 0);
        for (int i = 0; i < 3; ++i)
            prodRng.emplace_back(seed * 31 + i);
        for (int i = 0; i < 3; ++i)
            addTicker(*prods[i], [&, i] {
                if (prodRng[i].chance(0.7) && in[i]->canPush())
                    in[i]->push(i * 1000000 + sent[i]++);
            });

        int hubEdges = 0;
        addTicker(hub, [&] {
            for (int i = 0; i < 3; ++i)
                while (!in[i]->empty()) {
                    const int v = in[i]->front();
                    Channel<int> &hop = *out[v % 2];
                    if (hop.full())
                        break;
                    hop.push(v);
                    in[i]->pop();
                }
            if (++hubEdges % 7 == 0)
                in[hubEdges / 7 % 3]->squash(
                    [](int v) { return v % 3 == 0; });
        });

        int lastSeen[2][3] = {{-1, -1, -1}, {-1, -1, -1}};
        Tick lastTick = 0;
        bool ordered = true;
        std::uint64_t received = 0;
        for (int j = 0; j < 2; ++j)
            addTicker(*sinks[j], [&, j] {
                while (!out[j]->empty()) {
                    const int v = out[j]->front();
                    out[j]->pop();
                    ++received;
                    int &last = lastSeen[j][v / 1000000];
                    ordered = ordered && eq.now() >= lastTick &&
                              v % 1000000 > last;
                    last = v % 1000000;
                    lastTick = eq.now();
                }
            });

        for (ClockDomain *d : {&p0, &p1, &p2, &hub, &s0, &s1})
            d->start();
        eq.runUntil(300000);
        for (ClockDomain *d : {&p0, &p1, &p2, &hub, &s0, &s1})
            d->stop();
        eq.runAll();

        EXPECT_TRUE(ordered);
        EXPECT_GT(received, 200u);
        std::uint64_t squashed = 0;
        for (auto *links : {&in, &out})
            for (auto &ch : *links) {
                EXPECT_EQ(ch->pushes(), ch->pops() +
                                            ch->squashedItems() +
                                            ch->rawSize())
                    << ch->name();
                squashed += ch->squashedItems();
            }
        EXPECT_GT(squashed, 0u);
    }
}

TEST(CalendarQueue, ResizeGrowsAndShrinksWithPopulation)
{
    EventQueue eq("resize");
    EXPECT_EQ(eq.calendarBuckets(), EventQueue::calInitialBuckets);

    std::vector<std::unique_ptr<CallbackEvent>> evs;
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        evs.push_back(std::make_unique<CallbackEvent>([] {}));
        // Widely varying gaps: clustered ticks and distant outliers.
        const Tick when = (i % 7 == 0) ? rng.range(1, 100)
                                       : rng.range(1, 50'000'000);
        eq.schedule(evs.back().get(), when);
    }
    EXPECT_GT(eq.calendarBuckets(), EventQueue::calInitialBuckets);
    EXPECT_GE(eq.calendarBucketWidth(), 1u);

    // Cancel everything; the wheel must shrink back to its floor.
    for (auto &ev : evs)
        eq.deschedule(ev.get());
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.calendarBuckets(), EventQueue::calInitialBuckets);
}

TEST(CalendarQueue, EventDestructorDeschedulesAcrossResize)
{
    // Destroying still-scheduled events must stay safe while the
    // wheel is far from its initial geometry.
    EventQueue eq("dtor");
    {
        std::vector<std::unique_ptr<CallbackEvent>> evs;
        Rng rng(3);
        for (int i = 0; i < 200; ++i) {
            evs.push_back(std::make_unique<CallbackEvent>([] {}));
            eq.schedule(evs.back().get(), rng.range(1, 1'000'000));
        }
        // evs destructs here, one deschedule (and shrink) at a time.
    }
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventTime(), maxTick);
}
