/**
 * @file
 * Unit tests for the event-driven simulation engine (paper section
 * 4.2): ordering, priorities, periodic events and the Figure 4
 * three-clock example.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "tests/callback_adapters.hh"

using namespace gals;

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
}

TEST(EventQueue, ServiceOneOnEmptyReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.serviceOne());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    CallbackEvent a([&] { order.push_back(1); }, "a");
    CallbackEvent b([&] { order.push_back(2); }, "b");
    CallbackEvent c([&] { order.push_back(3); }, "c");
    eq.schedule(&c, 30);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTimePriorityBreaksTie)
{
    EventQueue eq;
    std::vector<int> order;
    CallbackEvent lo([&] { order.push_back(1); }, "lo", 10);
    CallbackEvent hi([&] { order.push_back(2); }, "hi", 90);
    eq.schedule(&hi, 5);
    eq.schedule(&lo, 5);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, SameTimeSamePriorityInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    CallbackEvent a([&] { order.push_back(1); }, "a");
    CallbackEvent b([&] { order.push_back(2); }, "b");
    CallbackEvent c([&] { order.push_back(3); }, "c");
    eq.schedule(&a, 7);
    eq.schedule(&b, 7);
    eq.schedule(&c, 7);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, NowAdvancesToEventTime)
{
    EventQueue eq;
    Tick seen = 0;
    CallbackEvent a([&] { seen = eq.now(); }, "a");
    eq.schedule(&a, 42);
    eq.serviceOne();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    bool ran = false;
    CallbackEvent a([&] { ran = true; }, "a");
    eq.schedule(&a, 10);
    EXPECT_TRUE(a.scheduled());
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.runAll();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    Tick seen = 0;
    CallbackEvent a([&] { seen = eq.now(); }, "a");
    eq.schedule(&a, 10);
    eq.reschedule(&a, 99);
    eq.runAll();
    EXPECT_EQ(seen, 99u);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int count = 0;
    CallbackEvent a([&] { ++count; }, "a");
    CallbackEvent b([&] { ++count; }, "b");
    CallbackEvent c([&] { ++count; }, "c");
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.schedule(&c, 30);
    const auto n = eq.runUntil(20);
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, NextEventTime)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextEventTime(), maxTick);
    CallbackEvent a([] {}, "a");
    eq.schedule(&a, 123);
    EXPECT_EQ(eq.nextEventTime(), 123u);
}

TEST(EventQueue, ProcessedCount)
{
    EventQueue eq;
    CallbackEvent a([] {}, "a");
    CallbackEvent b([] {}, "b");
    eq.schedule(&a, 1);
    eq.schedule(&b, 2);
    eq.runAll();
    EXPECT_EQ(eq.processedCount(), 2u);
}

TEST(EventQueue, EventDestructorDeschedules)
{
    EventQueue eq;
    {
        CallbackEvent a([] {}, "a");
        eq.schedule(&a, 10);
    }
    EXPECT_TRUE(eq.empty());
}

TEST(PeriodicEvent, RepeatsWithPeriod)
{
    EventQueue eq;
    std::vector<Tick> times;
    PeriodicEvent p([&] { times.push_back(eq.now()); }, 10, "p");
    eq.schedule(&p, 5);
    eq.runUntil(45);
    EXPECT_EQ(times, (std::vector<Tick>{5, 15, 25, 35, 45}));
}

TEST(PeriodicEvent, CancelRepeatStops)
{
    EventQueue eq;
    int count = 0;
    PeriodicEvent p(
        [&] {
            ++count;
            if (count == 3)
                p.cancelRepeat();
        },
        10, "p");
    eq.schedule(&p, 0);
    eq.runUntil(1000);
    EXPECT_EQ(count, 3);
    EXPECT_TRUE(eq.empty());
}

TEST(PeriodicEvent, PeriodChangeTakesEffectNextCycle)
{
    EventQueue eq;
    std::vector<Tick> times;
    PeriodicEvent p(
        [&] {
            times.push_back(eq.now());
            if (times.size() == 2)
                p.period(50);
        },
        10, "p");
    eq.schedule(&p, 0);
    eq.runUntil(200);
    ASSERT_GE(times.size(), 4u);
    EXPECT_EQ(times[0], 0u);
    EXPECT_EQ(times[1], 10u);
    EXPECT_EQ(times[2], 60u);  // 10 + 50
    EXPECT_EQ(times[3], 110u);
}

/**
 * The paper's Figure 4 example: three clocks with periods 2, 3 and
 * 2.5 ns and phases 0.5, 1.0 and 0.0 ns. Reproduced at picosecond
 * resolution; checks the interleaving over the first 8 ns.
 */
TEST(PeriodicEvent, PaperFigure4ThreeClockExample)
{
    EventQueue eq;
    std::vector<std::pair<int, Tick>> fires;
    PeriodicEvent clk1([&] { fires.emplace_back(1, eq.now()); }, 2000,
                       "clk1");
    PeriodicEvent clk2([&] { fires.emplace_back(2, eq.now()); }, 3000,
                       "clk2");
    PeriodicEvent clk3([&] { fires.emplace_back(3, eq.now()); }, 2500,
                       "clk3");
    eq.schedule(&clk1, 500);
    eq.schedule(&clk2, 1000);
    eq.schedule(&clk3, 0);
    eq.runUntil(8000);

    // Expected edges within [0, 8] ns:
    // clk1: 0.5 2.5 4.5 6.5   clk2: 1 4 7   clk3: 0 2.5 5 7.5
    // At t = 2.5 ns both clk1 and clk3 fire; clk3 rescheduled itself
    // first (it fired at t = 0, before clk1's t = 0.5 edge), so it
    // executes first — ties resolve by reschedule order.
    std::vector<std::pair<int, Tick>> expect = {
        {3, 0},    {1, 500},  {2, 1000}, {3, 2500}, {1, 2500},
        {2, 4000}, {1, 4500}, {3, 5000}, {1, 6500}, {2, 7000},
        {3, 7500},
    };
    ASSERT_EQ(fires.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(fires[i].second, expect[i].second) << "edge " << i;
        EXPECT_EQ(fires[i].first, expect[i].first) << "edge " << i;
    }
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    std::vector<std::unique_ptr<CallbackEvent>> events;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 1000; ++i) {
        events.push_back(std::make_unique<CallbackEvent>([&] {
            if (eq.now() < last)
                monotonic = false;
            last = eq.now();
        }));
        // Deterministic pseudo-scatter of times.
        eq.schedule(events.back().get(), (i * 7919) % 10007);
    }
    eq.runAll();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(eq.processedCount(), 1000u);
}
