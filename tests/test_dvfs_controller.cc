/**
 * @file
 * Tests for the dynamic DVFS controller: utilization tracking, step
 * walking in both directions, voltage coupling, and an end-to-end run
 * where an idle FP domain glides to a deep slowdown on integer code.
 */

#include <gtest/gtest.h>

#include "core/processor.hh"
#include "dvfs/controller.hh"
#include "tests/callback_adapters.hh"

using namespace gals;

namespace
{

struct FakeLoad
{
    EventQueue eq;
    ClockDomain domain;
    std::uint64_t work = 0;
    double perCycle;

    explicit FakeLoad(double work_per_cycle)
        : domain(eq, "dom", 1000), perCycle(work_per_cycle)
    {
        addTicker(domain, [this] {
            acc_ += perCycle;
            while (acc_ >= 1.0) {
                ++work;
                acc_ -= 1.0;
            }
        });
    }

  private:
    double acc_ = 0.0;
};

} // namespace

TEST(DvfsController, IdleDomainStepsDown)
{
    FakeLoad f(0.05); // 5% of peak 1/cycle
    DynamicDvfsConfig cfg;
    cfg.samplePeriod = 100 * 1000;
    DynamicDvfsController ctrl(f.eq, defaultTech(), cfg);
    ctrl.manage(f.domain, &f.work, 1.0);
    f.domain.start();
    ctrl.start();
    f.eq.runUntil(1000 * 1000);
    EXPECT_EQ(ctrl.stepOf(f.domain), cfg.steps.size() - 1);
    EXPECT_GT(f.domain.period(), 1000u);
    EXPECT_LT(f.domain.vdd(), defaultTech().vddNominal);
    EXPECT_GE(ctrl.adjustments(), cfg.steps.size() - 1);
}

TEST(DvfsController, BusyDomainStaysNominal)
{
    FakeLoad f(0.9);
    DynamicDvfsConfig cfg;
    cfg.samplePeriod = 100 * 1000;
    DynamicDvfsController ctrl(f.eq, defaultTech(), cfg);
    ctrl.manage(f.domain, &f.work, 1.0);
    f.domain.start();
    ctrl.start();
    f.eq.runUntil(1000 * 1000);
    EXPECT_EQ(ctrl.stepOf(f.domain), 0u);
    EXPECT_EQ(f.domain.period(), 1000u);
    EXPECT_EQ(ctrl.adjustments(), 0u);
}

TEST(DvfsController, UtilizationMeasured)
{
    FakeLoad f(0.30);
    DynamicDvfsConfig cfg;
    cfg.samplePeriod = 200 * 1000;
    DynamicDvfsController ctrl(f.eq, defaultTech(), cfg);
    ctrl.manage(f.domain, &f.work, 1.0);
    f.domain.start();
    ctrl.start();
    f.eq.runUntil(600 * 1000);
    EXPECT_NEAR(ctrl.utilizationOf(f.domain), 0.30, 0.05);
    // 0.30 is inside [loUtil, hiUtil]: no change.
    EXPECT_EQ(ctrl.stepOf(f.domain), 0u);
}

TEST(DvfsController, RecoversWhenLoadReturns)
{
    // Start idle, step down; then make the domain busy relative to its
    // (now slower) clock and verify it climbs back.
    FakeLoad f(0.0);
    DynamicDvfsConfig cfg;
    cfg.samplePeriod = 100 * 1000;
    DynamicDvfsController ctrl(f.eq, defaultTech(), cfg);
    ctrl.manage(f.domain, &f.work, 1.0);
    f.domain.start();
    ctrl.start();
    f.eq.runUntil(600 * 1000);
    EXPECT_GT(ctrl.stepOf(f.domain), 0u);

    f.perCycle = 1.0; // suddenly busy
    f.eq.runUntil(2000 * 1000);
    EXPECT_EQ(ctrl.stepOf(f.domain), 0u);
    EXPECT_EQ(f.domain.period(), 1000u);
    EXPECT_DOUBLE_EQ(f.domain.vdd(), defaultTech().vddNominal);
}

TEST(DvfsController, StopFreezesSettings)
{
    FakeLoad f(0.0);
    DynamicDvfsConfig cfg;
    cfg.samplePeriod = 100 * 1000;
    DynamicDvfsController ctrl(f.eq, defaultTech(), cfg);
    ctrl.manage(f.domain, &f.work, 1.0);
    f.domain.start();
    ctrl.start();
    f.eq.runUntil(250 * 1000);
    const unsigned step = ctrl.stepOf(f.domain);
    ctrl.stop();
    f.eq.runUntil(2000 * 1000);
    EXPECT_EQ(ctrl.stepOf(f.domain), step);
}

TEST(DvfsController, EndToEndIdleFpSlowsOnIntegerCode)
{
    // gcc has virtually no floating point: under dynamic control the
    // FP domain must glide to the deepest slowdown and save energy.
    EventQueue eq;
    ProcessorConfig pc;
    pc.gals = true;
    Processor proc(eq, pc, findBenchmark("gcc"), 0);

    DynamicDvfsController ctrl(eq, pc.tech);
    ctrl.manage(proc.domain(DomainId::fpd),
                proc.fpCluster().issuedCounter(),
                pc.core.fpIssueWidth);
    ctrl.start();
    proc.run(10000);
    ctrl.stop();

    EXPECT_GT(ctrl.stepOf(proc.domain(DomainId::fpd)), 0u);
    EXPECT_GT(proc.domain(DomainId::fpd).period(), pc.nominalPeriod);
    EXPECT_LT(proc.domain(DomainId::fpd).vdd(), pc.tech.vddNominal);
    EXPECT_EQ(proc.decodeUnit().commitStats().committed, 10000u);
}

TEST(DvfsController, EndToEndBusyFpStaysFastOnFpCode)
{
    EventQueue eq;
    ProcessorConfig pc;
    pc.gals = true;
    Processor proc(eq, pc, findBenchmark("fpppp"), 0);

    DynamicDvfsController ctrl(eq, pc.tech);
    ctrl.manage(proc.domain(DomainId::fpd),
                proc.fpCluster().issuedCounter(),
                pc.core.fpIssueWidth);
    ctrl.start();
    proc.run(10000);
    ctrl.stop();

    // fpppp keeps its FP cluster busy enough to avoid the deepest
    // slowdown step.
    EXPECT_LT(ctrl.stepOf(proc.domain(DomainId::fpd)), 3u);
}

TEST(DvfsController, RejectsBadConfig)
{
    EventQueue eq;
    DynamicDvfsConfig cfg;
    cfg.steps = {2.0, 3.0}; // must start at 1.0
    EXPECT_DEATH(DynamicDvfsController(eq, defaultTech(), cfg),
                 "steps must start");
}
