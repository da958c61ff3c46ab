/**
 * @file
 * End-to-end smoke tests: the tiny machine runs every policy without
 * violating invariants, and produces sane energy numbers.
 */

#include <gtest/gtest.h>

#include "harness/sweep.hh"
#include "test_util.hh"

namespace refrint::test
{

TEST(Smoke, SramBaselineRuns)
{
    UniformWorkload app(16 * 1024, 0.3);
    RunResult r = runTiny(tinyConfig(CellTech::Sram), app, 3000);
    EXPECT_GT(r.execTicks, 0u);
    EXPECT_GT(r.energy.memTotal(), 0.0);
    EXPECT_EQ(r.energy.refresh, 0.0);
    EXPECT_EQ(r.config, "SRAM");
}

TEST(Smoke, EveryPolicyRunsClean)
{
    UniformWorkload app(16 * 1024, 0.3);
    for (const RefreshPolicy &pol : paperPolicySweep()) {
        SCOPED_TRACE(pol.name());
        RunResult r = runTiny(tinyEdram(pol), app, 3000);
        EXPECT_GT(r.execTicks, 0u);
        EXPECT_EQ(r.counts.decayedHits, 0u)
            << "lines decayed under " << pol.name();
    }
}

TEST(Smoke, EdramRefreshesHappen)
{
    UniformWorkload app(16 * 1024, 0.3);
    RunResult r = runTiny(
        tinyEdram(RefreshPolicy::refrint(DataPolicy::Valid)), app, 5000);
    EXPECT_GT(r.energy.refresh, 0.0);
}

TEST(Smoke, InvariantsHoldAfterRun)
{
    PingPongWorkload app(32);
    MachineConfig cfg =
        tinyEdram(RefreshPolicy::refrint(DataPolicy::WB, 4, 4));
    SimParams sim;
    sim.refsPerCore = 4000;
    CmpSystem sys(cfg, app, sim);
    sys.run();
    sys.hierarchy().checkInvariants(sys.eventQueue().now());
}

} // namespace refrint::test
