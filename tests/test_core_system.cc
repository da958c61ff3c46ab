/**
 * @file
 * Tests for the trace-driven core model and the CmpSystem assembly:
 * completion semantics, determinism, instruction accounting, and the
 * timing feedback loops (miss stalls and refresh-blocked banks) that
 * produce the paper's slowdown numbers.
 */

#include <gtest/gtest.h>

#include "test_util.hh"
#include "workload/micro.hh"

namespace refrint::test
{

namespace
{

TEST(CoreSystem, EveryCoreIssuesExactlyTheRequestedRefs)
{
    UniformWorkload app(8 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 1234;
    CmpSystem sys(tinyConfig(CellTech::Sram), app, sim);
    sys.run();

    for (CoreId c = 0; c < 4; ++c) {
        EXPECT_TRUE(sys.core(c).done());
        EXPECT_EQ(sys.core(c).refsIssued(), 1234u);
    }
}

TEST(CoreSystem, ExecTicksIsTheLatestCoreCompletion)
{
    UniformWorkload app(8 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 800;
    CmpSystem sys(tinyConfig(CellTech::Sram), app, sim);
    const Tick t = sys.run();

    Tick latest = 0;
    for (CoreId c = 0; c < 4; ++c)
        latest = std::max(latest, sys.core(c).doneTick());
    EXPECT_EQ(t, latest);
    EXPECT_EQ(t, sys.execTicks());
    EXPECT_GT(t, 0u);
}

TEST(CoreSystem, RunsAreDeterministic)
{
    UniformWorkload app(8 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 2000;
    sim.seed = 42;

    CmpSystem a(tinyConfig(CellTech::Edram), app, sim);
    CmpSystem b(tinyConfig(CellTech::Edram), app, sim);
    EXPECT_EQ(a.run(), b.run());
    EXPECT_EQ(a.totalInstructions(), b.totalInstructions());

    std::map<std::string, double> sa, sb;
    a.hierarchy().dumpStats(sa);
    b.hierarchy().dumpStats(sb);
    EXPECT_EQ(sa, sb);
}

TEST(CoreSystem, DifferentSeedsChangeTheRun)
{
    UniformWorkload app(8 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 2000;

    sim.seed = 1;
    CmpSystem a(tinyConfig(CellTech::Sram), app, sim);
    const Tick ta = a.run();

    sim.seed = 2;
    CmpSystem b(tinyConfig(CellTech::Sram), app, sim);
    const Tick tb = b.run();

    EXPECT_NE(ta, tb);
}

TEST(CoreSystem, InstructionsCoverGapsAndReferences)
{
    // Each reference executes `gap` instructions (IPC 1) plus the
    // memory operation itself; total instructions must be at least
    // refs * (minGap + 1) per core.
    UniformWorkload app(8 * 1024, 0.3, /*gap=*/3);
    SimParams sim;
    sim.refsPerCore = 1000;
    CmpSystem sys(tinyConfig(CellTech::Sram), app, sim);
    sys.run();

    EXPECT_GE(sys.totalInstructions(), 4u * 1000u * 4u);
}

TEST(CoreSystem, MissesStallTheCore)
{
    // A streaming workload (every ref misses to DRAM) must run much
    // longer than a hammer workload (every ref an L1 hit) for the same
    // reference count — this is the timing feedback that turns extra
    // refresh-induced misses into the paper's slowdown.
    SimParams sim;
    sim.refsPerCore = 2000;

    StreamWorkload misses(1 << 20, 0.0);
    HammerWorkload hits;
    CmpSystem slow(tinyConfig(CellTech::Sram), misses, sim);
    CmpSystem fast(tinyConfig(CellTech::Sram), hits, sim);

    EXPECT_GT(slow.run(), 2 * fast.run());
}

TEST(CoreSystem, PeriodicRefreshBlockingSlowsExecution)
{
    // Same workload and machine; Periodic-All blocks banks for whole
    // refresh bursts while Refrint steals single cycles: the paper's
    // Fig. 6.4 Periodic-vs-Refrint gap in miniature.
    UniformWorkload app(16 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 8000;

    CmpSystem periodic(
        tinyEdram(RefreshPolicy::periodic(DataPolicy::All)), app, sim);
    CmpSystem refrint(
        tinyEdram(RefreshPolicy::refrint(DataPolicy::All)), app, sim);

    EXPECT_GT(periodic.run(), refrint.run());
}

TEST(CoreSystem, SafetyLimitAborts)
{
    UniformWorkload app(8 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 1'000'000;
    sim.maxTicks = 1000; // absurdly small
    CmpSystem sys(tinyConfig(CellTech::Sram), app, sim);

    EXPECT_EXIT(sys.run(), ::testing::ExitedWithCode(1), "safety limit");
}

TEST(CoreSystem, FetchTrafficHitsThePaperSizedIL1)
{
    // The 32 KB paper IL1 holds the whole 128-line code region, so
    // after warm-up fetches hit; the tiny test machine's IL1 (32
    // lines) deliberately cannot, which the energy calibration relies
    // on being a paper-machine property.
    UniformWorkload app(8 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 5000; // long enough to amortize cold misses
    CmpSystem sys(MachineConfig::paperSram(), app, sim);
    sys.run();

    std::map<std::string, double> m;
    sys.hierarchy().dumpStats(m);
    EXPECT_GT(m["il1.reads"], 0.0);
    EXPECT_LT(m["il1.misses"], m["il1.reads"] * 0.1);
}

} // namespace
} // namespace refrint::test
