/**
 * @file
 * Tests for trace capture/replay: file-format round trip, wrap-around
 * replay semantics, and the headline guarantee — replaying a recorded
 * trace through the simulator reproduces the original run exactly.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "test_util.hh"
#include "trace/trace.hh"
#include "workload/micro.hh"

namespace refrint::test
{

namespace
{

TEST(TraceTest, RecordCapturesTheRequestedShape)
{
    UniformWorkload app(16 * 1024, 0.3);
    const Trace t = recordTrace(app, 4, 500, 7);

    ASSERT_EQ(t.numCores(), 4u);
    EXPECT_EQ(t.totalRefs(), 2000u);
    for (const auto &v : t.perCore)
        EXPECT_EQ(v.size(), 500u);
}

TEST(TraceTest, FileRoundTripPreservesEveryReference)
{
    UniformWorkload app(16 * 1024, 0.4);
    const Trace t = recordTrace(app, 4, 300, 9);
    const std::string path = ::testing::TempDir() + "/trace_rt.txt";

    ASSERT_TRUE(saveTrace(t, path));
    const Trace u = loadTrace(path);
    std::remove(path.c_str());

    ASSERT_EQ(u.numCores(), t.numCores());
    for (std::uint32_t c = 0; c < t.numCores(); ++c) {
        ASSERT_EQ(u.perCore[c].size(), t.perCore[c].size());
        for (std::size_t i = 0; i < t.perCore[c].size(); ++i) {
            EXPECT_EQ(u.perCore[c][i].addr, t.perCore[c][i].addr);
            EXPECT_EQ(u.perCore[c][i].write, t.perCore[c][i].write);
            EXPECT_EQ(u.perCore[c][i].gap, t.perCore[c][i].gap);
        }
    }
}

TEST(TraceTest, ReplayWrapsAroundWhenExhausted)
{
    Trace t;
    t.perCore.resize(1);
    for (int i = 0; i < 3; ++i)
        t.perCore[0].push_back(
            MemRef{static_cast<Addr>(i * 64), false, 1});
    TraceWorkload w(std::move(t));

    auto s = w.makeStream(0, 1, 0);
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 3; ++i)
            EXPECT_EQ(s->next().addr, static_cast<Addr>(i * 64));
    }
}

TEST(TraceTest, RejectsMachineWithDifferentCoreCount)
{
    // Replaying a 2-core trace on any other machine width is a
    // different workload, not the recorded one: makeStream must fail
    // with a clear error instead of silently reusing or dropping
    // streams.
    UniformWorkload app(8 * 1024, 0.2);
    TraceWorkload w(recordTrace(app, 2, 100, 5));

    EXPECT_EXIT(w.makeStream(0, 4, 0), ::testing::ExitedWithCode(1),
                "records 2 cores but the machine has 4");
    EXPECT_EXIT(w.makeStream(0, 1, 0), ::testing::ExitedWithCode(1),
                "records 2 cores but the machine has 1");

    // The matching width keeps working.
    auto s0 = w.makeStream(0, 2, 0);
    ASSERT_NE(s0, nullptr);
}

TEST(TraceTest, RejectsReplayOnMismatchedCmpSystem)
{
    // End to end: a 4-core trace against an 8-core machine dies in
    // CmpSystem construction (the workload's makeStream rejects it).
    UniformWorkload app(8 * 1024, 0.2);
    TraceWorkload w(recordTrace(app, 4, 50, 5));
    const MachineConfig cfg =
        test::tinyConfig(CellTech::Edram, /*cores=*/8);
    SimParams sim;
    sim.refsPerCore = 50;
    EXPECT_EXIT(CmpSystem(cfg, w, sim), ::testing::ExitedWithCode(1),
                "records 4 cores but the machine has 8");
}

TEST(TraceTest, ReplayReproducesTheGeneratorRunExactly)
{
    // The contract that makes traces useful: simulating the recorded
    // trace is indistinguishable from simulating the generator.
    UniformWorkload app(16 * 1024, 0.3);
    const std::uint64_t refs = 2000;
    const std::uint64_t seed = 7;

    const MachineConfig cfg =
        tinyEdram(RefreshPolicy::refrint(DataPolicy::WB, 8, 8));
    const RunResult direct = runTiny(cfg, app, refs, seed);

    TraceWorkload replay(recordTrace(app, 4, refs, seed));
    const RunResult traced = runTiny(cfg, replay, refs, seed);

    EXPECT_EQ(traced.execTicks, direct.execTicks);
    EXPECT_EQ(traced.counts.l3Misses, direct.counts.l3Misses);
    EXPECT_EQ(traced.counts.dramAccesses, direct.counts.dramAccesses);
    EXPECT_EQ(traced.counts.l3Refreshes, direct.counts.l3Refreshes);
    EXPECT_DOUBLE_EQ(traced.energy.memTotal(), direct.energy.memTotal());
}

TEST(TraceTest, LoadRejectsGarbage)
{
    const std::string path = ::testing::TempDir() + "/trace_bad.txt";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace\n", f);
    std::fclose(f);

    EXPECT_EXIT(loadTrace(path), ::testing::ExitedWithCode(1),
                "refrint-trace");
    std::remove(path.c_str());
}

} // namespace
} // namespace refrint::test
