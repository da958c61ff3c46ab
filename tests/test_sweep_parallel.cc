/**
 * @file
 * Tests for the parallel sweep engine: a multi-threaded sweep must be
 * bit-identical to the serial one (same per-run PRNG seeds, results
 * collected in spec order), the result store must round-trip every
 * field exactly (%.17g), and a warm store must satisfy a repeat sweep
 * with zero simulations.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/pool.hh"
#include "harness/sweep.hh"
#include "test_util.hh"
#include "workload/micro.hh"

namespace refrint::test
{

namespace
{

/** Exact, field-by-field comparison of two runs. */
void
expectRunsIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.retentionUs, b.retentionUs);
    EXPECT_EQ(a.execTicks, b.execTicks);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.energy.l1, b.energy.l1);
    EXPECT_EQ(a.energy.l2, b.energy.l2);
    EXPECT_EQ(a.energy.l3, b.energy.l3);
    EXPECT_EQ(a.energy.dram, b.energy.dram);
    EXPECT_EQ(a.energy.dynamic, b.energy.dynamic);
    EXPECT_EQ(a.energy.leakage, b.energy.leakage);
    EXPECT_EQ(a.energy.refresh, b.energy.refresh);
    EXPECT_EQ(a.energy.core, b.energy.core);
    EXPECT_EQ(a.energy.net, b.energy.net);
    EXPECT_EQ(a.counts.dramAccesses, b.counts.dramAccesses);
    EXPECT_EQ(a.counts.l3Misses, b.counts.l3Misses);
    EXPECT_EQ(a.counts.l3Refreshes, b.counts.l3Refreshes);
    EXPECT_EQ(a.counts.refreshWritebacks, b.counts.refreshWritebacks);
    EXPECT_EQ(a.counts.refreshInvalidations,
              b.counts.refreshInvalidations);
    EXPECT_EQ(a.counts.decayedHits, b.counts.decayedHits);
}

/** A small multi-app, multi-policy spec that still exercises ordering:
 *  2 apps x (1 baseline + 2 retentions x 3 policies) = 14 runs. */
SweepSpec
smallSpec(const Workload &a1, const Workload &a2)
{
    SweepSpec spec;
    spec.apps = {&a1, &a2};
    spec.retentions = {usToTicks(50.0), usToTicks(100.0)};
    spec.policies = {RefreshPolicy::refrint(DataPolicy::Valid),
                     RefreshPolicy::periodic(DataPolicy::All),
                     RefreshPolicy::refrint(DataPolicy::WB, 4, 4)};
    spec.sim.refsPerCore = 1200;
    return spec;
}

TEST(SweepParallelTest, FourJobsBitIdenticalToSerial)
{
    UniformWorkload u(8 * 1024, 0.3);
    StreamWorkload s(32 * 1024, 0.2);

    const SweepResult a = runSpec(smallSpec(u, s), "", 1);
    const SweepResult b = runSpec(smallSpec(u, s), "", 4);

    ASSERT_EQ(a.raw.size(), 14u);
    ASSERT_EQ(a.raw.size(), b.raw.size());
    for (std::size_t i = 0; i < a.raw.size(); ++i) {
        SCOPED_TRACE(a.raw[i].app + "/" + a.raw[i].config);
        expectRunsIdentical(a.raw[i], b.raw[i]);
    }

    ASSERT_EQ(a.normalized.size(), 12u);
    ASSERT_EQ(a.normalized.size(), b.normalized.size());
    for (std::size_t i = 0; i < a.normalized.size(); ++i) {
        EXPECT_EQ(a.normalized[i].app, b.normalized[i].app);
        EXPECT_EQ(a.normalized[i].config, b.normalized[i].config);
        EXPECT_EQ(a.normalized[i].time, b.normalized[i].time);
        EXPECT_EQ(a.normalized[i].memEnergy, b.normalized[i].memEnergy);
        EXPECT_EQ(a.normalized[i].sysEnergy, b.normalized[i].sysEnergy);
        EXPECT_EQ(a.normalized[i].refresh, b.normalized[i].refresh);
    }
}

TEST(SweepParallelTest, CacheRoundTripsEveryFieldExactly)
{
    UniformWorkload u(8 * 1024, 0.3);
    StreamWorkload s(32 * 1024, 0.2);
    const std::string dir = ::testing::TempDir() + "/sweep_parallel_rt";
    std::filesystem::remove_all(dir);

    const SweepResult fresh = runSpec(smallSpec(u, s), dir);
    const SweepResult cached = runSpec(smallSpec(u, s), dir);

    ASSERT_EQ(fresh.raw.size(), cached.raw.size());
    for (std::size_t i = 0; i < fresh.raw.size(); ++i) {
        SCOPED_TRACE(fresh.raw[i].app + "/" + fresh.raw[i].config);
        expectRunsIdentical(fresh.raw[i], cached.raw[i]);
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepParallelTest, WarmCacheRunsZeroSimulations)
{
    UniformWorkload u(8 * 1024, 0.3);
    StreamWorkload s(32 * 1024, 0.2);
    const std::string dir =
        ::testing::TempDir() + "/sweep_parallel_warm";
    std::filesystem::remove_all(dir);

    const SweepResult fresh = runSpec(smallSpec(u, s), dir, 4);
    EXPECT_EQ(fresh.simulations, fresh.raw.size());

    const SweepResult warm = runSpec(smallSpec(u, s), dir, 4);
    EXPECT_EQ(warm.simulations, 0u);
    ASSERT_EQ(warm.raw.size(), fresh.raw.size());
    std::filesystem::remove_all(dir);
}

TEST(PoolTest, ParallelForCoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    parallelFor(hits.size(), 8,
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(PoolTest, SerialFallbackRunsInline)
{
    std::size_t count = 0; // unguarded: jobs=1 must stay on this thread
    parallelFor(100, 1, [&](std::size_t) { ++count; });
    EXPECT_EQ(count, 100u);
}

} // namespace
} // namespace refrint::test
