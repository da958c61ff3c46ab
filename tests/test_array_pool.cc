/**
 * @file
 * Tests for recycled cache-array storage (mem/array_pool.hh): a
 * Session worker that recycles one machine's arrays from scenario to
 * scenario must produce exactly the rows of fresh systems, whatever
 * the previous scenario's engine wrote, and the pool must hold only
 * the last machine's arrays.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/experiment_plan.hh"
#include "api/result_store.hh"
#include "api/session.hh"
#include "mem/array_pool.hh"
#include "test_util.hh"

namespace refrint::test
{
namespace
{

Scenario
scenario(const char *app, const char *config, double retentionUs = 50,
         double ambientC = 0, std::uint32_t cores = 16,
         bool hybrid = false)
{
    Scenario s;
    s.app = app;
    s.config = config;
    s.retentionUs = config == std::string("SRAM") ? 0 : retentionUs;
    s.ambientC = ambientC;
    s.cores = cores;
    s.hybrid = hybrid;
    s.sim.refsPerCore = 300;
    s.sim.seed = 3;
    return s;
}

/** Every counter and every stored field of two runs agree exactly. */
void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(encodeCacheRow(cacheRowOf(a)),
              encodeCacheRow(cacheRowOf(b)));
    const HierarchyCounts &x = a.counts;
    const HierarchyCounts &y = b.counts;
    EXPECT_EQ(x.l1Reads, y.l1Reads);
    EXPECT_EQ(x.l1Writes, y.l1Writes);
    EXPECT_EQ(x.l1Refreshes, y.l1Refreshes);
    EXPECT_EQ(x.l2Reads, y.l2Reads);
    EXPECT_EQ(x.l2Writes, y.l2Writes);
    EXPECT_EQ(x.l2Refreshes, y.l2Refreshes);
    EXPECT_EQ(x.l3Reads, y.l3Reads);
    EXPECT_EQ(x.l3Writes, y.l3Writes);
    EXPECT_EQ(x.l3Refreshes, y.l3Refreshes);
    EXPECT_EQ(x.dramAccesses, y.dramAccesses);
    EXPECT_EQ(x.netHops, y.netHops);
    EXPECT_EQ(x.netDataMsgs, y.netDataMsgs);
    EXPECT_EQ(x.netCtrlMsgs, y.netCtrlMsgs);
    EXPECT_EQ(x.l3Misses, y.l3Misses);
    EXPECT_EQ(x.l2Misses, y.l2Misses);
    EXPECT_EQ(x.dl1Misses, y.dl1Misses);
    EXPECT_EQ(x.refreshWritebacks, y.refreshWritebacks);
    EXPECT_EQ(x.refreshInvalidations, y.refreshInvalidations);
    EXPECT_EQ(x.decayedHits, y.decayedHits);
    EXPECT_EQ(x.l2OffLineTicks, y.l2OffLineTicks);
    EXPECT_EQ(x.l3OffLineTicks, y.l3OffLineTicks);
}

/** Total lines of every array of @p cfg. */
std::uint64_t
machineLines(const MachineConfig &cfg)
{
    std::uint64_t n = 0;
    for (const CacheLevelSpec &lv : cfg.levels) {
        const std::uint64_t units = lv.sharing == Sharing::Private
                                        ? cfg.numCores
                                        : cfg.numBanks;
        n += units * lv.geom.numLines();
    }
    return n;
}

TEST(ArrayPoolTest, RecycledSessionRowsEqualFreshSystems)
{
    // One worker runs the whole plan, so every scenario after the
    // first builds on the previous one's restored arrays: SRAM after
    // All-policy stamps, Valid after WB write-backs, a 32-core machine
    // after a 16-core one and back, thermal rescaling, a hybrid
    // machine, the SmartRefresh comparator.
    const std::vector<Scenario> scenarios = {
        scenario("fft", "SRAM"),
        scenario("fft", "P.all"),
        scenario("lu", "SRAM"),
        scenario("lu", "R.all"),
        scenario("fft", "P.valid"),
        scenario("radix", "R.WB(4,4)", 100),
        scenario("radix", "P.dirty"),
        scenario("fft", "R.valid"),
        scenario("lu", "P.WB(32,32)", 100),
        scenario("fft", "S.all"),
        scenario("fft", "R.dirty"),
        scenario("lu", "R.WB(32,32)", 50, 85),
        scenario("fft", "SRAM", 0, 0, 32),
        scenario("fft", "R.all", 50, 0, 32),
        scenario("fft", "S.valid"),
        scenario("lu", "P.all", 50, 0, 16, true),
        scenario("lu", "R.valid", 50, 0, 16, true),
        scenario("fft", "P.all", 50, 65),
        scenario("radix", "SRAM"),
    };
    ExperimentPlan plan;
    for (const Scenario &s : scenarios)
        plan.addBaseline(s);
    Session session(nullptr, 1);
    const SweepResult recycled = session.run(plan);
    ASSERT_EQ(recycled.raw.size(), scenarios.size());

    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        SCOPED_TRACE(scenarios[i].logLabel());
        ExperimentPlan alone;
        alone.addBaseline(scenarios[i]);
        const SweepResult fresh = Session(nullptr, 1).run(alone);
        ASSERT_EQ(fresh.raw.size(), 1u);
        expectSameRun(recycled.raw[i], fresh.raw[0]);
    }
}

TEST(ArrayPoolTest, RecycledRunsOfTheDecayComparatorEqualFreshRuns)
{
    // The decay comparator is no plan axis; drive the runner the way a
    // Session worker does, with one pool across the runs.
    UniformWorkload app(256 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 300;
    const std::vector<MachineConfig> machines = {
        MachineConfig::paperSramDecay(usToTicks(2.0)),
        MachineConfig::paperEdram(RefreshPolicy::periodic(DataPolicy::All),
                                  usToTicks(50.0)),
        MachineConfig::paperSramDecay(usToTicks(2.0)),
        MachineConfig::paperSram(),
        MachineConfig::paperSramDecay(usToTicks(5.0)),
    };
    ArrayPool pool;
    for (const MachineConfig &cfg : machines) {
        SCOPED_TRACE(cfg.configName());
        const RunResult recycled = runOnce(cfg, app, sim,
                                           EnergyParams::calibrated(),
                                           nullptr, &pool);
        const RunResult fresh = runOnce(cfg, app, sim);
        expectSameRun(recycled, fresh);
    }
}

TEST(ArrayPoolTest, HoldsOnlyTheLastMachinesArrays)
{
    UniformWorkload app(64 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 200;
    const RefreshPolicy valid = RefreshPolicy::refrint(DataPolicy::Valid);
    const std::vector<MachineConfig> machines = {
        MachineConfig::paperSram(16),
        MachineConfig::paperEdram(valid, usToTicks(50.0), 32),
        MachineConfig::paperHybrid(valid, usToTicks(50.0), 16),
        MachineConfig::paperSram(32),
        MachineConfig::paperEdram(valid, usToTicks(50.0), 16),
    };
    ArrayPool pool;
    for (const MachineConfig &cfg : machines) {
        SCOPED_TRACE(std::to_string(cfg.numCores) + " cores");
        runOnce(cfg, app, sim, EnergyParams::calibrated(), nullptr, &pool);
        EXPECT_EQ(pool.heldArrays(),
                  3u * cfg.numCores + cfg.numBanks); // IL1, DL1, L2; banks
        EXPECT_EQ(pool.heldLines(), machineLines(cfg));
    }
}

} // namespace
} // namespace refrint::test
