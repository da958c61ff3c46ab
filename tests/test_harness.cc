/**
 * @file
 * Tests for the experiment harness: the Table 5.4 sweep definition,
 * run-result normalization, the sweep's result-store round-trip, and
 * the averaging used by the figure renderers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "harness/report.hh"
#include "harness/sweep.hh"
#include "test_util.hh"
#include "workload/micro.hh"

namespace refrint::test
{

namespace
{

// ---------------------------------------------------------------------
// Sweep definition (Table 5.4)
// ---------------------------------------------------------------------

TEST(SweepSpecTest, PaperSweepHasFourteenPolicies)
{
    const auto pols = paperPolicySweep();
    ASSERT_EQ(pols.size(), 14u);

    // Periodic first (plot order), then Refrint.
    for (std::size_t i = 0; i < 7; ++i)
        EXPECT_EQ(pols[i].time, TimePolicy::Periodic) << i;
    for (std::size_t i = 7; i < 14; ++i)
        EXPECT_EQ(pols[i].time, TimePolicy::Refrint) << i;
}

TEST(SweepSpecTest, DataPoliciesMatchTable54)
{
    const auto pols = paperDataPolicies(TimePolicy::Refrint);
    ASSERT_EQ(pols.size(), 7u);
    EXPECT_EQ(pols[0].name(), "R.all");
    EXPECT_EQ(pols[1].name(), "R.valid");
    EXPECT_EQ(pols[2].name(), "R.dirty");
    EXPECT_EQ(pols[3].name(), "R.WB(4,4)");
    EXPECT_EQ(pols[4].name(), "R.WB(8,8)");
    EXPECT_EQ(pols[5].name(), "R.WB(16,16)");
    EXPECT_EQ(pols[6].name(), "R.WB(32,32)");
}

TEST(SweepSpecTest, PaperRetentionsAre50_100_200us)
{
    const auto rets = paperRetentions();
    ASSERT_EQ(rets.size(), 3u);
    EXPECT_EQ(rets[0], usToTicks(50.0));
    EXPECT_EQ(rets[1], usToTicks(100.0));
    EXPECT_EQ(rets[2], usToTicks(200.0));
}

TEST(SweepSpecTest, PolicyNamesRoundTripThroughParse)
{
    for (const RefreshPolicy &p : paperPolicySweep()) {
        RefreshPolicy q;
        ASSERT_TRUE(parsePolicy(p.name(), q));
        EXPECT_EQ(q.name(), p.name());
        EXPECT_EQ(q.time, p.time);
        EXPECT_EQ(q.data, p.data);
        EXPECT_EQ(q.n, p.n);
        EXPECT_EQ(q.m, p.m);
    }
}

TEST(SweepSpecTest, FinalizeFillsPaperDefaults)
{
    SweepSpec spec;
    spec.finalize();
    EXPECT_EQ(spec.apps.size(), 11u);
    EXPECT_EQ(spec.retentions.size(), 3u);
    EXPECT_EQ(spec.policies.size(), 14u);
}

// ---------------------------------------------------------------------
// Normalization
// ---------------------------------------------------------------------

TEST(NormalizeTest, SramBaselineNormalizesToUnity)
{
    UniformWorkload app(16 * 1024, 0.3);
    const RunResult base = runTiny(tinyConfig(CellTech::Sram), app, 3000);

    const NormalizedResult n = normalize(base, base);
    EXPECT_DOUBLE_EQ(n.time, 1.0);
    EXPECT_DOUBLE_EQ(n.memEnergy, 1.0);
    EXPECT_DOUBLE_EQ(n.sysEnergy, 1.0);
    EXPECT_NEAR(n.l1 + n.l2 + n.l3 + n.dram, 1.0, 1e-9);
}

TEST(NormalizeTest, StackedViewsAreConsistent)
{
    UniformWorkload app(16 * 1024, 0.3);
    const RunResult base = runTiny(tinyConfig(CellTech::Sram), app, 3000);
    const RunResult run = runTiny(
        tinyEdram(RefreshPolicy::refrint(DataPolicy::Valid)), app, 3000);

    const NormalizedResult n = normalize(run, base);
    // Fig. 6.1's stack (l1+l2+l3+dram) and Fig. 6.2's stack
    // (dynamic+leakage+refresh+dram) both sum to memEnergy.
    EXPECT_NEAR(n.l1 + n.l2 + n.l3 + n.dram, n.memEnergy, 1e-9);
    EXPECT_NEAR(n.dynamic + n.leakage + n.refresh + n.dram, n.memEnergy,
                1e-9);
}

TEST(NormalizeTest, EdramValidUsesLessMemoryEnergyThanSram)
{
    // The basic eDRAM premise at tiny scale: quarter leakage beats the
    // added refresh energy.
    UniformWorkload app(16 * 1024, 0.3);
    const RunResult base = runTiny(tinyConfig(CellTech::Sram), app, 3000);
    const RunResult run = runTiny(
        tinyEdram(RefreshPolicy::refrint(DataPolicy::Valid)), app, 3000);

    const NormalizedResult n = normalize(run, base);
    EXPECT_LT(n.memEnergy, 1.0);
}

// ---------------------------------------------------------------------
// Sweep caching
// ---------------------------------------------------------------------

TEST(SweepCacheTest, CacheRoundTripsResults)
{
    UniformWorkload app(8 * 1024, 0.3);
    SweepSpec spec;
    spec.apps = {&app};
    spec.retentions = {usToTicks(50.0)};
    spec.policies = {RefreshPolicy::refrint(DataPolicy::Valid),
                     RefreshPolicy::periodic(DataPolicy::All)};
    spec.sim.refsPerCore = 1500;

    const std::string dir = ::testing::TempDir() + "/sweep_store_rt";
    std::filesystem::remove_all(dir);

    const SweepResult fresh = runSpec(spec, dir);
    const SweepResult cached = runSpec(spec, dir);

    ASSERT_EQ(fresh.raw.size(), cached.raw.size());
    ASSERT_EQ(fresh.normalized.size(), cached.normalized.size());
    for (std::size_t i = 0; i < fresh.normalized.size(); ++i) {
        const auto &a = fresh.normalized[i];
        const auto &b = cached.normalized[i];
        EXPECT_EQ(a.app, b.app);
        EXPECT_EQ(a.config, b.config);
        EXPECT_NEAR(a.time, b.time, 1e-5);
        EXPECT_NEAR(a.memEnergy, b.memEnergy, 1e-5);
        EXPECT_NEAR(a.sysEnergy, b.sysEnergy, 1e-5);
        EXPECT_NEAR(a.refresh, b.refresh, 1e-5);
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepCacheTest, CacheKeyedByRefsPerCore)
{
    // Different simulation sizes must not alias in the store.
    UniformWorkload app(8 * 1024, 0.3);
    const std::string dir = ::testing::TempDir() + "/sweep_store_key";
    std::filesystem::remove_all(dir);

    auto mkSpec = [&](std::uint64_t refs) {
        SweepSpec s;
        s.apps = {&app};
        s.retentions = {usToTicks(50.0)};
        s.policies = {RefreshPolicy::refrint(DataPolicy::Valid)};
        s.sim.refsPerCore = refs;
        return s;
    };

    const SweepResult small = runSpec(mkSpec(500), dir);
    const SweepResult large = runSpec(mkSpec(2000), dir);

    EXPECT_NE(small.raw[0].execTicks, large.raw[0].execTicks);
    std::filesystem::remove_all(dir);
}

TEST(SweepCacheTest, AverageFiltersByConfigRetentionAndApp)
{
    UniformWorkload app(8 * 1024, 0.3);
    SweepSpec spec;
    spec.apps = {&app};
    spec.retentions = {usToTicks(50.0), usToTicks(200.0)};
    spec.policies = {RefreshPolicy::refrint(DataPolicy::Valid)};
    // Long enough that the run spans several 200 us retention periods —
    // shorter runs see no refresh at all and the retentions tie.
    spec.sim.refsPerCore = 60'000;

    const SweepResult res = runSpec(std::move(spec));

    const double at50 = res.average(50.0, "R.valid", {},
                                    &NormalizedResult::memEnergy);
    const double at200 = res.average(200.0, "R.valid", {},
                                     &NormalizedResult::memEnergy);
    EXPECT_GT(at50, 0.0);
    EXPECT_GT(at200, 0.0);
    // Longer retention -> fewer refreshes -> less energy.
    EXPECT_LT(at200, at50);

    // find() locates the exact row.
    const NormalizedResult *row =
        res.find("micro.uniform", 50.0, "R.valid");
    ASSERT_NE(row, nullptr);
    EXPECT_NEAR(row->memEnergy, at50, 1e-12);
    EXPECT_EQ(res.find("micro.uniform", 50.0, "R.dirty"), nullptr);
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

TEST(ReportTest, ClassAppNamesMatchTable61)
{
    const auto c1 = classAppNames(1);
    const auto c2 = classAppNames(2);
    const auto c3 = classAppNames(3);
    EXPECT_EQ(c1.size(), 4u);
    EXPECT_EQ(c2.size(), 4u);
    EXPECT_EQ(c3.size(), 3u);
    // Class 0 is the "no filter" convention used by the renderers.
    EXPECT_TRUE(classAppNames(0).empty());
}

TEST(ReportTest, FigurePrintersProduceOutput)
{
    UniformWorkload app(8 * 1024, 0.3);
    SweepSpec spec;
    spec.apps = {&app};
    spec.retentions = {usToTicks(50.0)};
    spec.policies = paperPolicySweep();
    spec.sim.refsPerCore = 1000;
    const SweepResult res = runSpec(std::move(spec));

    const std::string path = ::testing::TempDir() + "/report_out.txt";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    printFig61(res, f);
    printFig62(res, 0, f);
    printFig63(res, 0, f);
    printFig64(res, 0, f);
    printHeadline(res, f);
    const long sz = std::ftell(f);
    std::fclose(f);
    std::remove(path.c_str());

    EXPECT_GT(sz, 500); // every figure printed a block
}

} // namespace
} // namespace refrint::test
