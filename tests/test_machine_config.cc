/**
 * @file
 * MachineConfig tests: factory shapes, derived banks and torus,
 * validation, machine labels — plus end-to-end smoke runs of the new
 * degrees of freedom (32-core and hybrid SRAM/eDRAM machines) with
 * full coherence/refresh invariant checks.
 */

#include <gtest/gtest.h>

#include "energy/energy_model.hh"
#include "harness/binning.hh"
#include "harness/sweep.hh"
#include "test_util.hh"
#include "workload/micro.hh"

namespace refrint
{
namespace
{

using test::runTiny;
using test::tinyConfig;
using test::tinyEdram;

TEST(MachineConfig, PaperDefaultReproducesTable51)
{
    const MachineConfig c = MachineConfig::paper();
    EXPECT_EQ(c.numCores, 16u);
    EXPECT_EQ(c.numBanks(), 16u);
    EXPECT_EQ(c.torusDim(), 4u);
    EXPECT_TRUE(c.machineId.empty());

    EXPECT_EQ(c.il1().geom.sizeBytes, 32u * 1024);
    EXPECT_EQ(c.il1().geom.assoc, 2u);
    EXPECT_EQ(c.dl1().geom.assoc, 4u);
    EXPECT_EQ(c.l2().geom.sizeBytes, 256u * 1024);
    EXPECT_EQ(c.l2().geom.latency, 2u);
    EXPECT_EQ(c.llc().geom.sizeBytes, 1024u * 1024);
    EXPECT_EQ(c.llc().geom.indexShift, 4u); // 16 banks -> 4 bits
    EXPECT_TRUE(c.llc().geom.hashSets);
    EXPECT_EQ(c.llcBytes(), 16u * 1024 * 1024);

    EXPECT_EQ(c.llc().engine.sentryGroupSize, 16u);
    EXPECT_EQ(c.il1().engine.sentryGroupSize, 1u);

    EXPECT_EQ(MachineConfig::paperSram().configName(), "SRAM");
    const RefreshPolicy pol = RefreshPolicy::refrint(DataPolicy::WB, 8, 8);
    EXPECT_EQ(
        MachineConfig::paperEdram(pol, usToTicks(50.0)).configName(),
        pol.name());
}

TEST(MachineConfig, TorusDimensionDerivesFromCoreCount)
{
    EXPECT_EQ(torusDimFor(4), 2u);
    EXPECT_EQ(torusDimFor(8), 3u);
    EXPECT_EQ(torusDimFor(16), 4u);
    EXPECT_EQ(torusDimFor(32), 6u);
    EXPECT_EQ(torusDimFor(36), 6u);
    EXPECT_EQ(torusDimFor(64), 8u);

    const MachineConfig c32 = MachineConfig::paper(32);
    EXPECT_EQ(c32.numBanks(), 32u);
    EXPECT_EQ(c32.torusDim(), 6u);
    EXPECT_EQ(c32.llc().geom.indexShift, 5u); // 32 banks -> 5 bits
    EXPECT_EQ(c32.llcBytes(), 32u * 1024 * 1024);

    const MachineConfig c8 = MachineConfig::paper(8);
    EXPECT_EQ(c8.torusDim(), 3u);
    EXPECT_EQ(c8.llc().geom.indexShift, 3u);
}

TEST(MachineConfig, MachineIdsKeyTheSweepCache)
{
    const RefreshPolicy pol = RefreshPolicy::refrint(DataPolicy::Valid);
    EXPECT_EQ(MachineConfig::paper().machineId, "");
    EXPECT_EQ(MachineConfig::paper(32).machineId, "c32");
    EXPECT_EQ(MachineConfig::paperSram(64).machineId, "c64");
    EXPECT_EQ(
        MachineConfig::paperHybrid(pol, usToTicks(50.0)).machineId,
        "hyb");
    EXPECT_EQ(
        MachineConfig::paperHybrid(pol, usToTicks(50.0), 32).machineId,
        "c32+hyb");
}

TEST(MachineConfig, TechSummaryAndHybridPredicates)
{
    const RefreshPolicy pol = RefreshPolicy::refrint(DataPolicy::Valid);
    EXPECT_EQ(MachineConfig::paper().techSummary(), "eDRAM");
    EXPECT_EQ(MachineConfig::paperSram().techSummary(), "SRAM");
    const MachineConfig hyb =
        MachineConfig::paperHybrid(pol, usToTicks(50.0));
    EXPECT_TRUE(hyb.hybrid());
    EXPECT_TRUE(hyb.anyEdram());
    EXPECT_EQ(hyb.techSummary(), "SRAM(il1/dl1/l2)+eDRAM(l3)");
    EXPECT_FALSE(MachineConfig::paper().hybrid());
    EXPECT_FALSE(MachineConfig::paperSram().anyEdram());
}

TEST(MachineConfig, SetUpperDataPolicyKeepsLlcTimingAndParameters)
{
    MachineConfig c =
        tinyEdram(RefreshPolicy::refrint(DataPolicy::WB, 4, 8));
    EXPECT_EQ(c.il1().policy.data, DataPolicy::Valid);
    c.setUpperDataPolicy(DataPolicy::WB);
    EXPECT_EQ(c.l2().policy.data, DataPolicy::WB);
    EXPECT_EQ(c.l2().policy.time, TimePolicy::Refrint);
    EXPECT_EQ(c.l2().policy.n, 4u);
    EXPECT_EQ(c.l2().policy.m, 8u);
    EXPECT_EQ(c.llc().policy.data, DataPolicy::WB); // LLC untouched
}

TEST(MachineConfig, ValidateRejectsBrokenDescriptorSets)
{
    EXPECT_DEATH(MachineConfig::paper(2), "4\\.\\.64");
    EXPECT_DEATH(MachineConfig::paper(65), "4\\.\\.64");

    MachineConfig splitL1 = MachineConfig::paper();
    splitL1.il1().tech = CellTech::Sram;
    EXPECT_DEATH(splitL1.validate(), "share a cell technology");

    MachineConfig tooWide = MachineConfig::paper();
    tooWide.numCores = 65;
    EXPECT_DEATH(tooWide.validate(), "64");

    // The SmartRefresh comparator does not follow a thermal machine's
    // retention, on the paper machine or on a hybrid one.
    const RefreshPolicy smart{TimePolicy::SmartRefresh, DataPolicy::All,
                              0, 0};
    EXPECT_DEATH(MachineConfig::paperEdramThermal(smart, usToTicks(50.0),
                                                  85.0)
                     .validate(),
                 "SmartRefresh");
    MachineConfig hybridSmart =
        MachineConfig::paperHybrid(smart, usToTicks(50.0));
    hybridSmart.thermal.enabled = true;
    EXPECT_DEATH(hybridSmart.validate(), "SmartRefresh");

    // An LLC bank has 16,384 lines, so its sentry margin is 16.384 us:
    // a 16 us retention leaves the sentry nothing.  Just above the
    // margin is a machine.
    const RefreshPolicy pall = RefreshPolicy::periodic(DataPolicy::All);
    EXPECT_DEATH(MachineConfig::paperEdram(pall, usToTicks(16.0)).validate(),
                 "sentry margin");
    std::string err;
    EXPECT_FALSE(MachineConfig::paperHybrid(pall, 16'384).check(err));
    EXPECT_NE(err.find("l3: the 16.384 us sentry margin"),
              std::string::npos)
        << err;
    EXPECT_TRUE(MachineConfig::paperEdram(pall, 16'385).check(err)) << err;

    // A thermal machine's ambient must lie where the thermal response
    // resolves it (35-135 deg C).
    EXPECT_DEATH(
        MachineConfig::paperEdramThermal(pall, usToTicks(50.0), 200.0)
            .validate(),
        "outside the thermal response");
    EXPECT_TRUE(
        MachineConfig::paperEdramThermal(pall, usToTicks(50.0), 135.0)
            .check(err))
        << err;

    // The engines stagger an LLC bank's 16,384 = 2^14 lines across a
    // retention a thermal machine may scale 32x: retention x 2^19 must
    // stay below 2^63, or 2^49 without the thermal scale.
    const Tick thermalCeiling = Tick{1} << 44;
    EXPECT_DEATH(
        MachineConfig::paperEdramThermal(pall, thermalCeiling, 35.0)
            .validate(),
        "l3: .* overflows the tick counter");
    EXPECT_TRUE(
        MachineConfig::paperEdramThermal(pall, thermalCeiling - 1, 35.0)
            .check(err))
        << err;
    EXPECT_TRUE(MachineConfig::paperEdram(pall, thermalCeiling).check(err))
        << err;
    EXPECT_FALSE(
        MachineConfig::paperEdram(pall, Tick{1} << 49).check(err));
    EXPECT_NE(err.find("overflows the tick counter"), std::string::npos)
        << err;
    EXPECT_TRUE(
        MachineConfig::paperEdram(pall, (Tick{1} << 49) - 1).check(err))
        << err;
}

TEST(MachineSmoke, BinningMeasuresVisibilityOnTheSramTwin)
{
    // An eDRAM (or hybrid) machine passed to measureBinning must not
    // perturb the visibility metric with refresh effects: the paper's
    // methodology measures it on the SRAM machine.
    UniformWorkload app(32 * 1024, 0.3);
    BinningThresholds thr;
    thr.footprintRefs = 2000;
    thr.visibilityRefs = 400;
    const BinningMeasurement onSram =
        measureBinning(app, thr, test::tinyConfig(CellTech::Sram));
    const BinningMeasurement onEdram =
        measureBinning(app, thr, test::tinyConfig(CellTech::Edram));
    EXPECT_DOUBLE_EQ(onSram.writebacksPerKiloInstr,
                     onEdram.writebacksPerKiloInstr);
}

TEST(MachineConfig, ScaledDownShrinksEveryLevel)
{
    const MachineConfig c = MachineConfig::paper().scaledDown(4);
    EXPECT_EQ(c.il1().geom.sizeBytes, 8u * 1024);
    EXPECT_EQ(c.llc().geom.sizeBytes, 256u * 1024);
    EXPECT_EQ(c.numCores, 16u); // scale factor touches geometry only
}

// ---------------------------------------------------------------------
// End-to-end smoke runs of the new machine axes
// ---------------------------------------------------------------------

/** Run @p cfg briefly and verify every coherence/refresh invariant. */
void
smoke(const MachineConfig &cfg, std::uint64_t refs = 2500)
{
    PingPongWorkload app(64);
    SimParams sim;
    sim.refsPerCore = refs;
    sim.seed = 11;
    CmpSystem sys(cfg, app, sim);
    const Tick end = sys.run();
    sys.hierarchy().checkInvariants(end);

    const HierarchyCounts n = sys.hierarchy().counts();
    // No line is ever read past its retention deadline.
    EXPECT_EQ(n.decayedHits, 0u);
}

TEST(MachineSmoke, ThirtyTwoCoreRefrintKeepsInvariants)
{
    MachineConfig cfg = tinyConfig(CellTech::Edram, 32);
    cfg.setLlcPolicy(RefreshPolicy::refrint(DataPolicy::Valid));
    smoke(cfg);

    // And the Periodic engine on the same scaled machine.
    cfg.setLlcPolicy(RefreshPolicy::periodic(DataPolicy::All));
    smoke(cfg);
}

TEST(MachineSmoke, SixtyFourCoreMachineRuns)
{
    MachineConfig cfg = tinyConfig(CellTech::Edram, 64);
    cfg.setLlcPolicy(RefreshPolicy::refrint(DataPolicy::WB, 8, 8));
    smoke(cfg, 1200);
}

TEST(MachineSmoke, NonPowerOfTwoCoreCountUsesModuloBanking)
{
    // 9 cores -> 3x3 torus, 9 banks: bankOf falls back to modulo.
    MachineConfig cfg = tinyConfig(CellTech::Edram, 9);
    smoke(cfg);
}

TEST(MachineSmoke, HybridSramUppersOverEdramLlc)
{
    MachineConfig cfg =
        tinyEdram(RefreshPolicy::refrint(DataPolicy::Valid));
    cfg.il1().tech = CellTech::Sram;
    cfg.dl1().tech = CellTech::Sram;
    cfg.l2().tech = CellTech::Sram;
    ASSERT_TRUE(cfg.hybrid());

    PingPongWorkload app(64);
    SimParams sim;
    sim.refsPerCore = 2500;
    sim.seed = 11;
    CmpSystem sys(cfg, app, sim);
    const Tick end = sys.run();
    sys.hierarchy().checkInvariants(end);

    const HierarchyCounts n = sys.hierarchy().counts();
    EXPECT_EQ(n.decayedHits, 0u);
    // SRAM uppers never refresh; the eDRAM LLC does.
    EXPECT_EQ(n.l1Refreshes, 0u);
    EXPECT_EQ(n.l2Refreshes, 0u);
    EXPECT_GT(n.l3Refreshes, 0u);
}

TEST(MachineSmoke, HybridLeakageSitsBetweenSramAndEdram)
{
    // Same counts and window, three technology mixes: hybrid leakage
    // must land strictly between all-eDRAM and all-SRAM.
    const RefreshPolicy pol = RefreshPolicy::refrint(DataPolicy::Valid);
    const Tick win = usToTicks(100.0);
    HierarchyCounts n{}; // leakage-only comparison
    const EnergyParams p = EnergyParams::calibrated();

    const double sram =
        computeEnergy(p, n, MachineConfig::paperSram(), win, 0).leakage;
    const double edram =
        computeEnergy(p, n, MachineConfig::paperEdram(pol, win), win, 0)
            .leakage;
    const double hyb =
        computeEnergy(p, n, MachineConfig::paperHybrid(pol, win), win, 0)
            .leakage;
    EXPECT_LT(edram, hyb);
    EXPECT_LT(hyb, sram);
    EXPECT_NEAR(edram, sram * p.edramLeakRatio, sram * 1e-12);
}

TEST(MachineSmoke, BinningReadsLlcCapacityFromTheConfig)
{
    // A footprint that is "large" against a tiny LLC must stop being
    // large when judged against a machine with a bigger LLC.
    UniformWorkload app(256 * 1024, 0.3);
    BinningThresholds thr;
    thr.footprintRefs = 4000;
    thr.visibilityRefs = 400;

    MachineConfig small = tinyConfig(CellTech::Sram); // 128 KB LLC
    const BinningMeasurement onSmall = measureBinning(app, thr, small);
    EXPECT_TRUE(onSmall.largeFootprint);

    const BinningMeasurement onPaper =
        measureBinning(app, thr, MachineConfig::paperSram()); // 16 MB
    EXPECT_FALSE(onPaper.largeFootprint);
}

TEST(MachineSmoke, ThirtyTwoCoreSweepRowsAreMachineKeyed)
{
    // A one-policy sweep on the 32-core machine: rows normalize
    // against the 32-core SRAM baseline and carry the machine label.
    SweepSpec spec;
    spec.apps = {findWorkload("fft")};
    spec.retentions = {usToTicks(50.0)};
    spec.policies = {RefreshPolicy::refrint(DataPolicy::Valid)};
    spec.machines = {MachineAxis{32, false}};
    spec.sim.refsPerCore = 400;
    const SweepResult s = test::runSpec(spec, /*storeDir=*/"", 1);
    ASSERT_EQ(s.raw.size(), 2u);
    EXPECT_EQ(s.raw[0].config, "SRAM");
    EXPECT_EQ(s.raw[0].machine, "c32");
    ASSERT_EQ(s.normalized.size(), 1u);
    EXPECT_EQ(s.normalized[0].machine, "c32");
    EXPECT_GT(s.normalized[0].memEnergy, 0.0);
}

} // namespace
} // namespace refrint
