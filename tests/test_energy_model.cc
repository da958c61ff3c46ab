/**
 * @file
 * Unit tests for the energy model: the Table 5.2 identities (eDRAM
 * leakage = SRAM/4, refresh energy = access energy), the decomposition
 * consistency (by-level sums equal by-component sums), and the
 * calibration anchors the parameters encode (§5/§6.2).
 */

#include <gtest/gtest.h>

#include "energy/energy_model.hh"
#include "test_util.hh"

namespace refrint::test
{

namespace
{

HierarchyCounts
sampleCounts()
{
    HierarchyCounts n;
    n.l1Reads = 1'000'000;
    n.l1Writes = 300'000;
    n.l2Reads = 120'000;
    n.l2Writes = 90'000;
    n.l3Reads = 40'000;
    n.l3Writes = 25'000;
    n.l1Refreshes = 5'000;
    n.l2Refreshes = 20'000;
    n.l3Refreshes = 300'000;
    n.dramAccesses = 8'000;
    n.netHops = 500'000;
    n.netDataMsgs = 60'000;
    return n;
}

TEST(EnergyModel, LevelAndComponentViewsSumIdentically)
{
    const auto cfg = MachineConfig::paperEdram(
        RefreshPolicy::refrint(DataPolicy::Valid), usToTicks(50.0));
    const auto e = computeEnergy(EnergyParams::calibrated(),
                                 sampleCounts(), cfg,
                                 usToTicks(1000.0), 50'000'000);

    // l1+l2+l3 (on-chip) must equal dynamic+leakage+refresh.
    EXPECT_NEAR(e.l1 + e.l2 + e.l3,
                e.dynamic + e.leakage + e.refresh,
                1e-12);
    EXPECT_DOUBLE_EQ(e.memTotal(), e.l1 + e.l2 + e.l3 + e.dram);
    EXPECT_DOUBLE_EQ(e.systemTotal(), e.memTotal() + e.core + e.net);
}

TEST(EnergyModel, EdramLeakageIsAQuarterOfSram)
{
    const HierarchyCounts n; // all-zero: leakage only
    const Tick t = usToTicks(500.0);

    const auto sram = computeEnergy(EnergyParams::calibrated(), n,
                                    MachineConfig::paperSram(), t, 0);
    const auto edram = computeEnergy(
        EnergyParams::calibrated(), n,
        MachineConfig::paperEdram(
            RefreshPolicy::refrint(DataPolicy::Valid), usToTicks(50.0)),
        t, 0);

    EXPECT_NEAR(edram.leakage, sram.leakage * 0.25, 1e-12);
}

TEST(EnergyModel, RefreshEnergyEqualsAccessEnergyPerLine)
{
    // Table 5.2: refreshing a line costs exactly one access.  Compare a
    // run with k refreshes against one with k extra reads at each level.
    const auto cfg = MachineConfig::paperEdram(
        RefreshPolicy::refrint(DataPolicy::Valid), usToTicks(50.0));
    const Tick t = usToTicks(100.0);

    HierarchyCounts refreshes;
    refreshes.l1Refreshes = 1000;
    refreshes.l2Refreshes = 2000;
    refreshes.l3Refreshes = 3000;

    HierarchyCounts reads;
    reads.l1Reads = 1000;
    reads.l2Reads = 2000;
    reads.l3Reads = 3000;

    const auto er = computeEnergy(EnergyParams::calibrated(), refreshes,
                                  cfg, t, 0);
    const auto ea = computeEnergy(EnergyParams::calibrated(), reads, cfg,
                                  t, 0);

    EXPECT_NEAR(er.refresh, ea.dynamic, 1e-15);
    EXPECT_NEAR(er.memTotal(), ea.memTotal(), 1e-12);
}

TEST(EnergyModel, EnergyScalesLinearlyWithCounts)
{
    const auto cfg = MachineConfig::paperSram();
    const Tick t = usToTicks(100.0);

    HierarchyCounts n = sampleCounts();
    const auto e1 = computeEnergy(EnergyParams::calibrated(), n, cfg, t, 0);

    HierarchyCounts n2;
    n2.l1Reads = 2 * n.l1Reads;
    n2.l1Writes = 2 * n.l1Writes;
    n2.l2Reads = 2 * n.l2Reads;
    n2.l2Writes = 2 * n.l2Writes;
    n2.l3Reads = 2 * n.l3Reads;
    n2.l3Writes = 2 * n.l3Writes;
    n2.dramAccesses = 2 * n.dramAccesses;
    const auto e2 = computeEnergy(EnergyParams::calibrated(), n2, cfg, t, 0);

    EXPECT_NEAR(e2.dynamic, 2.0 * e1.dynamic, 1e-12);
    EXPECT_NEAR(e2.dram, 2.0 * e1.dram, 1e-12);
    EXPECT_NEAR(e2.leakage, e1.leakage, 1e-12); // time unchanged
}

TEST(EnergyModel, LeakageScalesLinearlyWithTime)
{
    const auto cfg = MachineConfig::paperSram();
    const HierarchyCounts n;
    const auto e1 =
        computeEnergy(EnergyParams::calibrated(), n, cfg, usToTicks(100.0), 0);
    const auto e3 =
        computeEnergy(EnergyParams::calibrated(), n, cfg, usToTicks(300.0), 0);

    EXPECT_NEAR(e3.leakage, 3.0 * e1.leakage, 1e-12);
    EXPECT_NEAR(e3.core, 3.0 * e1.core, 1e-12);
}

// ---------------------------------------------------------------------
// Calibration anchors: the simulated full-SRAM machine must land where
// the paper's setup chapter says it does.
// ---------------------------------------------------------------------

TEST(EnergyModel, SramL1EnergyIsMostlyDynamic)
{
    // §5: "Most of the energy expended in L1 is dynamic energy (~90%)".
    // Verified on a real run of the paper-sized SRAM machine.
    const Workload *fft = findWorkload("fft");
    ASSERT_NE(fft, nullptr);
    SimParams sim;
    sim.refsPerCore = 60'000; // warm caches; cold-start stalls inflate
                              // the leakage share on very short runs
    const RunResult r = runOnce(MachineConfig::paperSram(), *fft, sim);

    const double l1Dyn =
        static_cast<double>(r.counts.l1Reads + r.counts.l1Writes) *
        EnergyParams::calibrated().eL1Access;
    EXPECT_GT(l1Dyn / r.energy.l1, 0.5) << l1Dyn / r.energy.l1;
}

TEST(EnergyModel, SramL3CarriesTheMajorityOfOnChipMemoryEnergy)
{
    // §6.2: "L3 consumes the majority (~60%) of the on-chip memory
    // energy".
    const Workload *fft = findWorkload("fft");
    ASSERT_NE(fft, nullptr);
    SimParams sim;
    sim.refsPerCore = 20'000;
    const RunResult r = runOnce(MachineConfig::paperSram(), *fft, sim);

    const double onChip = r.energy.l1 + r.energy.l2 + r.energy.l3;
    EXPECT_GT(r.energy.l3 / onChip, 0.5);
}

} // namespace
} // namespace refrint::test
