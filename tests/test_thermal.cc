/**
 * @file
 * Thermal subsystem tests: the lumped-RC node physics, the retention
 * response curve, end-to-end retention safety under activity-driven
 * temperature swings (the decayed counter must stay 0 across retention
 * rescales), the headline thermal result (Periodic-All pays for heat,
 * Refrint WB(32,32) strictly less), and determinism and the store
 * round-trip of the ambient sweep axis.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "harness/sweep.hh"
#include "test_util.hh"
#include "thermal/thermal_model.hh"
#include "workload/micro.hh"

namespace refrint::test
{

namespace
{

// ---------------------------------------------------------------------
// ThermalNode: lumped-RC physics
// ---------------------------------------------------------------------

TEST(ThermalNode, ConvergesToSteadyState)
{
    ThermalNode node(45.0, 40.0, 2.5e-6); // tau = 100 us
    EXPECT_DOUBLE_EQ(node.tempC(), 45.0);
    EXPECT_DOUBLE_EQ(node.steadyStateC(0.25), 55.0);

    double prev = node.tempC();
    for (int i = 0; i < 200; ++i) { // 200 x 10 us = 20 tau
        node.step(0.25, 10e-6);
        EXPECT_GE(node.tempC(), prev); // monotone rise under const power
        EXPECT_LE(node.tempC(), 55.0 + 1e-9); // no Euler overshoot
        prev = node.tempC();
    }
    EXPECT_NEAR(node.tempC(), 55.0, 1e-6);
}

TEST(ThermalNode, ZeroPowerStaysAtAmbient)
{
    ThermalNode node(45.0, 40.0, 2.5e-6);
    for (int i = 0; i < 50; ++i)
        node.step(0.0, 10e-6);
    EXPECT_DOUBLE_EQ(node.tempC(), 45.0);
}

TEST(ThermalNode, CoolsBackAfterPowerBurst)
{
    ThermalNode node(45.0, 40.0, 2.5e-6);
    for (int i = 0; i < 100; ++i)
        node.step(0.5, 10e-6);
    const double hot = node.tempC();
    EXPECT_GT(hot, 60.0);
    for (int i = 0; i < 1000; ++i)
        node.step(0.0, 10e-6);
    EXPECT_NEAR(node.tempC(), 45.0, 1e-3);
}

TEST(ThermalNode, DeterministicStepSequence)
{
    ThermalNode a(45.0, 40.0, 2.5e-6), b(45.0, 40.0, 2.5e-6);
    for (int i = 0; i < 100; ++i) {
        const double p = 0.1 + 0.01 * (i % 7);
        EXPECT_DOUBLE_EQ(a.step(p, 10e-6), b.step(p, 10e-6));
    }
}

// ---------------------------------------------------------------------
// ThermalResponse: the Arrhenius-style retention curve
// ---------------------------------------------------------------------

TEST(ThermalResponse, NominalAtReferenceTemperature)
{
    const ThermalResponse r;
    EXPECT_DOUBLE_EQ(r.factorAt(r.refTempC), 1.0);
}

TEST(ThermalResponse, HalvesPerHalvingCelsius)
{
    const ThermalResponse r;
    EXPECT_NEAR(r.factorAt(r.refTempC + r.halvingCelsius), 0.5, 1e-12);
    EXPECT_NEAR(r.factorAt(r.refTempC - r.halvingCelsius), 2.0, 1e-12);
    EXPECT_NEAR(r.factorAt(r.refTempC + 2 * r.halvingCelsius), 0.25,
                1e-12);
}

TEST(ThermalResponse, ClampsAtBothEnds)
{
    const ThermalResponse r;
    EXPECT_DOUBLE_EQ(r.factorAt(1000.0), r.minFactor);
    EXPECT_DOUBLE_EQ(r.factorAt(-1000.0), r.maxFactor);
}

TEST(ThermalResponse, RetentionParamsScaleHook)
{
    RetentionParams p{usToTicks(50.0), kTickNever, {}, {}};
    EXPECT_EQ(p.cellRetentionAt(p.thermal.refTempC), p.cellRetention);
    EXPECT_EQ(p.cellRetentionAt(p.thermal.refTempC +
                                p.thermal.halvingCelsius),
              p.cellRetention / 2);
}

// ---------------------------------------------------------------------
// End to end: thermal runs on the tiny machine
// ---------------------------------------------------------------------

HierarchyConfig
tinyThermal(const RefreshPolicy &pol, double ambientC)
{
    HierarchyConfig c = tinyEdram(pol);
    c.thermal.enabled = true;
    c.thermal.ambientC = ambientC;
    return c;
}

TEST(ThermalRun, TemperatureRisesAboveAmbientAndIsRecorded)
{
    UniformWorkload app(16 * 1024, 0.3);
    const RunResult r = runTiny(
        tinyThermal(RefreshPolicy::periodic(DataPolicy::All), 85.0), app,
        20'000);
    EXPECT_DOUBLE_EQ(r.ambientC, 85.0);
    EXPECT_GT(r.maxTempC, 85.0); // leakage + activity heat the die
    EXPECT_LT(r.maxTempC, 120.0);
}

TEST(ThermalRun, DisabledRunRecordsNoThermalState)
{
    UniformWorkload app(16 * 1024, 0.3);
    const RunResult r = runTiny(
        tinyEdram(RefreshPolicy::periodic(DataPolicy::All)), app, 5'000);
    EXPECT_DOUBLE_EQ(r.ambientC, 0.0);
    EXPECT_DOUBLE_EQ(r.maxTempC, 0.0);
}

/** Retention safety: across every rescale the engines may never let a
 *  line decay (the decayed counter is the canary, and the hierarchy
 *  invariant checker verifies expiries directly). */
TEST(ThermalRun, NoLineDecaysAcrossRetentionRescales)
{
    UniformWorkload app(16 * 1024, 0.4);
    for (const RefreshPolicy &pol :
         {RefreshPolicy::periodic(DataPolicy::All),
          RefreshPolicy::refrint(DataPolicy::All),
          RefreshPolicy::refrint(DataPolicy::Valid),
          RefreshPolicy::refrint(DataPolicy::WB, 4, 4)}) {
        for (double ambient : {45.0, 85.0}) {
            SCOPED_TRACE(pol.name() + " @ " + std::to_string(ambient));
            SimParams sim;
            sim.refsPerCore = 15'000;
            sim.seed = 7;
            CmpSystem sys(tinyThermal(pol, ambient), app, sim);
            sys.run();
            EXPECT_EQ(sys.hierarchy().counts().decayedHits, 0u);
            sys.hierarchy().checkInvariants(sys.execTicks());
            ASSERT_NE(sys.hierarchy().thermal(), nullptr);
            EXPECT_GT(sys.hierarchy().thermal()->epochs(), 0u);
        }
    }
}

/** The headline thermal scenario: a hot die costs Periodic-All real
 *  refresh energy, while Refrint WB(32,32) degrades strictly less. */
TEST(ThermalRun, HotDieHurtsPeriodicAllMoreThanRefrintWB)
{
    UniformWorkload app(16 * 1024, 0.3);
    const std::uint64_t refs = 20'000;

    const RunResult p45 = runTiny(
        tinyThermal(RefreshPolicy::periodic(DataPolicy::All), 45.0), app,
        refs);
    const RunResult p85 = runTiny(
        tinyThermal(RefreshPolicy::periodic(DataPolicy::All), 85.0), app,
        refs);
    const RunResult w45 = runTiny(
        tinyThermal(RefreshPolicy::refrint(DataPolicy::WB, 32, 32), 45.0),
        app, refs);
    const RunResult w85 = runTiny(
        tinyThermal(RefreshPolicy::refrint(DataPolicy::WB, 32, 32), 85.0),
        app, refs);

    // P.all refresh energy rises with ambient temperature.
    EXPECT_GT(p85.energy.refresh, p45.energy.refresh);
    EXPECT_GT(p85.counts.l3Refreshes, p45.counts.l3Refreshes);

    // ... and R.WB(32,32) degrades strictly less, absolutely and
    // relatively.
    const double pDelta = p85.energy.refresh - p45.energy.refresh;
    const double wDelta = w85.energy.refresh - w45.energy.refresh;
    EXPECT_LT(wDelta, pDelta);
    EXPECT_LT(w85.energy.refresh, p85.energy.refresh);
    const double pMemRatio =
        p85.energy.memTotal() / p45.energy.memTotal();
    const double wMemRatio =
        w85.energy.memTotal() / w45.energy.memTotal();
    EXPECT_LT(wMemRatio, pMemRatio);
}

TEST(ThermalRun, DeterministicAcrossRepeats)
{
    UniformWorkload app(16 * 1024, 0.3);
    const HierarchyConfig cfg =
        tinyThermal(RefreshPolicy::refrint(DataPolicy::Valid), 65.0);
    const RunResult a = runTiny(cfg, app, 10'000);
    const RunResult b = runTiny(cfg, app, 10'000);
    EXPECT_EQ(a.execTicks, b.execTicks);
    EXPECT_DOUBLE_EQ(a.maxTempC, b.maxTempC);
    EXPECT_EQ(a.counts.l3Refreshes, b.counts.l3Refreshes);
    EXPECT_DOUBLE_EQ(a.energy.refresh, b.energy.refresh);
}

TEST(ThermalRun, SramMachineRejectsThermal)
{
    HierarchyConfig cfg = tinyConfig(CellTech::Sram);
    cfg.thermal.enabled = true;
    EventQueue eq;
    EXPECT_DEATH(Hierarchy(cfg, eq), "thermal model requires an eDRAM");
}

/** Regression: a warming retention rescale re-keyed a sentry group to
 *  a tick already past, and this exact paper-machine run aborted with
 *  "event scheduled in the past".  It must complete with no decayed
 *  hits. */
TEST(ThermalRun, RescaleNeverRearmsASentryGroupInThePast)
{
    MachineConfig cfg = MachineConfig::paperEdram(
        RefreshPolicy::refrint(DataPolicy::WB, 32, 32), usToTicks(50.0));
    cfg.thermal.enabled = true;
    cfg.thermal.ambientC = 85.0;
    SimParams sim;
    sim.refsPerCore = 20'000;
    sim.seed = 520236434;
    const Workload *radix = findWorkload("radix");
    ASSERT_NE(radix, nullptr);
    const RunResult r = runOnce(cfg, *radix, sim);
    EXPECT_EQ(r.counts.decayedHits, 0u);
    EXPECT_GT(r.maxTempC, 85.0);
}

// ---------------------------------------------------------------------
// The ambient sweep axis: determinism, store round-trip, key isolation
// ---------------------------------------------------------------------

SweepSpec
thermalSpec(const Workload &a1, const Workload &a2)
{
    SweepSpec spec;
    spec.apps = {&a1, &a2};
    spec.retentions = {usToTicks(50.0)};
    spec.policies = {RefreshPolicy::periodic(DataPolicy::All),
                     RefreshPolicy::refrint(DataPolicy::WB, 4, 4)};
    spec.ambients = {45.0, 85.0};
    spec.sim.refsPerCore = 1200;
    return spec;
}

TEST(ThermalSweep, ParallelBitIdenticalToSerial)
{
    UniformWorkload u(8 * 1024, 0.3);
    StreamWorkload s(32 * 1024, 0.2);

    const SweepResult a = runSpec(thermalSpec(u, s), "", 1);
    const SweepResult b = runSpec(thermalSpec(u, s), "", 4);

    // 2 apps x (1 SRAM + 2 ambients x 1 retention x 2 policies)
    ASSERT_EQ(a.raw.size(), 10u);
    ASSERT_EQ(a.raw.size(), b.raw.size());
    for (std::size_t i = 0; i < a.raw.size(); ++i) {
        SCOPED_TRACE(a.raw[i].app + "/" + a.raw[i].config);
        EXPECT_EQ(a.raw[i].execTicks, b.raw[i].execTicks);
        EXPECT_EQ(a.raw[i].ambientC, b.raw[i].ambientC);
        EXPECT_EQ(a.raw[i].maxTempC, b.raw[i].maxTempC);
        EXPECT_EQ(a.raw[i].energy.refresh, b.raw[i].energy.refresh);
        EXPECT_EQ(a.raw[i].counts.l3Refreshes,
                  b.raw[i].counts.l3Refreshes);
    }
}

TEST(ThermalSweep, CacheRoundTripsThermalFieldsExactly)
{
    UniformWorkload u(8 * 1024, 0.3);
    StreamWorkload s(32 * 1024, 0.2);
    const std::string dir = ::testing::TempDir() + "/thermal_rt";
    std::filesystem::remove_all(dir);

    const SweepResult fresh = runSpec(thermalSpec(u, s), dir);
    EXPECT_EQ(fresh.simulations, fresh.raw.size());
    const SweepResult warm = runSpec(thermalSpec(u, s), dir);
    EXPECT_EQ(warm.simulations, 0u);

    ASSERT_EQ(fresh.raw.size(), warm.raw.size());
    for (std::size_t i = 0; i < fresh.raw.size(); ++i) {
        SCOPED_TRACE(fresh.raw[i].app + "/" + fresh.raw[i].config);
        EXPECT_EQ(fresh.raw[i].execTicks, warm.raw[i].execTicks);
        EXPECT_EQ(fresh.raw[i].ambientC, warm.raw[i].ambientC);
        EXPECT_EQ(fresh.raw[i].maxTempC, warm.raw[i].maxTempC);
        EXPECT_EQ(fresh.raw[i].energy.refresh,
                  warm.raw[i].energy.refresh);
    }
    std::filesystem::remove_all(dir);
}

/** Thermal rows must never collide with (or satisfy) isothermal rows
 *  in the shared store: after both sweeps ran, each repeat is warm. */
TEST(ThermalSweep, KeysDoNotCollideWithIsothermalRows)
{
    UniformWorkload u(8 * 1024, 0.3);
    StreamWorkload s(32 * 1024, 0.2);
    const std::string dir = ::testing::TempDir() + "/thermal_keys";
    std::filesystem::remove_all(dir);

    SweepSpec iso = thermalSpec(u, s);
    iso.ambients.clear(); // same points, thermal disabled
    const SweepResult isoFresh = runSpec(iso, dir);
    EXPECT_EQ(isoFresh.simulations, isoFresh.raw.size());

    // The thermal sweep shares only the 2 SRAM baselines (which are
    // never thermal); its 8 eDRAM points must all simulate fresh.
    SweepSpec thermal = thermalSpec(u, s);
    const SweepResult thFresh = runSpec(thermal, dir);
    EXPECT_EQ(thFresh.simulations, 8u);

    // Both repeats fully warm, and the isothermal rows were untouched
    // by the thermal sweep (distinct keys, same store).
    const SweepResult isoWarm = runSpec(iso, dir);
    EXPECT_EQ(isoWarm.simulations, 0u);
    const SweepResult thWarm = runSpec(thermal, dir);
    EXPECT_EQ(thWarm.simulations, 0u);
    for (std::size_t i = 0; i < isoFresh.raw.size(); ++i) {
        EXPECT_EQ(isoFresh.raw[i].execTicks, isoWarm.raw[i].execTicks);
        EXPECT_EQ(isoFresh.raw[i].maxTempC, isoWarm.raw[i].maxTempC);
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace refrint::test
