/**
 * @file
 * Tests for the related-work comparators (paper §7): the SmartRefresh
 * timeout-counter engine, the SRAM cache-decay engine, and the
 * ECC-extended-retention model.  Each comparator must (a) be sound —
 * no decayed hits, invariants intact — and (b) show its documented
 * first-order effect against the schemes it competes with.
 */

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "related/decay.hh"
#include "related/ecc.hh"
#include "related/smart_refresh.hh"
#include "test_util.hh"
#include "workload/micro.hh"

namespace refrint::test
{

namespace
{

constexpr Addr kA = 0x10000;

/** Hierarchy harness mirroring the one in test_hierarchy_refresh.cc. */
struct Harness
{
    explicit Harness(const MachineConfig &cfg) : hier(cfg, eq)
    {
        hier.start(0);
    }

    std::uint64_t
    stat(const char *name)
    {
        std::map<std::string, double> m;
        hier.dumpStats(m);
        auto it = m.find(name);
        return it == m.end() ? 0 : static_cast<std::uint64_t>(it->second);
    }

    EventQueue eq;
    Hierarchy hier;
};

// ---------------------------------------------------------------------
// SmartRefresh
// ---------------------------------------------------------------------

TEST(SmartRefresh, PolicyNameAndParseRoundTrip)
{
    RefreshPolicy p{TimePolicy::SmartRefresh, DataPolicy::Valid, 0, 0};
    EXPECT_EQ(p.name(), "S.valid");
    const RefreshPolicy q = parsePolicy("S.WB(8,8)");
    EXPECT_EQ(q.time, TimePolicy::SmartRefresh);
    EXPECT_EQ(q.data, DataPolicy::WB);
    EXPECT_EQ(q.n, 8u);
}

TEST(SmartRefresh, KeepsIdleValidLinesAlive)
{
    Harness h(tinyEdram(
        RefreshPolicy{TimePolicy::SmartRefresh, DataPolicy::Valid, 0, 0}));
    h.hier.access(0, kA, AccessType::Load, 0);

    h.eq.run(usToTicks(50.0));

    ASSERT_NE(h.hier.l3Bank(h.hier.bankOf(kA)).array.lookup(kA), nullptr);
    EXPECT_EQ(h.stat("l3.decayed_hits"), 0u);
    EXPECT_GE(h.stat("refresh.l3.line_refreshes"), 9u);
}

TEST(SmartRefresh, SkipsRecentlyAccessedLines)
{
    // Ping-pong stores renew the timeout counter faster than the phase
    // clock: SmartRefresh should perform (almost) no explicit refresh —
    // that is its whole point versus plain Periodic.
    Harness h(tinyEdram(
        RefreshPolicy{TimePolicy::SmartRefresh, DataPolicy::Valid, 0, 0}));
    Tick t = 0;
    for (int i = 0; i < 100; ++i) {
        h.eq.run(t);
        h.hier.access(i % 2, kA, AccessType::Store, t);
        t += usToTicks(1.0);
    }

    EXPECT_LE(h.stat("refresh.l3.line_refreshes"), 2u);
    EXPECT_EQ(h.stat("l3.decayed_hits"), 0u);
}

TEST(SmartRefresh, QuantizesRefreshEarlierThanRefrint)
{
    // The k-bit counter visits a line up to one phase (T/2^k) early;
    // Refrint's sentry fires within its (much smaller, for the tiny
    // machine) margin of the true deadline.  Over a long idle window
    // SmartRefresh therefore refreshes at least as often.
    MachineConfig sCfg = tinyEdram(
        RefreshPolicy{TimePolicy::SmartRefresh, DataPolicy::Valid, 0, 0});
    sCfg.llc().engine.smartCounterBits = 2; // coarse: 25% early quantization
    Harness s(sCfg);
    Harness r(tinyEdram(RefreshPolicy::refrint(DataPolicy::Valid)));
    s.hier.access(0, kA, AccessType::Load, 0);
    r.hier.access(0, kA, AccessType::Load, 0);

    s.eq.run(usToTicks(60.0));
    r.eq.run(usToTicks(60.0));

    EXPECT_GE(s.stat("refresh.l3.line_refreshes"),
              r.stat("refresh.l3.line_refreshes"));
}

TEST(SmartRefresh, ComposesWithWBDataPolicy)
{
    Harness h(tinyEdram(
        RefreshPolicy{TimePolicy::SmartRefresh, DataPolicy::WB, 1, 1}));
    Tick t = h.hier.access(0, kA, AccessType::Store, 0);
    h.hier.access(1, kA, AccessType::Load, t + 1); // dirty L3 copy

    h.eq.run(usToTicks(30.0));

    // Lifecycle completed: refresh, write back, refresh, invalidate.
    EXPECT_EQ(h.stat("refresh.l3.refresh_writebacks"), 1u);
    EXPECT_GE(h.stat("refresh.l3.refresh_invalidations"), 1u);
    EXPECT_EQ(h.hier.l3Bank(h.hier.bankOf(kA)).array.lookup(kA), nullptr);
}

TEST(SmartRefresh, SoundUnderRandomTraffic)
{
    MachineConfig cfg = tinyEdram(
        RefreshPolicy{TimePolicy::SmartRefresh, DataPolicy::WB, 4, 4});
    EventQueue eq;
    Hierarchy hier(cfg, eq);
    hier.start(0);
    Prng rng(7);
    Tick t = 0;
    for (int i = 0; i < 3000; ++i) {
        const auto c = static_cast<CoreId>(rng.next() % 4);
        const Addr a = (rng.next() % 512) * 64;
        eq.run(t);
        t = hier.access(c, a,
                        rng.uniform() < 0.3 ? AccessType::Store
                                            : AccessType::Load,
                        t) +
            10;
    }
    eq.run(t);
    std::map<std::string, double> m;
    hier.dumpStats(m);
    EXPECT_EQ(m["l3.decayed_hits"], 0.0);
    hier.checkInvariants(t);
}

// ---------------------------------------------------------------------
// Cache decay
// ---------------------------------------------------------------------

MachineConfig
tinyDecay(Tick interval)
{
    MachineConfig c = tinyConfig(CellTech::Sram);
    c.decay.enabled = true;
    c.decay.interval = interval;
    return c;
}

TEST(CacheDecay, GatesOffIdleLinesAfterTheInterval)
{
    Harness h(tinyDecay(usToTicks(5.0)));
    h.hier.access(0, kA, AccessType::Load, 0);
    ASSERT_NE(h.hier.l3Bank(h.hier.bankOf(kA)).array.lookup(kA), nullptr);

    h.eq.run(usToTicks(12.0));

    EXPECT_EQ(h.hier.l3Bank(h.hier.bankOf(kA)).array.lookup(kA), nullptr);
    EXPECT_GE(h.stat("refresh.l3.decay_gateoffs"), 1u);
    h.hier.checkInvariants(usToTicks(12.0));
}

TEST(CacheDecay, KeepsRecentlyAccessedLinesOn)
{
    Harness h(tinyDecay(usToTicks(5.0)));
    Tick t = 0;
    for (int i = 0; i < 20; ++i) {
        t = usToTicks(2.0) * i;
        h.eq.run(t);
        h.hier.access(i % 2, kA, AccessType::Store, t); // reaches L3
    }

    EXPECT_NE(h.hier.l3Bank(h.hier.bankOf(kA)).array.lookup(kA), nullptr);
}

TEST(CacheDecay, WritesDirtyDataBackBeforeGating)
{
    Harness h(tinyDecay(usToTicks(5.0)));
    Tick t = h.hier.access(0, kA, AccessType::Store, 0);
    h.hier.access(1, kA, AccessType::Load, t + 1); // L3 copy dirty
    const auto w = h.hier.dram().writes();

    h.eq.run(usToTicks(12.0));

    EXPECT_GE(h.hier.dram().writes(), w + 1);
    h.hier.checkInvariants(usToTicks(12.0));
}

TEST(CacheDecay, AccumulatesOffLineTime)
{
    Harness h(tinyDecay(usToTicks(5.0)));
    h.hier.access(0, kA, AccessType::Load, 0);
    h.eq.run(usToTicks(20.0));
    h.hier.finishEngines(usToTicks(20.0));

    const HierarchyCounts n = h.hier.counts();
    // Every L3 line was off for nearly the whole window (the touched
    // one decayed after ~5 us), so the integral is close to
    // lines x window.
    const double upper = 4.0 * 512 * static_cast<double>(usToTicks(20.0));
    EXPECT_GT(n.l3OffLineTicks, 0.5 * upper);
    EXPECT_LE(n.l3OffLineTicks, upper);
}

TEST(CacheDecay, ReducesLeakageEnergyVersusPlainSram)
{
    UniformWorkload app(8 * 1024, 0.3);
    const RunResult sram = runTiny(tinyConfig(CellTech::Sram), app, 8000);
    const RunResult decay = runTiny(tinyDecay(usToTicks(5.0)), app, 8000);

    EXPECT_LT(decay.energy.leakage, sram.energy.leakage);
}

TEST(CacheDecay, CostsExtraDramAccesses)
{
    // Decayed lines that are re-referenced must be refetched: decay
    // trades leakage for off-chip traffic (the same trade-off Refrint's
    // aggressive policies make with refresh energy, §6).
    UniformWorkload app(64 * 1024, 0.3);
    const RunResult sram = runTiny(tinyConfig(CellTech::Sram), app, 8000);
    const RunResult decay =
        runTiny(tinyDecay(usToTicks(2.0)), app, 8000);

    EXPECT_GT(decay.counts.dramAccesses, sram.counts.dramAccesses);
}

TEST(CacheDecay, SoundUnderRandomTraffic)
{
    MachineConfig cfg = tinyDecay(usToTicks(3.0));
    EventQueue eq;
    Hierarchy hier(cfg, eq);
    hier.start(0);
    Prng rng(11);
    Tick t = 0;
    for (int i = 0; i < 3000; ++i) {
        const auto c = static_cast<CoreId>(rng.next() % 4);
        const Addr a = (rng.next() % 512) * 64;
        eq.run(t);
        t = hier.access(c, a,
                        rng.uniform() < 0.3 ? AccessType::Store
                                            : AccessType::Load,
                        t) +
            10;
    }
    eq.run(t);
    hier.checkInvariants(t);
    std::map<std::string, double> m;
    hier.dumpStats(m);
    EXPECT_EQ(m["l3.decayed_hits"], 0.0); // SRAM data never expires
}

// ---------------------------------------------------------------------
// ECC retention extension
// ---------------------------------------------------------------------

TEST(EccModel, OverheadsAreMonotonicInCodeStrength)
{
    const EccModel none{EccScheme::None};
    const EccModel secded{EccScheme::Secded};
    const EccModel strong{EccScheme::Strong};

    EXPECT_EQ(none.storageOverhead(), 0.0);
    EXPECT_LT(secded.storageOverhead(), strong.storageOverhead());
    EXPECT_EQ(none.retentionMultiplier(), 1.0);
    EXPECT_LT(secded.retentionMultiplier(), strong.retentionMultiplier());
    EXPECT_EQ(none.accessEnergyFactor(), 1.0);
    EXPECT_LT(secded.accessEnergyFactor(), strong.accessEnergyFactor());
}

TEST(EccModel, ApplyExtendsRetentionAndInflatesL3Coefficients)
{
    MachineConfig cfg = MachineConfig::paperEdram(
        RefreshPolicy::periodic(DataPolicy::All), usToTicks(50.0));
    EnergyParams ep = EnergyParams::calibrated();
    const double leak0 = ep.leakL3Bank;
    const double acc0 = ep.eL3Access;

    applyEcc(EccScheme::Secded, cfg, ep);

    EXPECT_EQ(cfg.retention.cellRetention, usToTicks(100.0));
    EXPECT_GT(ep.leakL3Bank, leak0);
    EXPECT_GT(ep.eL3Access, acc0);
}

TEST(EccModel, EccReducesRefreshEnergyOfPeriodicAll)
{
    // The comparator's selling point: doubling the retention period
    // halves the refresh rate, which must show up as lower refresh
    // energy even after paying the check-bit overheads.
    UniformWorkload app(16 * 1024, 0.3);

    MachineConfig base = tinyEdram(
        RefreshPolicy::periodic(DataPolicy::All), usToTicks(5.0));
    SimParams sim;
    sim.refsPerCore = 8000;
    const RunResult plain = runOnce(base, app, sim);

    MachineConfig ecc = base;
    EnergyParams ep = EnergyParams::calibrated();
    applyEcc(EccScheme::Secded, ecc, ep);
    const RunResult coded = runOnce(ecc, app, sim, ep);

    EXPECT_LT(coded.energy.refresh, plain.energy.refresh);
}

} // namespace
} // namespace refrint::test
