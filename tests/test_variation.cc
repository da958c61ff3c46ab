/**
 * @file
 * Tests for the process-variation retention model (§4.1 extension):
 * the per-line draw itself, and the asymmetric way the two timing
 * policies absorb variation — Periodic degrades to the weakest line's
 * period, Refrint tracks each line individually.
 */

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "test_util.hh"

namespace refrint::test
{

namespace
{

constexpr Addr kA = 0x10000;

RetentionParams
variedRetention(Tick nominal, double sigma, double minFactor = 0.70)
{
    RetentionParams r{nominal, kTickNever, {}, {}};
    r.variation.enabled = true;
    r.variation.sigma = sigma;
    r.variation.minFactor = minFactor;
    r.variation.seed = 3;
    return r;
}

TEST(Variation, DisabledDrawsNothing)
{
    RetentionParams r{usToTicks(50.0), kTickNever, {}, {}};
    EXPECT_TRUE(r.drawLineRetentions(1024).empty());
}

TEST(Variation, DrawIsDeterministicAndTruncated)
{
    const RetentionParams r = variedRetention(usToTicks(50.0), 0.10);
    const auto a = r.drawLineRetentions(2048);
    const auto b = r.drawLineRetentions(2048);
    ASSERT_EQ(a.size(), 2048u);
    EXPECT_EQ(a, b);

    const auto lo = static_cast<Tick>(0.70 * usToTicks(50.0));
    for (Tick t : a) {
        EXPECT_GE(t, lo);
        EXPECT_LE(t, usToTicks(50.0));
    }
}

TEST(Variation, DrawActuallyVaries)
{
    const RetentionParams r = variedRetention(usToTicks(50.0), 0.10);
    const auto a = r.drawLineRetentions(2048);
    Tick mn = kTickNever, mx = 0;
    for (Tick t : a) {
        mn = std::min(mn, t);
        mx = std::max(mx, t);
    }
    EXPECT_LT(mn, mx);
    // With sigma 10% and a 70% floor, the weakest of 2048 draws should
    // sit near the floor and the strongest at the nominal cap.
    EXPECT_LT(mn, static_cast<Tick>(0.80 * usToTicks(50.0)));
    EXPECT_EQ(mx, usToTicks(50.0));
}

/** Hierarchy harness with variation enabled at the given sigma. */
struct VarHarness
{
    VarHarness(const RefreshPolicy &pol, double sigma)
        : cfg([&] {
              MachineConfig c = tinyEdram(pol, usToTicks(5.0));
              c.retention = variedRetention(usToTicks(5.0), sigma, 0.80);
              return c;
          }()),
          hier(cfg, eq)
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

    MachineConfig cfg;
    EventQueue eq;
    Hierarchy hier;
};

TEST(Variation, NoDecayedHitsUnderEitherTimingPolicy)
{
    for (const RefreshPolicy pol :
         {RefreshPolicy::periodic(DataPolicy::Valid),
          RefreshPolicy::refrint(DataPolicy::Valid)}) {
        VarHarness h(pol, 0.08);
        Prng rng(13);
        Tick t = 0;
        for (int i = 0; i < 2000; ++i) {
            const auto c = static_cast<CoreId>(rng.next() % 4);
            const Addr a = (rng.next() % 512) * 64;
            h.eq.run(t);
            t = h.hier.access(c, a,
                              rng.uniform() < 0.3 ? AccessType::Store
                                                  : AccessType::Load,
                              t) +
                10;
        }
        h.eq.run(t);
        EXPECT_EQ(h.stat("l3.decayed_hits"), 0u) << pol.name();
        EXPECT_EQ(h.stat("l2.decayed_hits"), 0u) << pol.name();
        h.hier.checkInvariants(t);
    }
}

TEST(Variation, PeriodicPaysTheWeakestLinePenalty)
{
    // One idle line, long window.  Without variation both schemes
    // refresh it ~window/retention times.  With variation, Periodic
    // cycles the *whole cache* at the weakest line's period, so its
    // refresh count on this (possibly strong) line grows by the
    // weakest-line factor; Refrint only refreshes faster if this
    // specific line is weak.
    VarHarness p(RefreshPolicy::periodic(DataPolicy::Valid), 0.08);
    VarHarness r(RefreshPolicy::refrint(DataPolicy::Valid), 0.08);
    p.hier.access(0, kA, AccessType::Load, 0);
    r.hier.access(0, kA, AccessType::Load, 0);

    p.eq.run(usToTicks(100.0));
    r.eq.run(usToTicks(100.0));

    // 20 nominal periods in the window; the weakest of 512 draws at
    // sigma 8% hits the 80% floor, so Periodic performs ~25 refreshes.
    EXPECT_GT(p.stat("refresh.l3.line_refreshes"),
              r.stat("refresh.l3.line_refreshes"));
}

TEST(Variation, RefrintRefreshRateTracksThisLinesOwnRetention)
{
    // The same line under increasing sigma: Refrint's refresh count for
    // a single resident line moves only with that line's own draw, so
    // it stays within the truncation window's bounds.
    VarHarness r(RefreshPolicy::refrint(DataPolicy::Valid), 0.08);
    r.hier.access(0, kA, AccessType::Load, 0);
    r.eq.run(usToTicks(100.0));

    const double nominalVisits =
        100.0 / 5.0; // window / nominal retention
    const auto refreshes =
        static_cast<double>(r.stat("refresh.l3.line_refreshes"));
    EXPECT_GE(refreshes, nominalVisits - 1);           // >= nominal rate
    EXPECT_LE(refreshes, nominalVisits / 0.80 + 3.0);  // <= floor rate
}

} // namespace
} // namespace refrint::test
