/**
 * @file
 * Integration tests for refresh engines operating *through* the coherent
 * hierarchy: refresh-triggered write-backs and invalidations must keep
 * the directory exact, preserve inclusion, and never let live data decay
 * (decayed_hits == 0 is the core soundness property of the whole
 * simulator).
 */

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "harness/sweep.hh"
#include "test_util.hh"

namespace refrint::test
{

namespace
{

constexpr Addr kA = 0x10000;

/** Hierarchy + queue harness for one eDRAM policy. */
struct RefreshHarness
{
    explicit RefreshHarness(const RefreshPolicy &pol,
                            Tick retention = usToTicks(5.0))
        : hier(tinyEdram(pol, retention), eq)
    {
        hier.start(0);
    }

    /** Run engine events up to @p until, then return that time. */
    Tick
    advanceTo(Tick until)
    {
        eq.run(until);
        return until;
    }

    Tick
    access(CoreId c, Addr a, AccessType t, Tick at)
    {
        return hier.access(c, a, t, at);
    }

    CacheLine *
    l3Line(Addr a)
    {
        return hier.l3Bank(hier.bankOf(a)).array.lookup(a);
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
// Per-policy line lifecycle at the L3
// ---------------------------------------------------------------------

TEST(HierarchyRefresh, ValidPolicyKeepsCleanLinesAliveForever)
{
    RefreshHarness h(RefreshPolicy::refrint(DataPolicy::Valid));
    h.access(0, kA, AccessType::Load, 0);

    h.advanceTo(usToTicks(50.0)); // 10 retention periods

    ASSERT_NE(h.l3Line(kA), nullptr);
    EXPECT_TRUE(h.l3Line(kA)->valid());
    EXPECT_EQ(h.stat("l3.decayed_hits"), 0u);
    EXPECT_GE(h.stat("refresh.l3.line_refreshes"), 9u);
}

TEST(HierarchyRefresh, DirtyPolicyInvalidatesCleanLinesAtFirstDeadline)
{
    RefreshHarness h(RefreshPolicy::refrint(DataPolicy::Dirty));
    h.access(0, kA, AccessType::Load, 0); // clean at L3

    h.advanceTo(usToTicks(6.0)); // one sentry deadline passes

    EXPECT_EQ(h.l3Line(kA), nullptr);
    EXPECT_GE(h.stat("refresh.l3.refresh_invalidations"), 1u);
}

TEST(HierarchyRefresh, DirtyPolicyRefreshesDirtyLines)
{
    RefreshHarness h(RefreshPolicy::refrint(DataPolicy::Dirty));
    Tick t = h.access(0, kA, AccessType::Store, 0);
    t = h.access(1, kA, AccessType::Load, t + 1); // L3 copy becomes dirty
    ASSERT_TRUE(h.l3Line(kA)->dirty);

    h.advanceTo(usToTicks(20.0));

    ASSERT_NE(h.l3Line(kA), nullptr);
    EXPECT_TRUE(h.l3Line(kA)->dirty);
}

TEST(HierarchyRefresh, WBPolicyWritesBackDirtyLineAfterNRefreshes)
{
    RefreshHarness h(RefreshPolicy::refrint(DataPolicy::WB, 2, 1));
    Tick t = h.access(0, kA, AccessType::Store, 0);
    h.access(1, kA, AccessType::Load, t + 1); // dirty L3 copy
    ASSERT_TRUE(h.l3Line(kA)->dirty);
    const auto w = h.hier.dram().writes();

    // n=2 refreshes happen at the first two sentry deadlines; the third
    // visit writes the line back.  Sentry retention ~4.5 us.
    h.advanceTo(usToTicks(14.5));

    ASSERT_NE(h.l3Line(kA), nullptr);
    EXPECT_FALSE(h.l3Line(kA)->dirty);
    EXPECT_TRUE(h.l3Line(kA)->valid());
    EXPECT_EQ(h.hier.dram().writes(), w + 1);
    EXPECT_EQ(h.stat("refresh.l3.refresh_writebacks"), 1u);
}

TEST(HierarchyRefresh, WBPolicyInvalidatesCleanLineAfterMMoreRefreshes)
{
    RefreshHarness h(RefreshPolicy::refrint(DataPolicy::WB, 2, 1));
    Tick t = h.access(0, kA, AccessType::Store, 0);
    h.access(1, kA, AccessType::Load, t + 1);

    // Lifecycle: 2 refreshes, writeback (count=m=1), 1 refresh,
    // invalidate — all within ~6 sentry periods.
    h.advanceTo(usToTicks(28.0));

    EXPECT_EQ(h.l3Line(kA), nullptr);
    EXPECT_EQ(h.stat("refresh.l3.refresh_writebacks"), 1u);
    EXPECT_GE(h.stat("refresh.l3.refresh_invalidations"), 1u);
}

TEST(HierarchyRefresh, AccessesReachingL3ResetTheWBCount)
{
    // Ping-pong stores between two cores force every access to the
    // directory, so the L3 line is touched (and its WB Count reset)
    // more often than the sentry period: it must survive indefinitely.
    RefreshHarness h(RefreshPolicy::refrint(DataPolicy::WB, 1, 1));
    Tick t = 0;
    for (int i = 0; i < 40; ++i) {
        t = usToTicks(2.0) * i;
        h.advanceTo(t);
        h.access(i % 2, kA, AccessType::Store, t);
    }

    ASSERT_NE(h.l3Line(kA), nullptr);
    EXPECT_TRUE(h.l3Line(kA)->valid());
    EXPECT_EQ(h.stat("refresh.l3.refresh_invalidations"), 0u);
}

TEST(HierarchyRefresh, L1HitsAreInvisibleToTheL3WBCount)
{
    // The same line accessed only through L1 hits looks idle to the
    // shared cache: its Count runs out and the line is repeatedly
    // invalidated and re-fetched.  This is the low-visibility behaviour
    // the paper's Class 3 analysis describes (§3.3) — the reason Valid
    // beats WB(n,m) for low-footprint, low-sharing applications.
    RefreshHarness h(RefreshPolicy::refrint(DataPolicy::WB, 8, 2));
    Tick t = h.access(0, kA, AccessType::Load, 0);
    for (int i = 1; i <= 40; ++i) {
        t = usToTicks(2.0) * i;
        h.advanceTo(t);
        h.access(0, kA, AccessType::Load, t); // DL1 hit after refill
    }

    EXPECT_GE(h.stat("refresh.l3.refresh_invalidations"), 1u);
    EXPECT_GE(h.stat("l3.misses"), 2u); // initial miss + re-fetches
}

TEST(HierarchyRefresh, RefreshInvalidationBackInvalidatesUpperLevels)
{
    // Clean L3 line under R.dirty is invalidated at its first deadline;
    // the private L2/L1 copies must be dropped with it (inclusion).
    RefreshHarness h(RefreshPolicy::refrint(DataPolicy::Dirty));
    h.access(0, kA, AccessType::Load, 0);
    ASSERT_NE(h.hier.l2(0).array.lookup(kA), nullptr);
    ASSERT_NE(h.hier.dl1(0).array.lookup(kA), nullptr);

    h.advanceTo(usToTicks(6.0));

    EXPECT_EQ(h.l3Line(kA), nullptr);
    EXPECT_EQ(h.hier.l2(0).array.lookup(kA), nullptr);
    EXPECT_EQ(h.hier.dl1(0).array.lookup(kA), nullptr);
    h.hier.checkInvariants(usToTicks(6.0));
}

TEST(HierarchyRefresh, RefreshInvalidationRescuesModifiedDataToDram)
{
    // Under R.dirty the *clean* L3 copy of a line whose owner holds it
    // Modified is invalidated; the modified data must reach DRAM, not
    // be lost.
    RefreshHarness h(RefreshPolicy::refrint(DataPolicy::Dirty));
    h.access(0, kA, AccessType::Store, 0); // L3 clean, c0 owns Modified
    ASSERT_FALSE(h.l3Line(kA)->dirty);
    const auto w = h.hier.dram().writes();

    h.advanceTo(usToTicks(6.0));

    EXPECT_EQ(h.l3Line(kA), nullptr);
    EXPECT_EQ(h.hier.l2(0).array.lookup(kA), nullptr);
    EXPECT_GE(h.hier.dram().writes(), w + 1);
    h.hier.checkInvariants(usToTicks(6.0));
}

TEST(HierarchyRefresh, L2RefreshWritebackDowngradesModifiedToExclusive)
{
    // The upper levels run the pinned Valid policy by default, which
    // never writes back; pin them to WB to exercise the L2 path.
    MachineConfig cfg =
        tinyEdram(RefreshPolicy::refrint(DataPolicy::WB, 1, 8));
    cfg.setUpperDataPolicy(DataPolicy::WB);
    EventQueue eq;
    Hierarchy hier(cfg, eq);
    hier.start(0);

    hier.access(0, kA, AccessType::Store, 0);
    CacheLine *l2l = hier.l2(0).array.lookup(kA);
    ASSERT_NE(l2l, nullptr);
    ASSERT_EQ(l2l->state, Mesi::Modified);

    // First sentry deadline refreshes (n=1); second writes back.
    eq.run(usToTicks(9.8));

    l2l = hier.l2(0).array.lookup(kA);
    ASSERT_NE(l2l, nullptr);
    EXPECT_EQ(l2l->state, Mesi::Exclusive);
    EXPECT_FALSE(l2l->dirty);
    CacheLine *l3l = hier.l3Bank(hier.bankOf(kA)).array.lookup(kA);
    ASSERT_NE(l3l, nullptr);
    EXPECT_TRUE(l3l->dirty);  // data landed in L3
    EXPECT_EQ(l3l->owner, 0); // directory still records the owner
    hier.checkInvariants(usToTicks(9.8));
}

TEST(HierarchyRefresh, AutoRefreshSuppressesExplicitRefreshesOfHotLines)
{
    RefreshHarness h(RefreshPolicy::refrint(DataPolicy::Valid));

    // Ping-pong stores: every access goes through the directory and
    // auto-refreshes the L3 line + sentry, so the engine should almost
    // never refresh it explicitly (§3.1).
    Tick t = 0;
    for (int i = 0; i < 100; ++i) {
        h.advanceTo(t);
        h.access(i % 2, kA, AccessType::Store, t);
        t += usToTicks(1.0);
    }

    EXPECT_LE(h.stat("refresh.l3.line_refreshes"), 2u);
}

TEST(HierarchyRefresh, AllPolicyRefreshesInvalidLinesToo)
{
    RefreshHarness h(RefreshPolicy::refrint(DataPolicy::All));
    // No accesses at all: every line in the L3 is invalid, yet All
    // refreshes each of them every sentry period.
    h.advanceTo(usToTicks(10.0));

    const std::uint64_t l3Lines = 4 * 512; // 4 banks x 512 lines
    EXPECT_GE(h.stat("refresh.l3.line_refreshes"), l3Lines);
}

TEST(HierarchyRefresh, ValidPolicySkipsInvalidLines)
{
    RefreshHarness h(RefreshPolicy::refrint(DataPolicy::Valid));
    h.advanceTo(usToTicks(10.0));

    EXPECT_EQ(h.stat("refresh.l3.line_refreshes"), 0u);
}

// ---------------------------------------------------------------------
// Periodic engine behaviour through the hierarchy
// ---------------------------------------------------------------------

TEST(HierarchyRefresh, PeriodicAllBlocksTheBank)
{
    RefreshHarness h(RefreshPolicy::periodic(DataPolicy::All));
    h.advanceTo(usToTicks(5.0)); // one full retention period

    // Every line in every bank was visited in blocking bursts.
    EXPECT_GT(h.hier.l3Bank(0).busyUntil, 0u);
    const std::uint64_t l3Lines = 4 * 512;
    EXPECT_GE(h.stat("refresh.l3.line_refreshes"), l3Lines);
}

TEST(HierarchyRefresh, PeriodicEagerlyRefreshesAccessedLinesRefrintDoesNot)
{
    // A line that is regularly *accessed* needs no explicit refresh at
    // all — Refrint exploits this (the access renews the sentry), while
    // Periodic keeps refreshing it on schedule regardless (§3.1: "a
    // periodic scheme ends up eagerly refreshing lines, possibly right
    // after the line has been accessed").
    RefreshHarness p(RefreshPolicy::periodic(DataPolicy::Valid));
    RefreshHarness r(RefreshPolicy::refrint(DataPolicy::Valid));

    Tick t = 0;
    for (int i = 0; i < 20; ++i) {
        t = usToTicks(2.5) * i; // shorter than the 4.5 us sentry period
        p.advanceTo(t);
        r.advanceTo(t);
        p.access(i % 2, kA, AccessType::Store, t);
        r.access(i % 2, kA, AccessType::Store, t);
    }

    EXPECT_GT(p.stat("refresh.l3.line_refreshes"),
              r.stat("refresh.l3.line_refreshes"));
    EXPECT_EQ(p.stat("l3.decayed_hits"), 0u);
    EXPECT_EQ(r.stat("l3.decayed_hits"), 0u);
}

TEST(HierarchyRefresh, SentryMarginCostsRefrintRefreshesOnIdleData)
{
    // The flip side (§4.1): on *completely idle* data Refrint refreshes
    // slightly more often than Periodic because the sentry bit leads the
    // data cells by the conservative margin — the paper quantifies the
    // lost opportunity as margin/retention (32% at a 16K-line bank).
    RefreshHarness p(RefreshPolicy::periodic(DataPolicy::Valid));
    RefreshHarness r(RefreshPolicy::refrint(DataPolicy::Valid));
    p.access(0, kA, AccessType::Load, 0);
    r.access(0, kA, AccessType::Load, 0);

    p.advanceTo(usToTicks(50.0));
    r.advanceTo(usToTicks(50.0));

    // tiny L3 bank: 512 lines -> sentry period 5 us - 512 ticks; over
    // 50 us that is 11 visits vs. Periodic's 10.
    EXPECT_GE(r.stat("refresh.l3.line_refreshes"),
              p.stat("refresh.l3.line_refreshes"));
    EXPECT_EQ(p.stat("l3.decayed_hits"), 0u);
    EXPECT_EQ(r.stat("l3.decayed_hits"), 0u);
}

// ---------------------------------------------------------------------
// Property: no policy ever lets live data decay, and the coherence
// invariants survive refresh-triggered surgery.  Sweeps the full policy
// cross product of Table 5.4 on a sharing-heavy micro workload.
// ---------------------------------------------------------------------

class PolicySoundness
    : public ::testing::TestWithParam<RefreshPolicy>
{
};

TEST_P(PolicySoundness, NoDecayedHitsAndInvariantsHold)
{
    const RefreshPolicy pol = GetParam();
    MachineConfig cfg = tinyEdram(pol, usToTicks(5.0));
    EventQueue eq;
    Hierarchy hier(cfg, eq);
    hier.start(0);
    Prng rng(42);

    Tick t = 0;
    for (int i = 0; i < 3000; ++i) {
        const auto c = static_cast<CoreId>(rng.next() % 4);
        const Addr a = (rng.next() % 512) * 64; // spans all 4 banks
        const bool wr = rng.uniform() < 0.3;
        eq.run(t); // let refresh engines catch up
        t = hier.access(c, a,
                        wr ? AccessType::Store : AccessType::Load, t) +
            10;
    }
    eq.run(t);

    std::map<std::string, double> m;
    hier.dumpStats(m);
    EXPECT_EQ(m["l3.decayed_hits"], 0.0) << pol.name();
    EXPECT_EQ(m["l2.decayed_hits"], 0.0) << pol.name();
    EXPECT_EQ(m["dl1.decayed_hits"], 0.0) << pol.name();
    EXPECT_EQ(m["il1.decayed_hits"], 0.0) << pol.name();
    hier.checkInvariants(t);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySoundness,
    ::testing::ValuesIn(paperPolicySweep()),
    [](const ::testing::TestParamInfo<RefreshPolicy> &info) {
        std::string n = info.param.name();
        for (char &c : n)
            if (c == '.' || c == '(' || c == ')' || c == ',')
                c = '_';
        return n;
    });

} // namespace
} // namespace refrint::test
