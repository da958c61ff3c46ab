/**
 * @file
 * Unit tests for the refresh engines, using a mock RefreshTarget so the
 * engines are exercised in isolation from the coherence hierarchy.  The
 * mock receives exactly the calls the hierarchy's adapter does, so
 * every test runs the service loops production runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/prng.hh"
#include "edram/refresh_engine.hh"
#include "test_util.hh"

namespace refrint::test
{

namespace
{

using Calls = std::vector<std::pair<std::uint32_t, Tick>>;

/** RefreshTarget recording every action the engine takes, through the
 *  calls the hierarchy's adapter receives: each refresh charge as one
 *  (count, tick) call, each write-back and invalidation as (idx, tick). */
struct MockTarget : RefreshTarget
{
    explicit MockTarget(std::uint32_t lines)
        : arr(CacheGeometry{static_cast<std::uint64_t>(lines) * 64, 1, 64,
                            1},
              "mock")
    {
    }

    CacheArray &array() override { return arr; }

    void
    refreshLines(std::uint32_t count, Tick now) override
    {
        refreshed.emplace_back(count, now);
    }

    void
    writebackLine(std::uint32_t idx, Tick now) override
    {
        wrote.emplace_back(idx, now);
        arr.lineAt(idx).dirty = false;
    }

    void
    invalidateLine(std::uint32_t idx, Tick now) override
    {
        invalidated.emplace_back(idx, now);
        arr.invalidate(arr.lineAt(idx));
    }

    void
    addBusy(Tick now, Tick cycles) override
    {
        busyCycles += cycles;
        (void)now;
    }

    const char *name() const override { return "mock"; }

    CacheArray arr;
    Calls refreshed, wrote, invalidated;
    Tick busyCycles = 0;
};

struct EngineFixture
{
    EngineFixture(TimePolicy tp, DataPolicy dp, std::uint32_t n = 0,
                  std::uint32_t m = 0, std::uint32_t lines = 16,
                  Tick retention = 1000, std::uint32_t groupSize = 1,
                  std::uint32_t burstLines = 4)
        : target(lines)
    {
        RefreshPolicy pol{tp, dp, n, m};
        RetentionParams ret{retention, kTickNever, {}, {}};
        EngineGeometry geom{groupSize, 4, burstLines};
        engine = makeRefreshEngine(target, pol, ret, geom, eq, stats);
    }

    std::uint64_t
    counter(const char *name)
    {
        return stats.counter(name).value();
    }

    /** Line @p idx's data-cell deadline: a line the engine refreshed
     *  at t holds t + retention. */
    Tick
    expiry(std::uint32_t idx)
    {
        return target.arr.lineAt(idx).dataExpiry;
    }

    /** Install a valid line at @p idx and tell the engine. */
    CacheLine &
    install(std::uint32_t idx, Tick now, bool dirty = false)
    {
        CacheLine &l = target.arr.lineAt(idx);
        target.arr.install(VictimRef{&l, idx},
                           static_cast<Addr>(idx) * 64, now,
                           dirty ? Mesi::Modified : Mesi::Shared);
        l.dirty = dirty;
        engine->onInstall(idx, now);
        return l;
    }

    MockTarget target;
    EventQueue eq;
    OneShots shots{eq};
    StatGroup stats{"eng"};
    std::unique_ptr<RefreshEngine> engine;
};

} // namespace

// ---------------------------------------------------------------------
// RefrintEngine
// ---------------------------------------------------------------------

TEST(RefrintEngine, SentryMarginFollowsLineCount)
{
    // 16 lines, retention 1000 -> sentry fires at 1000 - 16 = 984, and
    // the service renews the cells for a full retention.
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(3, 0);
    f.eq.run(983);
    EXPECT_EQ(f.counter("line_refreshes"), 0u);
    EXPECT_EQ(f.expiry(3), 1000u);
    f.eq.run(984);
    EXPECT_EQ(f.counter("line_refreshes"), 1u);
    EXPECT_EQ(f.expiry(3), 984u + 1000);
    EXPECT_EQ(f.target.refreshed, (Calls{{1, 984}}));
}

TEST(RefrintEngine, AccessDefersTheSentry)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(3, 0);
    // Touch the line at 500: next decay moves to 1484.
    f.shots.at(500, [&](Tick t) { f.engine->onAccess(3, t); });
    f.eq.run(1483);
    EXPECT_EQ(f.counter("line_refreshes"), 0u);
    EXPECT_EQ(f.expiry(3), 500u + 1000);
    f.eq.run(1484);
    EXPECT_EQ(f.counter("line_refreshes"), 1u);
    EXPECT_EQ(f.expiry(3), 1484u + 1000);
}

TEST(RefrintEngine, HotLineNeverExplicitlyRefreshed)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(5, 0);
    // Touch every 400 ticks, well under the 984-tick sentry retention.
    for (Tick t = 400; t <= 4000; t += 400)
        f.shots.at(t, [&](Tick now) { f.engine->onAccess(5, now); });
    f.eq.run(4000);
    EXPECT_EQ(f.counter("line_refreshes"), 0u)
        << "accesses auto-refresh; the sentry must keep deferring";
    EXPECT_TRUE(f.target.refreshed.empty());
    EXPECT_EQ(f.expiry(5), 4000u + 1000);
}

TEST(RefrintEngine, IdleValidLineRefreshedOncePerSentryPeriod)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(0, 0);
    f.eq.run(984 * 4 + 10);
    EXPECT_EQ(f.counter("line_refreshes"), 4u);
    EXPECT_EQ(f.target.refreshed,
              (Calls{{1, 984}, {1, 1968}, {1, 2952}, {1, 3936}}));
    EXPECT_EQ(f.expiry(0), 984u * 4 + 1000);
}

TEST(RefrintEngine, InvalidLinesAreNotTracked)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.eq.run(5000);
    EXPECT_EQ(f.counter("line_refreshes"), 0u);
    EXPECT_TRUE(f.target.refreshed.empty());
    EXPECT_TRUE(f.eq.empty()) << "nothing armed, nothing scheduled";
}

TEST(RefrintEngine, AllPolicyRefreshesInvalidLinesToo)
{
    // start() staggers the 16 one-line groups across the 984-tick
    // sentry period; each is then serviced every 984 ticks, and each
    // service renews its never-installed line for a full retention.
    EngineFixture f(TimePolicy::Refrint, DataPolicy::All, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.eq.run(2000);
    std::uint64_t services = 0;
    for (std::uint32_t idx = 0; idx < 16; ++idx) {
        Tick last = 1 + 984 * idx / 16;
        ++services;
        for (; last + 984 <= 2000; last += 984)
            ++services;
        EXPECT_EQ(f.expiry(idx), last + 1000) << idx;
    }
    EXPECT_GE(services, 32u);
    EXPECT_EQ(f.counter("line_refreshes"), services);
    EXPECT_EQ(f.target.refreshed.size(), services);
    EXPECT_TRUE(f.target.invalidated.empty());
}

TEST(RefrintEngine, DirtyPolicyInvalidatesCleanOnDecay)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Dirty, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(1, 0, /*dirty=*/false);
    f.install(2, 0, /*dirty=*/true);
    f.eq.run(1200);
    EXPECT_EQ(f.target.invalidated, (Calls{{1, 984}}));
    EXPECT_EQ(f.counter("line_refreshes"), 1u);
    EXPECT_EQ(f.target.refreshed, (Calls{{1, 984}}));
    EXPECT_EQ(f.expiry(2), 984u + 1000);
}

TEST(RefrintEngine, WbLifecycleOnIdleDirtyLine)
{
    // WB(2,1): dirty line refreshed twice, written back, then as a
    // clean line refreshed once more, then invalidated.
    EngineFixture f(TimePolicy::Refrint, DataPolicy::WB, 2, 1, 16, 1000);
    f.engine->start(0);
    f.install(4, 0, /*dirty=*/true);
    f.eq.run(984 * 5);
    EXPECT_EQ(f.counter("line_refreshes"), 3u); // 2 dirty + 1 clean
    EXPECT_EQ(f.target.refreshed, (Calls{{1, 984}, {1, 1968}, {1, 3936}}));
    EXPECT_EQ(f.target.wrote, (Calls{{4, 2952}}));
    EXPECT_EQ(f.target.invalidated, (Calls{{4, 4920}}));
}

TEST(RefrintEngine, GroupedSentriesServiceWholeGroup)
{
    // Group size 4: installing one line arms its group; when the sentry
    // fires, every valid line of the group is serviced together, in one
    // charge, and the group re-arms for the next period.
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000, /*groupSize=*/4);
    f.engine->start(0);
    f.install(0, 0);
    f.install(1, 0);
    f.install(2, 0);
    f.install(9, 0); // different group
    f.eq.run(990);
    EXPECT_EQ(f.target.refreshed, (Calls{{3, 984}, {1, 984}}));
    EXPECT_EQ(f.counter("line_refreshes"), 4u);
    EXPECT_EQ(f.target.busyCycles, 4u) << "one stolen cycle per line";
    f.eq.run(984 * 3);
    EXPECT_EQ(f.counter("line_refreshes"), 12u);
    for (std::uint32_t idx : {0u, 1u, 2u, 9u})
        EXPECT_EQ(f.expiry(idx), 984u * 3 + 1000) << idx;
}

TEST(RefrintEngine, GroupFiresAtEarliestMemberDeadline)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000, /*groupSize=*/4);
    f.engine->start(0);
    f.install(0, 0);
    // Second member installed later: group still fires at the first
    // member's deadline, refreshing both (the grouping cost).
    f.shots.at(500, [&](Tick t) { f.install(1, t); });
    f.eq.run(984);
    EXPECT_EQ(f.target.refreshed, (Calls{{2, 984}}));
    EXPECT_EQ(f.expiry(0), 984u + 1000);
    EXPECT_EQ(f.expiry(1), 984u + 1000);
}

TEST(RefrintEngine, GroupsReArmAtTheirEarliestRenewedSentry)
{
    // Per-line retention variation gives each line of a group its own
    // sentry period, so a service must re-arm the group at the earliest
    // sentry among the lines it renewed.  Under All, start() staggers
    // group g's first deadline to 1 + (T - margin) * g / groups; from
    // there the group is serviced every p = min(retention) - margin
    // ticks over its lines, and each service renews each line for its
    // own retention.
    constexpr std::uint32_t kLines = 32, kGroup = 4;
    constexpr std::uint32_t kGroups = kLines / kGroup;
    constexpr Tick kT = 1000, kMargin = kLines, kEnd = 20'000;
    RetentionParams ret{kT, kTickNever, {}, {}};
    ret.variation.enabled = true;
    const std::vector<Tick> own = ret.drawLineRetentions(kLines);
    MockTarget target(kLines);
    EventQueue eq;
    StatGroup stats{"eng"};
    RefrintEngine engine(target, RefreshPolicy::refrint(DataPolicy::All),
                         ret, EngineGeometry{kGroup, 4, 4}, eq, stats);
    engine.start(0);
    eq.run(kEnd);

    std::uint64_t services = 0, refreshes = 0;
    for (std::uint32_t g = 0; g < kGroups; ++g) {
        const std::uint32_t lo = g * kGroup, hi = lo + kGroup;
        Tick period = kTickNever;
        for (std::uint32_t idx = lo; idx < hi; ++idx)
            period = std::min(period, own[idx] - kMargin);
        const Tick first = 1 + (kT - kMargin) * g / kGroups;
        const Tick n = (kEnd - first) / period + 1;
        const Tick last = first + (n - 1) * period;
        services += n;
        refreshes += n * kGroup;
        for (std::uint32_t idx = lo; idx < hi; ++idx)
            EXPECT_EQ(target.arr.lineAt(idx).dataExpiry, last + own[idx])
                << "group " << g << " line " << idx;
    }
    EXPECT_EQ(stats.counter("sentry_interrupts").value(), services);
    EXPECT_EQ(stats.counter("line_refreshes").value(), refreshes);
    EXPECT_EQ(target.busyCycles, refreshes);
}

TEST(RefrintEngine, BusyCyclesMatchServicedLines)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    for (std::uint32_t i = 0; i < 8; ++i)
        f.install(i, 0);
    f.eq.run(990);
    EXPECT_EQ(f.counter("line_refreshes"), 8u);
    EXPECT_EQ(f.target.busyCycles, 8u);
}

namespace
{

/** FNV-1a over a recorded call sequence. */
std::uint64_t
digest(const Calls &calls)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &[first, tick] : calls) {
        mix(first);
        mix(tick);
    }
    return h;
}

} // namespace

TEST(RefrintEngine, EqualDeadlineServiceOrderIsPinned)
{
    // Hundreds of sentry groups armed at one deadline: the order they
    // are serviced in is the group heap's tie order, which a sift that
    // broke ties differently would change (and with it the order of
    // every write-back and invalidation the hierarchy sees).  Accesses
    // push some deadlines out, so lazy re-keys mix with services.  The
    // write-back and invalidation digests are those of a plain branchy
    // first-minimum scan; they must not move.  The refresh digest
    // covers the (count, tick) charges.
    struct Case
    {
        DataPolicy data;
        std::uint32_t n, m, groupSize;
        std::size_t refreshes, writebacks, invalidations;
        std::uint64_t refreshDigest, writebackDigest, invalidateDigest;
    };
    const std::uint64_t none = digest({});
    const Case cases[] = {
        {DataPolicy::Valid, 0, 0, 1, 2041, 0, 0, 5737261748393268080ull,
         none, none},
        {DataPolicy::WB, 1, 1, 4, 730, 171, 497, 4062948133731154163ull,
         11957322595139294162ull, 11188747310044417249ull},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(dataPolicyName(c.data));
        EngineFixture f(TimePolicy::Refrint, c.data, c.n, c.m, 512, 10000,
                        c.groupSize);
        f.engine->start(0);
        // Install in a scrambled order (37 is coprime to 512), every
        // third line dirty: all sentries share the first deadline.
        for (std::uint32_t i = 0; i < 512; ++i) {
            const std::uint32_t idx = (i * 37) % 512;
            f.install(idx, 0, idx % 3 == 0);
        }
        for (std::uint32_t idx = 0; idx < 512; idx += 7)
            f.shots.at(5000, [&f, idx](Tick t) {
                f.engine->onAccess(idx, t);
            });
        for (std::uint32_t idx = 5; idx < 512; idx += 11)
            f.shots.at(12000, [&f, idx](Tick t) {
                f.engine->onAccess(idx, t);
            });
        f.eq.run(45000);
        EXPECT_EQ(f.counter("line_refreshes"), c.refreshes);
        EXPECT_EQ(f.target.wrote.size(), c.writebacks);
        EXPECT_EQ(f.target.invalidated.size(), c.invalidations);
        EXPECT_EQ(digest(f.target.refreshed), c.refreshDigest);
        EXPECT_EQ(digest(f.target.wrote), c.writebackDigest);
        EXPECT_EQ(digest(f.target.invalidated), c.invalidateDigest);
    }
}

namespace
{

/** A RefrintEngine that counts the kernel dispatches it receives. */
struct WakeCountingRefrint : RefrintEngine
{
    using RefrintEngine::RefrintEngine;

    void
    fire(Tick now, std::uint64_t tag) override
    {
        ++wakes;
        RefrintEngine::fire(now, tag);
    }

    std::uint64_t wakes = 0;
};

} // namespace

TEST(RefrintEngine, RescalesCostAtMostOneIdleWakeEach)
{
    // Sixteen one-line groups installed 10 ticks apart, so no two
    // sentries share a deadline and a wake services one group.  Each
    // rescale re-keys every group and wakes for the new heap top; the
    // wake it superseded still fires, once, and must do nothing.  So
    // kernel dispatches exceed sentry interrupts by at most the number
    // of rescales, however many there are.
    MockTarget target(16);
    EventQueue eq;
    OneShots shots(eq);
    StatGroup stats{"eng"};
    WakeCountingRefrint engine(target,
                               RefreshPolicy::refrint(DataPolicy::Valid),
                               RetentionParams{1000, kTickNever, {}, {}},
                               EngineGeometry{1, 4, 4}, eq, stats);
    engine.start(0);
    for (std::uint32_t idx = 0; idx < 16; ++idx)
        shots.at(10 * idx, [&target, &engine, idx](Tick now) {
            CacheLine &l = target.arr.lineAt(idx);
            target.arr.install(VictimRef{&l, idx},
                               static_cast<Addr>(idx) * 64, now,
                               Mesi::Shared);
            engine.onInstall(idx, now);
        });
    const double factors[] = {0.5, 1.5, 0.75, 1.0, 0.6};
    std::uint64_t rescales = 0;
    for (std::size_t i = 0; i < 5; ++i)
        shots.at(1500 + 1100 * i, [&, i](Tick now) {
            rescales += engine.setRetentionScale(factors[i], now) ? 1 : 0;
        });
    eq.run(10000);

    const std::uint64_t interrupts =
        stats.counter("sentry_interrupts").value();
    EXPECT_EQ(rescales, 5u);
    EXPECT_GT(interrupts, 100u);
    EXPECT_LE(engine.wakes, interrupts + rescales)
        << interrupts << " sentry interrupts";
}

// ---------------------------------------------------------------------
// PeriodicEngine
// ---------------------------------------------------------------------

TEST(PeriodicEngine, VisitsEveryLineOncePerPeriod)
{
    // Four bursts of four lines at 1, 251, 501 and 751: each refreshes
    // its lines in one charge and renews them for a full retention.
    EngineFixture f(TimePolicy::Periodic, DataPolicy::All, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.eq.run(1000);
    EXPECT_EQ(f.counter("line_refreshes"), 16u);
    EXPECT_EQ(f.target.refreshed,
              (Calls{{4, 1}, {4, 251}, {4, 501}, {4, 751}}));
    for (std::uint32_t idx = 0; idx < 16; ++idx)
        EXPECT_EQ(f.expiry(idx), 1 + 250 * (idx / 4) + 1000u) << idx;
    f.eq.run(2000);
    EXPECT_EQ(f.counter("line_refreshes"), 32u);
    for (std::uint32_t idx = 0; idx < 16; ++idx)
        EXPECT_EQ(f.expiry(idx), 1 + 250 * (idx / 4) + 2000u) << idx;
}

TEST(PeriodicEngine, BurstsAreStaggeredAcrossThePeriod)
{
    EngineFixture f(TimePolicy::Periodic, DataPolicy::All, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.eq.run(499);
    const std::uint64_t firstHalf = f.counter("line_refreshes");
    EXPECT_GT(firstHalf, 0u);
    EXPECT_LT(firstHalf, 16u)
        << "the full cache must not refresh in one burst";
    EXPECT_EQ(f.target.refreshed, (Calls{{4, 1}, {4, 251}}));
}

TEST(PeriodicEngine, EagerlyRefreshesRecentlyAccessedLines)
{
    // The hallmark weakness of Periodic (§3.1): it refreshes lines even
    // if an access just auto-refreshed them.
    EngineFixture f(TimePolicy::Periodic, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(0, 0);
    for (Tick t = 100; t <= 2000; t += 100)
        f.shots.at(t, [&](Tick now) { f.engine->onAccess(0, now); });
    f.eq.run(2100);
    EXPECT_EQ(f.counter("line_refreshes"), 3u)
        << "periodic refreshes hot lines anyway";
    EXPECT_EQ(f.target.refreshed, (Calls{{1, 1}, {1, 1001}, {1, 2001}}));
    EXPECT_EQ(f.expiry(0), 2001u + 1000) << "one tick after an access";
}

TEST(PeriodicEngine, ValidSkipsInvalidLines)
{
    EngineFixture f(TimePolicy::Periodic, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(7, 0);
    f.eq.run(1000);
    EXPECT_EQ(f.counter("line_refreshes"), 1u);
    EXPECT_EQ(f.counter("refresh_skips"), 15u);
    EXPECT_EQ(f.target.refreshed, (Calls{{1, 251}})); // burst 1: 4..7
    EXPECT_EQ(f.expiry(7), 251u + 1000);
}

TEST(PeriodicEngine, WbCountsDownAcrossPeriods)
{
    EngineFixture f(TimePolicy::Periodic, DataPolicy::WB, 1, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(2, 0, /*dirty=*/true);
    f.eq.run(3 * 1000 + 10);
    // Period 1: count 1 -> refresh; period 2: count 0 dirty -> WB;
    // period 3: clean, m=0 -> invalidate.
    EXPECT_EQ(f.counter("line_refreshes"), 1u);
    EXPECT_EQ(f.target.refreshed, (Calls{{1, 1}}));
    EXPECT_EQ(f.target.wrote, (Calls{{2, 1001}}));
    EXPECT_EQ(f.target.invalidated, (Calls{{2, 2001}}));
}

TEST(PeriodicEngine, BlocksTheBankWhileRefreshing)
{
    EngineFixture f(TimePolicy::Periodic, DataPolicy::All, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.eq.run(1000);
    EXPECT_EQ(f.target.busyCycles, 16u)
        << "refreshing a line costs one blocked cycle (Table 5.2)";
}

TEST(PeriodicEngine, RescaleMidPeriodKeepsOneVisitPerLinePerPeriod)
{
    // Four bursts of four lines, 250 ticks apart in a 1000-tick period.
    // Halving the retention at tick 1100 moves the next wakes of bursts
    // 1, 2, 3 and 0 halfway towards 1100 (1175, 1300, 1425, 1550) and
    // repeats each every 500 ticks.  The wakes of the old schedule
    // (1251, 1501, 1751, 2001) still fire, and must do nothing.
    EngineFixture f(TimePolicy::Periodic, DataPolicy::All, 0, 0, 16,
                    1000);
    constexpr Tick t0 = 1100;
    f.engine->start(0);
    f.shots.at(t0, [&](Tick now) {
        EXPECT_TRUE(f.engine->setRetentionScale(0.5, now));
    });
    f.eq.run(t0);
    ASSERT_EQ(f.counter("periodic_bursts"), 5u); // one period + burst 0
    const std::size_t before = f.target.refreshed.size();

    f.eq.run(t0 + 3 * 500);
    EXPECT_EQ(f.counter("periodic_bursts"), 5u + 3 * 4)
        << "three new periods of four bursts, and nothing else";
    EXPECT_EQ(f.counter("refresh_visits"), 5u * 4 + 3 * 16);
    EXPECT_EQ(f.counter("line_refreshes"), 5u * 4 + 3 * 16);
    EXPECT_EQ(f.eq.size(), 4u)
        << "one pending wake per burst once the old ones have passed";

    // Every 125 ticks from 1175 one burst refreshes its four lines.
    const Calls after(f.target.refreshed.begin() + before,
                      f.target.refreshed.end());
    ASSERT_EQ(after.size(), 12u);
    for (std::size_t i = 0; i < after.size(); ++i)
        EXPECT_EQ(after[i], (std::pair<std::uint32_t, Tick>{
                                4, 1175 + 125 * i}))
            << i;
    // Each line's last visit renewed it for the new 500-tick retention.
    const Tick firstWake[4] = {1550, 1175, 1300, 1425}; // bursts 0..3
    for (std::uint32_t idx = 0; idx < 16; ++idx)
        EXPECT_EQ(f.expiry(idx), firstWake[idx / 4] + 2 * 500 + 500)
            << idx;
}

namespace
{

/** The counters a reference burst charges, named as the engine's. */
struct RefCounts
{
    std::uint64_t refreshes = 0, writebacks = 0, invalidations = 0,
                  skips = 0, visits = 0;
};

/**
 * One periodic burst over [lo, hi) done the plain way, independently
 * of the engine: visit each line in order, take Fig. 4.1's decision,
 * write back and invalidate through @p t one call per line, renew the
 * clock of every line that stays alive, and charge the burst's
 * refreshes as one (count, tick) call.
 */
void
referenceBurst(MockTarget &t, const RefreshPolicy &pol, std::uint32_t lo,
               std::uint32_t hi, Tick now, Tick retention, RefCounts &c)
{
    std::uint32_t refreshed = 0, serviced = 0;
    for (std::uint32_t idx = lo; idx < hi; ++idx) {
        CacheLine &line = t.arr.lineAt(idx);
        ++c.visits;
        switch (decideRefresh(pol, line)) {
          case RefreshAction::Refresh:
            ++c.refreshes;
            ++refreshed;
            ++serviced;
            line.dataExpiry = now + retention;
            break;
          case RefreshAction::Writeback:
            ++c.writebacks;
            ++serviced;
            t.writebackLine(idx, now);
            line.dataExpiry = now + retention;
            break;
          case RefreshAction::Invalidate:
            ++c.invalidations;
            t.invalidateLine(idx, now);
            break;
          case RefreshAction::Skip:
            ++c.skips;
            break;
        }
    }
    if (refreshed > 0)
        t.refreshLines(refreshed, now);
    if (serviced > 0)
        t.addBusy(now, serviced);
}

/** Install (or, with @p dirty, install dirty) line @p idx in a bare
 *  target the way the engine fixture does, renewing its clock. */
void
referenceInstall(MockTarget &t, const RefreshPolicy &pol,
                 std::uint32_t idx, Tick now, Tick retention, bool dirty)
{
    CacheLine &l = t.arr.lineAt(idx);
    t.arr.install(VictimRef{&l, idx}, static_cast<Addr>(idx) * 64, now,
                  dirty ? Mesi::Modified : Mesi::Shared);
    l.dirty = dirty;
    l.dataExpiry = now + retention;
    noteAccess(pol, l);
}

} // namespace

TEST(PeriodicEngine, BatchedBurstsMatchPerLineReference)
{
    // The engine's burst loops (All, Valid, and the general loop that
    // serves Dirty and WB) against referenceBurst over random array
    // states that change between periods: every call sequence, every
    // line's state and clock, and every counter must agree.
    constexpr std::uint32_t kLines = 256;
    constexpr Tick kT = 1000;
    constexpr std::uint32_t kBurst = 32; // 8 bursts, 125 ticks apart
    const RefreshPolicy policies[] = {
        RefreshPolicy::periodic(DataPolicy::All),
        RefreshPolicy::periodic(DataPolicy::Valid),
        RefreshPolicy::periodic(DataPolicy::Dirty),
        RefreshPolicy::periodic(DataPolicy::WB, 2, 1),
        RefreshPolicy::periodic(DataPolicy::WB, 1, 0),
    };
    for (const RefreshPolicy &pol : policies) {
        SCOPED_TRACE(pol.name());
        EngineFixture f(TimePolicy::Periodic, pol.data, pol.n, pol.m,
                        kLines, kT, 1, kBurst);
        MockTarget ref(kLines);
        RefCounts rc;
        Prng prng(7, pol.n * 4 + pol.m);

        auto mutate = [&](Tick now, std::uint32_t count) {
            for (std::uint32_t i = 0; i < count; ++i) {
                const std::uint32_t idx = prng.below(kLines);
                CacheLine &e = f.target.arr.lineAt(idx);
                CacheLine &r = ref.arr.lineAt(idx);
                switch (prng.below(4)) {
                  case 0: { // fill, clean or dirty
                    const bool dirty = prng.below(2) == 0;
                    f.install(idx, now, dirty);
                    referenceInstall(ref, pol, idx, now, kT, dirty);
                    break;
                  }
                  case 1: // a write dirties a valid line
                    if (e.valid()) {
                        e.dirty = r.dirty = true;
                        f.engine->onAccess(idx, now);
                        r.dataExpiry = now + kT;
                        noteAccess(pol, r);
                    }
                    break;
                  case 2: // an eviction
                    if (e.valid()) {
                        f.target.arr.invalidate(e);
                        ref.arr.invalidate(r);
                    }
                    break;
                  default: // a WB countdown part-way through
                    if (e.valid())
                        e.count = r.count = prng.below(3);
                    break;
                }
            }
        };

        mutate(0, 200);
        f.engine->start(0);
        for (Tick period = 0; period < 6; ++period) {
            for (std::uint32_t k = 0; k < kLines / kBurst; ++k)
                referenceBurst(ref, pol, k * kBurst, (k + 1) * kBurst,
                               period * kT + kT * k / 8 + 1, kT, rc);
            f.eq.run(period * kT + kT);

            EXPECT_EQ(f.target.refreshed, ref.refreshed);
            EXPECT_EQ(f.target.wrote, ref.wrote);
            EXPECT_EQ(f.target.invalidated, ref.invalidated);
            EXPECT_EQ(f.target.busyCycles, ref.busyCycles);
            for (std::uint32_t idx = 0; idx < kLines; ++idx) {
                const CacheLine &e = f.target.arr.lineAt(idx);
                const CacheLine &r = ref.arr.lineAt(idx);
                ASSERT_EQ(e.dataExpiry, r.dataExpiry) << idx;
                ASSERT_EQ(e.state, r.state) << idx;
                ASSERT_EQ(e.dirty, r.dirty) << idx;
                ASSERT_EQ(e.count, r.count) << idx;
            }
            EXPECT_EQ(f.counter("line_refreshes"), rc.refreshes);
            EXPECT_EQ(f.counter("refresh_writebacks"), rc.writebacks);
            EXPECT_EQ(f.counter("refresh_invalidations"),
                      rc.invalidations);
            EXPECT_EQ(f.counter("refresh_skips"), rc.skips);
            EXPECT_EQ(f.counter("refresh_visits"), rc.visits);
            mutate(period * kT + kT, 60);
        }
        // The run did exercise the actions its policy can take.
        EXPECT_GT(rc.refreshes, 0u);
        if (pol.data != DataPolicy::All) {
            EXPECT_GT(rc.skips, 0u);
        }
        if (pol.data == DataPolicy::Dirty || pol.data == DataPolicy::WB) {
            EXPECT_GT(rc.invalidations, 0u);
        }
        if (pol.data == DataPolicy::WB) {
            EXPECT_GT(rc.writebacks, 0u);
        }
    }
}

TEST(EngineDeath, SentryMarginMustFitRetention)
{
    // 16-line cache with retention 10 cycles: the conservative margin
    // (= line count) exceeds the retention period.
    MockTarget target(16);
    EventQueue eq;
    StatGroup sg{"eng"};
    RetentionParams ret{10, kTickNever, {}, {}};
    EngineGeometry geom{1, 4, 4};
    EXPECT_DEATH(makeRefreshEngine(
                     target, RefreshPolicy::refrint(DataPolicy::Valid),
                     ret, geom, eq, sg),
                 "sentry margin");
}

} // namespace refrint::test
