/**
 * @file
 * Unit tests for the data-policy decision algorithm (Table 3.1 and
 * Fig. 4.1), including the WB(n,m) Count state machine and the policy
 * name round-trip.
 */

#include <gtest/gtest.h>

#include "edram/refresh_policy.hh"

namespace refrint::test
{

namespace
{
CacheLine
validClean()
{
    CacheLine l;
    l.state = Mesi::Shared;
    l.dirty = false;
    return l;
}

CacheLine
validDirty()
{
    CacheLine l;
    l.state = Mesi::Modified;
    l.dirty = true;
    return l;
}
} // namespace

TEST(PolicyNames, RoundTrip)
{
    for (const char *s : {"P.all", "R.all", "P.valid", "R.valid",
                          "P.dirty", "R.dirty", "P.WB(4,4)",
                          "R.WB(32,32)", "R.WB(16,8)"}) {
        RefreshPolicy p;
        ASSERT_TRUE(parsePolicy(s, p)) << s;
        EXPECT_EQ(p.name(), s);
    }
}

TEST(PolicyNames, Constructors)
{
    EXPECT_EQ(RefreshPolicy::periodic(DataPolicy::All).name(), "P.all");
    EXPECT_EQ(RefreshPolicy::refrint(DataPolicy::WB, 8, 8).name(),
              "R.WB(8,8)");
}

TEST(AllPolicy, RefreshesEverything)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::All);
    CacheLine inv;                    // Invalid
    CacheLine vc = validClean();
    CacheLine vd = validDirty();
    EXPECT_EQ(decideRefresh(p, inv), RefreshAction::Refresh);
    EXPECT_EQ(decideRefresh(p, vc), RefreshAction::Refresh);
    EXPECT_EQ(decideRefresh(p, vd), RefreshAction::Refresh);
}

TEST(ValidPolicy, RefreshesOnlyValid)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::Valid);
    CacheLine inv;
    CacheLine vc = validClean();
    CacheLine vd = validDirty();
    EXPECT_EQ(decideRefresh(p, inv), RefreshAction::Skip);
    EXPECT_EQ(decideRefresh(p, vc), RefreshAction::Refresh);
    EXPECT_EQ(decideRefresh(p, vd), RefreshAction::Refresh);
}

TEST(DirtyPolicy, InvalidatesCleanLines)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::Dirty);
    CacheLine inv;
    CacheLine vc = validClean();
    CacheLine vd = validDirty();
    EXPECT_EQ(decideRefresh(p, inv), RefreshAction::Skip);
    EXPECT_EQ(decideRefresh(p, vc), RefreshAction::Invalidate);
    EXPECT_EQ(decideRefresh(p, vd), RefreshAction::Refresh);
}

TEST(WbPolicy, DirtyLineRefreshedNTimesThenWrittenBack)
{
    // Fig. 4.1: a dirty line with Count=n is refreshed n times (one per
    // sentry interrupt, decrementing), then written back and reborn as
    // Valid-Clean with Count=m.
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::WB, 3, 2);
    CacheLine l = validDirty();
    noteAccess(p, l);
    EXPECT_EQ(l.count, 3u);
    EXPECT_EQ(decideRefresh(p, l), RefreshAction::Refresh);
    EXPECT_EQ(l.count, 2u);
    EXPECT_EQ(decideRefresh(p, l), RefreshAction::Refresh);
    EXPECT_EQ(decideRefresh(p, l), RefreshAction::Refresh);
    EXPECT_EQ(l.count, 0u);
    EXPECT_EQ(decideRefresh(p, l), RefreshAction::Writeback);
    EXPECT_EQ(l.count, 2u) << "writeback reloads Count with m";
}

TEST(WbPolicy, CleanLineRefreshedMTimesThenInvalidated)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::WB, 3, 2);
    CacheLine l = validClean();
    noteAccess(p, l);
    EXPECT_EQ(l.count, 2u);
    EXPECT_EQ(decideRefresh(p, l), RefreshAction::Refresh);
    EXPECT_EQ(decideRefresh(p, l), RefreshAction::Refresh);
    EXPECT_EQ(decideRefresh(p, l), RefreshAction::Invalidate);
}

TEST(WbPolicy, AccessResetsCount)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::WB, 4, 4);
    CacheLine l = validDirty();
    noteAccess(p, l);
    decideRefresh(p, l);
    decideRefresh(p, l);
    EXPECT_EQ(l.count, 2u);
    noteAccess(p, l); // normal access: Count back to n
    EXPECT_EQ(l.count, 4u);
}

TEST(WbPolicy, CountResetDependsOnDirtiness)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::WB, 7, 3);
    CacheLine d = validDirty();
    CacheLine c = validClean();
    noteAccess(p, d);
    noteAccess(p, c);
    EXPECT_EQ(d.count, 7u);
    EXPECT_EQ(c.count, 3u);
}

TEST(WbPolicy, InvalidLinesSkip)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::WB, 4, 4);
    CacheLine inv;
    EXPECT_EQ(decideRefresh(p, inv), RefreshAction::Skip);
}

TEST(WbPolicy, Wb0MirrorsDirtyPolicyOnCleanLines)
{
    // Dirty == WB(inf, 0): a clean line with m=0 dies on first deadline.
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::WB, 1000, 0);
    CacheLine c = validClean();
    noteAccess(p, c);
    EXPECT_EQ(decideRefresh(p, c), RefreshAction::Invalidate);
}

TEST(WbPolicy, DirtyZeroNWritesBackImmediately)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::WB, 0, 5);
    CacheLine d = validDirty();
    noteAccess(p, d);
    EXPECT_EQ(d.count, 0u);
    EXPECT_EQ(decideRefresh(p, d), RefreshAction::Writeback);
}

TEST(NoteAccess, NonWbPoliciesIgnoreCount)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::Valid);
    CacheLine l = validClean();
    l.count = 5;
    noteAccess(p, l);
    EXPECT_EQ(l.count, 5u) << "Count is a WB-only field";
}

TEST(PolicyDeath, ParseRejectsGarbage)
{
    // Anything name() does not print is rejected, without exiting: a
    // missing ')', trailing bytes, a sign, a leading zero, a count past
    // 32 bits, a lower-case time letter.
    for (const char *s :
         {"X.valid", "R.WB(4)", "R.bogus", "", "P.", "P.WB(", "P.WB(4,4",
          "P.WB(4,4)xyz", "P.WB(-1,4)", "P.WB(+1,4)", "P.WB(04,4)",
          "P.WB(4, 4)", "P.WB(4294967296,4)", "p.all", "P.all ", "SRAM"}) {
        RefreshPolicy p = RefreshPolicy::periodic(DataPolicy::Dirty);
        EXPECT_FALSE(parsePolicy(s, p)) << s;
        EXPECT_EQ(p.name(), "P.dirty") << s; // untouched on failure
    }
    RefreshPolicy p;
    ASSERT_TRUE(parsePolicy("S.WB(4294967295,0)", p));
    EXPECT_EQ(p.n, 4294967295u);
}

} // namespace refrint::test
