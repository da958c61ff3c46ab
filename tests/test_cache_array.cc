/**
 * @file
 * Unit tests for cache geometry (address slicing) and the
 * set-associative array (lookup, victim selection, LRU, install).
 */

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "mem/array_pool.hh"
#include "mem/cache_array.hh"

namespace refrint::test
{

namespace
{
CacheGeometry
geom8x2()
{
    // 1 KB, 2-way, 64B lines: 16 lines, 8 sets.
    return CacheGeometry{1024, 2, 64, 1};
}
} // namespace

TEST(CacheGeometry, DerivedQuantities)
{
    CacheGeometry g = geom8x2();
    EXPECT_EQ(g.numLines(), 16u);
    EXPECT_EQ(g.numSets(), 8u);
    EXPECT_EQ(g.lineBits(), 6u);
    EXPECT_EQ(g.setBits(), 3u);
}

TEST(CacheGeometry, LineAlignment)
{
    CacheGeometry g = geom8x2();
    EXPECT_EQ(g.lineAddr(0x1234), 0x1200u);
    EXPECT_EQ(g.lineAddr(0x1240), 0x1240u);
    EXPECT_EQ(g.tagOf(0x127f), 0x1240u);
}

TEST(CacheGeometry, SetIndexCyclesWithLineAddress)
{
    CacheGeometry g = geom8x2();
    EXPECT_EQ(g.setIndex(0x0), 0u);
    EXPECT_EQ(g.setIndex(0x40), 1u);
    EXPECT_EQ(g.setIndex(0x1c0), 7u);
    EXPECT_EQ(g.setIndex(0x200), 0u); // wraps after 8 sets
}

TEST(CacheGeometry, IndexShiftSkipsBankBits)
{
    CacheGeometry g = geom8x2();
    g.indexShift = 2; // 4 "banks"
    // Consecutive lines differing only in the two bank bits share a set.
    EXPECT_EQ(g.setIndex(0x000), g.setIndex(0x040));
    EXPECT_EQ(g.setIndex(0x000), g.setIndex(0x0c0));
    // The next index bit lives above the bank bits.
    EXPECT_EQ(g.setIndex(0x100), 1u);
}

TEST(CacheArray, MissOnEmpty)
{
    CacheArray arr(geom8x2(), "t");
    EXPECT_EQ(arr.lookup(0x40), nullptr);
    EXPECT_EQ(arr.countValid(), 0u);
}

TEST(CacheArray, InstallThenHit)
{
    CacheArray arr(geom8x2(), "t");
    VictimRef v = arr.pickVictim(0x40);
    arr.install(v, 0x40, 10, Mesi::Shared);
    CacheLine *hit = arr.lookup(0x7f); // same line
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->tag, 0x40u);
    EXPECT_EQ(arr.lookup(0x80), nullptr); // different set
}

TEST(CacheArray, VictimPrefersInvalidWay)
{
    CacheArray arr(geom8x2(), "t");
    VictimRef v1 = arr.pickVictim(0x40);
    arr.install(v1, 0x40, 1, Mesi::Shared);
    // Same set (addresses 0x40 and 0x240 with 8 sets share set 1).
    VictimRef v2 = arr.pickVictim(0x240);
    EXPECT_NE(v2.line, v1.line) << "must pick the invalid way";
}

TEST(CacheArray, LruEvictsOldest)
{
    CacheArray arr(geom8x2(), "t");
    // Fill both ways of set 1.
    VictimRef a = arr.pickVictim(0x40);
    arr.install(a, 0x40, 1, Mesi::Shared);
    VictimRef b = arr.pickVictim(0x240);
    arr.install(b, 0x240, 2, Mesi::Shared);

    // Touch the first line more recently than the second.
    arr.touch(*arr.lookup(0x40), 50);

    VictimRef v = arr.pickVictim(0x440);
    EXPECT_EQ(v.line->tag, 0x240u) << "LRU way must be the victim";
}

TEST(CacheArray, IndexRoundTrips)
{
    CacheArray arr(geom8x2(), "t");
    for (std::uint32_t i = 0; i < arr.numLines(); ++i)
        EXPECT_EQ(arr.indexOf(&arr.lineAt(i)), i);
}

TEST(CacheArray, CountDirtyTracksState)
{
    CacheArray arr(geom8x2(), "t");
    VictimRef v = arr.pickVictim(0x0);
    arr.install(v, 0x0, 1, Mesi::Modified);
    v.line->dirty = true;
    EXPECT_EQ(arr.countValid(), 1u);
    EXPECT_EQ(arr.countDirty(), 1u);
    arr.invalidate(*v.line);
    EXPECT_EQ(arr.countValid(), 0u);
    EXPECT_EQ(arr.countDirty(), 0u);
}

TEST(CacheArray, InstallResetsDirectoryResidue)
{
    CacheArray arr(geom8x2(), "t");
    VictimRef v = arr.pickVictim(0x0);
    arr.install(v, 0x0, 1, Mesi::Shared);
    v.line->sharers = 0xffff;
    v.line->owner = 3;
    v.line->count = 9;
    arr.invalidate(*v.line);
    VictimRef v2 = arr.pickVictim(0x200);
    arr.install(v2, 0x200, 2, Mesi::Shared);
    EXPECT_EQ(v2.line->sharers, 0u);
    EXPECT_EQ(v2.line->owner, -1);
    EXPECT_EQ(v2.line->count, 0u);
}

TEST(CacheArrayDeath, BadGeometryIsFatal)
{
    CacheGeometry g{1000, 2, 64, 1}; // not a power-of-two layout
    EXPECT_EXIT(CacheArray(g, "bad"), ::testing::ExitedWithCode(1),
                "bad cache geometry");
}

TEST(CacheArray, ProbeMirrorStaysCoherent)
{
    // Drive a chain of install/invalidate/install over several sets and
    // verify the packed probe mirror against the line structs.
    CacheArray arr(geom8x2(), "t");
    arr.checkProbeCoherence(); // empty array

    std::vector<Addr> addrs = {0x0, 0x40, 0x240, 0x440, 0x1c0, 0x7c0};
    for (Addr a : addrs) {
        VictimRef v = arr.pickVictim(a);
        if (v.line->valid())
            arr.invalidate(*v.line);
        arr.install(v, a, 1, Mesi::Shared);
        arr.checkProbeCoherence();
    }
    // Invalidate every other line.
    for (std::size_t i = 0; i < addrs.size(); i += 2) {
        if (CacheLine *l = arr.lookup(addrs[i]))
            arr.invalidate(*l);
        arr.checkProbeCoherence();
    }
    // Lookups agree with the struct state.
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        CacheLine *l = arr.lookup(addrs[i]);
        if (l != nullptr) {
            EXPECT_EQ(l->tag, addrs[i]);
        }
    }
}

TEST(CacheArray, SetIndexMatchesGeometry)
{
    // The precomputed slicing must agree with the geometry's reference
    // implementation, hash folding included.
    CacheGeometry g = geom8x2();
    g.hashSets = true;
    CacheArray arr(g, "t");
    for (Addr a = 0; a < 0x4000; a += 64)
        EXPECT_EQ(arr.setIndexOf(a), g.setIndex(a)) << "addr " << a;
}

TEST(CacheArray, PackedLruTracksTouches)
{
    CacheArray arr(geom8x2(), "t");
    VictimRef a = arr.pickVictim(0x40);
    arr.install(a, 0x40, 5, Mesi::Shared);
    EXPECT_EQ(arr.lastTouchOf(a.index), 5u);
    arr.touch(*a.line, 9);
    EXPECT_EQ(arr.lastTouchOf(a.index), 9u);
}

TEST(CacheArray, VectorProbeMatchesScalarRandomized)
{
    // Differential test of the SIMD probe against the scalar
    // reference: every width 1..16 (the geometry layer only builds
    // power-of-two associativities, but the helper must be correct for
    // any n — non-power-of-two widths exercise the tail masks), with
    // random word patterns drawn from a small pool so duplicate words,
    // zero words and absent targets all occur.
    Prng prng(0xd1ff, 7);
    for (std::uint32_t n = 1; n <= 16; ++n) {
        for (int trial = 0; trial < 2'000; ++trial) {
            Addr words[16 + kProbePad] = {}; // pad words stay 0
            const std::uint32_t poolBits = 1 + prng.below(3);
            for (std::uint32_t w = 0; w < n; ++w) {
                // ~1/4 invalid ways; probe words are (tag | 1).
                if (prng.below(4) == 0)
                    words[w] = 0;
                else
                    words[w] = (static_cast<Addr>(
                                    prng.below(1u << poolBits))
                                << 6) |
                               1;
            }
            // Scan for: an absent word, a present word, and zero.
            const Addr wants[] = {
                (static_cast<Addr>(1u << poolBits) << 6) | 1,
                words[prng.below(n)], 0};
            for (const Addr want : wants) {
                ASSERT_EQ(probeFindWay(words, n, want),
                          probeFindWayScalar(words, n, want))
                    << "n=" << n << " want=" << want;
            }
        }
    }
}

TEST(CacheArray, ProbeCoherenceUnderRandomChurn)
{
    // Drive random install/invalidate/lookup churn across every
    // supported associativity (with and without set hashing) and let
    // checkProbeCoherence() run its built-in vector-vs-scalar
    // differential on the live probe array after every phase.
    for (const std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
        for (const bool hash : {false, true}) {
            CacheGeometry g;
            g.sizeBytes = 64 * 64 * assoc; // 64 sets
            g.assoc = assoc;
            g.lineSize = 64;
            g.latency = 1;
            g.hashSets = hash;
            CacheArray arr(g, "churn");
            Prng prng(0xc0ffee + assoc, hash ? 2 : 1);
            Tick now = 0;
            for (int op = 0; op < 20'000; ++op) {
                const Addr a =
                    static_cast<Addr>(prng.below(4096)) * 64;
                ++now;
                CacheLine *l = arr.lookup(a);
                if (l != nullptr) {
                    if (prng.below(8) == 0)
                        arr.invalidate(*l);
                    else
                        arr.touch(*l, now);
                } else {
                    VictimRef v = arr.pickVictim(a);
                    if (v.line->valid())
                        arr.invalidate(*v.line);
                    arr.install(v, a, now, Mesi::Shared);
                }
                if ((op & 1023) == 0)
                    arr.checkProbeCoherence();
            }
            arr.checkProbeCoherence();
        }
    }
}

namespace
{

/** One churn step on @p addr: touch on a hit, evict + install on a
 *  miss. */
void
churnStep(CacheArray &arr, Addr addr, Tick now)
{
    CacheLine *l = arr.lookup(addr);
    if (l != nullptr) {
        arr.touch(*l, now);
        return;
    }
    VictimRef v = arr.pickVictim(addr);
    if (v.line->valid())
        arr.invalidate(*v.line);
    arr.install(v, addr, now, Mesi::Shared);
}

/** Every line field, probe word and LRU stamp of @p a equals @p b's. */
void
expectSameState(const CacheArray &a, const CacheArray &b)
{
    ASSERT_EQ(a.numLines(), b.numLines());
    for (std::uint32_t i = 0; i < a.numLines(); ++i) {
        const CacheLine &x = a.lineAt(i);
        const CacheLine &y = b.lineAt(i);
        ASSERT_EQ(x.tag, y.tag) << i;
        ASSERT_EQ(x.dataExpiry, y.dataExpiry) << i;
        ASSERT_EQ(x.sharers, y.sharers) << i;
        ASSERT_EQ(x.count, y.count) << i;
        ASSERT_EQ(x.state, y.state) << i;
        ASSERT_EQ(x.dirty, y.dirty) << i;
        ASSERT_EQ(x.owner, y.owner) << i;
        ASSERT_EQ(a.probeData()[i], b.probeData()[i]) << i;
        ASSERT_EQ(a.lastTouchOf(i), b.lastTouchOf(i)) << i;
    }
}

} // namespace

TEST(CacheArray, ArenaBackedArrayBehavesIdentically)
{
    // The same churn trace on a heap-backed, an arena-backed and a
    // recycled array must produce identical state: the arena only
    // moves storage, and a recycled array — taken back from the pool
    // after a prior scenario — must equal a fresh one line for line,
    // before the churn as well as after.  The arena and the pool must
    // be reusable across construction rounds.
    Arena arena;
    ArrayPool pool;
    for (int round = 0; round < 4; ++round) {
        arena.reset();
        {
            // The prior scenario installs into sets 0-3 only, directory
            // fields included.  On even rounds it then stamps every
            // line's clock the way an All-policy engine does, sets 4-7
            // too; on odd rounds only valid lines' clocks change, as
            // under any other policy.
            CacheArray prior(geom8x2(), "p", nullptr, &pool);
            Prng prng(0x5eed + static_cast<std::uint64_t>(round), 4);
            for (Tick now = 1; now <= 3'000; ++now) {
                const Addr line = prng.below(64) * 8;
                const Addr a = (line + prng.below(4)) * 64;
                churnStep(prior, a, now);
                CacheLine *l = prior.lookup(a);
                l->sharers = now;
                l->owner = 3;
                l->count = 7;
                l->dirty = true;
            }
            const bool allPolicy = round % 2 == 0;
            if (allPolicy)
                prior.markFullRestore();
            prior.forEachLine([&](std::uint32_t i, CacheLine &l) {
                if (allPolicy || l.valid())
                    l.dataExpiry = 10'000 + i;
            });
        }
        ASSERT_EQ(pool.heldArrays(), 1u);

        CacheArray heap(geom8x2(), "h");
        CacheArray backed(geom8x2(), "a", &arena);
        CacheArray recycled(geom8x2(), "r", nullptr, &pool);
        ASSERT_EQ(pool.heldArrays(), 0u);
        expectSameState(heap, recycled);

        Prng prng(0xabcd, 3);
        Tick now = 0;
        for (int op = 0; op < 5'000; ++op) {
            const Addr a = static_cast<Addr>(prng.below(256)) * 64;
            ++now;
            for (CacheArray *arr : {&heap, &backed, &recycled})
                churnStep(*arr, a, now);
        }
        heap.checkProbeCoherence();
        backed.checkProbeCoherence();
        recycled.checkProbeCoherence();
        expectSameState(heap, backed);
        expectSameState(heap, recycled);
    }
}

} // namespace refrint::test
