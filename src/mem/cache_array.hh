/**
 * @file
 * Set-associative tag/state array with LRU replacement.
 *
 * This is the storage substrate shared by all cache levels.  It is
 * state-only (no data payloads — the simulator is state-accurate, not
 * value-accurate) and exposes flat line indices so the eDRAM refresh
 * engines can address lines the way the hardware's sentry wires do.
 *
 * Probe path: lookup() and pickVictim() scan a packed per-set probe
 * array (one 8-byte word per way encoding tag + valid) instead of
 * striding full CacheLine structs, so an associativity-wide search
 * touches one or two cache lines.  The probe array is a derived mirror
 * of the authoritative CacheLine state, kept coherent at the two
 * choke points every Invalid<->valid transition passes through:
 * install() and invalidate().
 *
 * The set scan itself is vectorized (probeFindWay below): one 256-bit
 * AVX2 or 128-bit SSE2 compare covers 4 or 2 ways per step, selected
 * at compile time with a scalar fallback.  The probe array carries a
 * few zero pad words past the last line so a vector may over-read the
 * final set; tail lanes are masked out of every match so the padding
 * (and a neighbouring set, were the layout ever to change) can never
 * produce a hit.  A probe word is the full line-aligned address | 1,
 * so equal words imply equal set index — a cross-set false match is
 * structurally impossible even without the mask.
 *
 * Touched-set journal: install() ORs its set's bit into a per-array
 * bitmap (one bit per set, branch-free, on the miss path only).  Every
 * line that has ever been valid, and so every line whose tag, state,
 * directory, LRU or refresh fields differ from construction, sits in a
 * journaled set — with one exception: refresh engines under the All
 * data policy stamp dataExpiry on every line, valid or not, and mark
 * the array with markFullRestore() instead.  Hierarchy::flushDirty
 * walks the journal rather than every line, and a pooled array (see
 * mem/array_pool.hh) restores exactly the journaled sets — or all of
 * them after markFullRestore() — to construction state when it is
 * destroyed, so the next scenario's array starts identical to a fresh
 * one.
 */

#ifndef REFRINT_MEM_CACHE_ARRAY_HH
#define REFRINT_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/arena.hh"
#include "mem/cache_geometry.hh"
#include "mem/line_state.hh"

#if defined(__AVX2__)
#include <immintrin.h>
#define REFRINT_PROBE_AVX2 1
#elif defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#if defined(__SSE4_1__)
#include <smmintrin.h>
#endif
#define REFRINT_PROBE_SSE2 1
#endif

namespace refrint
{

/** Zero words appended to the probe array so the widest vector step
 *  may read past the last way of the last set. */
constexpr std::uint32_t kProbePad = 4;

/** Reference scan: index of the first word equal to @p want among
 *  p[0..n), or -1.  The vector path below must agree with this exactly
 *  (checkProbeCoherence verifies it on live data). */
inline int
probeFindWayScalar(const Addr *p, std::uint32_t n, Addr want)
{
    for (std::uint32_t w = 0; w < n; ++w) {
        if (p[w] == want)
            return static_cast<int>(w);
    }
    return -1;
}

/**
 * Index of the first word equal to @p want among p[0..n), or -1.
 * @p p must have kProbePad readable words past p[n-1] (the probe
 * array's padding); lanes >= n are masked out of the match, so the
 * over-read can never affect the result — including want == 0 scans,
 * which the zero padding would otherwise satisfy.
 */
inline int
probeFindWay(const Addr *p, std::uint32_t n, Addr want)
{
#if defined(REFRINT_PROBE_AVX2)
    const __m256i w = _mm256_set1_epi64x(static_cast<long long>(want));
    for (std::uint32_t base = 0; base < n; base += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + base));
        unsigned m = static_cast<unsigned>(_mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, w))));
        if (n - base < 4)
            m &= (1u << (n - base)) - 1u; // tail: mask pad lanes
        if (m != 0)
            return static_cast<int>(base) +
                   __builtin_ctz(m); // lowest lane = first way
    }
    return -1;
#elif defined(REFRINT_PROBE_SSE2)
    const __m128i w = _mm_set1_epi64x(static_cast<long long>(want));
    for (std::uint32_t base = 0; base < n; base += 2) {
#if defined(__SSE4_1__)
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(p + base));
        unsigned m = static_cast<unsigned>(
            _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpeq_epi64(v, w))));
#else
        // Plain SSE2 has no 64-bit compare: compare 32-bit halves and
        // require both halves of a lane to match.
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(p + base));
        const unsigned m8 = static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi32(v, w)));
        const unsigned m = ((m8 & 0xffu) == 0xffu ? 1u : 0u) |
                           ((m8 >> 8) == 0xffu ? 2u : 0u);
#endif
        unsigned mm = m;
        if (n - base < 2)
            mm &= 1u; // tail: mask the pad lane
        if (mm != 0)
            return static_cast<int>(base) + static_cast<int>(mm & 1u ? 0 : 1);
    }
    return -1;
#else
    return probeFindWayScalar(p, n, want);
#endif
}

/** Result of a victim search. */
struct VictimRef
{
    CacheLine *line = nullptr;
    std::uint32_t index = 0; ///< flat line index
};

/** What makes two arrays' storage interchangeable: line and set
 *  counts. */
struct ArrayShape
{
    std::uint32_t lines = 0;
    std::uint32_t sets = 0;

    static ArrayShape
    of(const CacheGeometry &g)
    {
        return {g.numLines(), g.numSets()};
    }

    bool
    operator==(const ArrayShape &o) const
    {
        return lines == o.lines && sets == o.sets;
    }
};

/** The storage of one CacheArray.  A newly built one is in
 *  construction state: default lines, zero probe words and LRU stamps,
 *  an empty journal. */
struct ArrayStorage
{
    ArrayStorage() = default;
    ArrayStorage(ArrayShape shape, Arena *arena);

    ArenaVector<CacheLine> lines;
    ArenaVector<Addr> probe; ///< lines + kProbePad words
    ArenaVector<Tick> lastTouch;
    ArenaVector<std::uint64_t> touchedSets; ///< journal, one bit per set
};

class ArrayPool;

class CacheArray
{
  public:
    /** @p arena, when non-null, backs the line/probe/LRU arrays so a
     *  sweep worker can recycle them across scenarios (see arena.hh);
     *  null keeps plain heap allocation.  @p pool, when non-null,
     *  supplies the storage instead and takes it back, restored, when
     *  the array is destroyed (see array_pool.hh). */
    CacheArray(const CacheGeometry &geom, const char *name,
               Arena *arena = nullptr, ArrayPool *pool = nullptr);
    ~CacheArray();

    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;

    const CacheGeometry &geometry() const { return geom_; }
    std::uint32_t numLines() const { return numLines_; }

    /**
     * Set index of @p addr.  Same slicing as CacheGeometry::setIndex,
     * but the shifts/masks are precomputed at construction — the
     * geometry recomputes log2s and divisions per call, which is far
     * too slow for the probe path.
     */
    std::uint32_t
    setIndexOf(Addr addr) const
    {
        Addr idx = addr >> setShift_;
        if (hashSets_) {
            Addr folded = 0;
            for (Addr v = idx; v != 0; v >>= setBits_)
                folded ^= v;
            idx = folded;
        }
        return static_cast<std::uint32_t>(idx & setMask_);
    }

    /** Line-aligned tag of @p addr (== geometry().tagOf). */
    Addr tagOf(Addr addr) const { return addr & ~lineMask_; }

    /** Find the line holding @p addr, or nullptr on miss.  One or two
     *  vector compares cover the whole set (probeFindWay above). */
    CacheLine *
    lookup(Addr addr)
    {
        const std::uint32_t set = setIndexOf(addr);
        const Addr want = tagOf(addr) | 1;
        const std::size_t base = static_cast<std::size_t>(set) * assoc_;
        const int w =
            probeFindWay(buf_.probe.data() + base, assoc_, want);
        return w >= 0 ? &buf_.lines[base + static_cast<std::uint32_t>(w)]
                      : nullptr;
    }

    const CacheLine *
    lookup(Addr addr) const
    {
        return const_cast<CacheArray *>(this)->lookup(addr);
    }

    /** Flat index of @p line (must belong to this array). */
    std::uint32_t
    indexOf(const CacheLine *line) const
    {
        return static_cast<std::uint32_t>(line - buf_.lines.data());
    }

    /** Line at flat index @p idx. */
    CacheLine &lineAt(std::uint32_t idx) { return buf_.lines[idx]; }
    const CacheLine &
    lineAt(std::uint32_t idx) const
    {
        return buf_.lines[idx];
    }

    /** Raw packed probe words ((tag | 1) when valid, 0 otherwise), one
     *  per flat line index.  Lets the refresh engines test validity
     *  from a dense array instead of striding line structs. */
    const Addr *probeData() const { return buf_.probe.data(); }

    /**
     * Choose a victim way in @p addr's set: an invalid way if one
     * exists, otherwise the LRU way.  Does not modify the line.
     */
    VictimRef pickVictim(Addr addr);

    /**
     * Install @p addr into @p v (caller already evicted the victim)
     * with initial MESI state @p st.  Resets all other metadata to
     * clean defaults, and journals the set (file comment).
     */
    void
    install(VictimRef v, Addr addr, Tick now, Mesi st)
    {
        CacheLine &l = *v.line;
        l.tag = tagOf(addr);
        l.state = st;
        l.dirty = false;
        l.sharers = 0;
        l.owner = -1;
        l.count = 0;
        buf_.lastTouch[v.index] = now;
        buf_.probe[v.index] = st != Mesi::Invalid ? (l.tag | 1) : 0;
        const std::uint32_t set = v.index >> assocShift_;
        buf_.touchedSets[set >> 6] |= std::uint64_t{1} << (set & 63);
    }

    /** Invalidate @p line (MESI + directory residue + probe mirror).
     *  The single choke point for every valid -> Invalid transition. */
    void
    invalidate(CacheLine &line)
    {
        line.invalidate();
        buf_.probe[indexOf(&line)] = 0;
    }

    /** Update LRU on an access. */
    void
    touch(const CacheLine &line, Tick now)
    {
        buf_.lastTouch[indexOf(&line)] = now;
    }

    /** LRU timestamp of line @p idx (ties broken by way order). */
    Tick
    lastTouchOf(std::uint32_t idx) const
    {
        return buf_.lastTouch[idx];
    }

    /** Record that lines outside the journal were written (a refresh
     *  engine stamping every line's clock): a pooled array then
     *  restores every line, not just the journaled sets. */
    void markFullRestore() { fullRestore_ = true; }

    /** Count lines in a given validity predicate (tests/diagnostics). */
    std::uint32_t countValid() const;
    std::uint32_t countDirty() const;

    /** Verify the packed probe mirror against the authoritative line
     *  structs; panics on divergence.  Invariant-checker hook. */
    void checkProbeCoherence() const;

    /** Iterate every line (refresh engines, invariant checkers). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        for (std::uint32_t i = 0; i < numLines_; ++i)
            fn(i, buf_.lines[i]);
    }

    /** Iterate every line of the journaled sets, in ascending index
     *  order: a superset of the lines that can be valid. */
    template <typename Fn>
    void
    forEachTouchedLine(Fn &&fn)
    {
        forEachTouchedSet([&](std::uint32_t lo, std::uint32_t hi) {
            for (std::uint32_t i = lo; i < hi; ++i)
                fn(i, buf_.lines[i]);
        });
    }

  private:
    /** Call @p fn(lo, hi) with the flat line range of every journaled
     *  set, in ascending order. */
    template <typename Fn>
    void
    forEachTouchedSet(Fn &&fn) const
    {
        const std::uint64_t *words = buf_.touchedSets.data();
        const std::size_t n = buf_.touchedSets.size();
        for (std::size_t w = 0; w < n; ++w) {
            for (std::uint64_t m = words[w]; m != 0; m &= m - 1) {
                const auto set = static_cast<std::uint32_t>(
                    w * 64 + static_cast<unsigned>(__builtin_ctzll(m)));
                fn(set << assocShift_, (set + 1) << assocShift_);
            }
        }
    }

    /** Put every written line back in construction state and clear the
     *  journal (a pooled array, before its storage is reused). */
    void restore();

    // The access path reads the members from here to buf_; they come
    // first so they span as few cache lines as possible.

    // Precomputed address slicing (see setIndexOf).
    unsigned setShift_ = 0;
    unsigned setBits_ = 0;
    Addr setMask_ = 0;
    Addr lineMask_ = 0;
    std::uint32_t assoc_ = 1;
    unsigned assocShift_ = 0; ///< log2(assoc_): flat index -> set
    bool hashSets_ = false;

    /**
     * Lines, plus two packed per-line mirrors and the journal:
     *  - probe: (tag | 1) when valid, 0 otherwise.  Tags are
     *    line-aligned so bit 0 is free to carry validity.  Sized
     *    numLines_ + kProbePad: the pad words stay 0 forever and exist
     *    only so a vector probe may over-read the last set.
     *  - lastTouch: LRU timestamps.
     *  - touchedSets: the touched-set journal (file comment).
     */
    ArrayStorage buf_;

    CacheGeometry geom_;
    std::uint32_t numLines_;

    /** Lines outside the journal were written (markFullRestore). */
    bool fullRestore_ = false;

    /** Storage supplier, or null when the array owns its storage. */
    ArrayPool *pool_ = nullptr;
};

} // namespace refrint

#endif // REFRINT_MEM_CACHE_ARRAY_HH
