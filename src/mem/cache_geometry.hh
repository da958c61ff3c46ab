/**
 * @file
 * Cache geometry: size/associativity/line-size and the address slicing
 * derived from them.  Mirrors the per-level parameters of Table 5.1.
 */

#ifndef REFRINT_MEM_CACHE_GEOMETRY_HH
#define REFRINT_MEM_CACHE_GEOMETRY_HH

#include <cstdint>
#include <string>

#include "common/log.hh"
#include "common/types.hh"

namespace refrint
{

/** Static shape of one cache (or one bank of a banked cache). */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 0;
    std::uint32_t assoc = 1;
    std::uint32_t lineSize = 64;

    /** Access latency in cycles (Table 5.1: L1 1, L2 2, L3 4). */
    Tick latency = 1;

    /**
     * Address bits to skip between the line offset and the set index.
     * Banked caches (the L3) consume log2(numBanks) bits to pick the
     * home bank; the per-bank set index must come from the bits above
     * them or every bank would only ever see 1/numBanks of its sets.
     */
    unsigned indexShift = 0;

    /**
     * XOR-fold every setBits-wide address window above the set window
     * into the set index (a standard LLC index hash).  Without it,
     * regions that different cores allocate at large power-of-two
     * strides alias into identical sets and a 16-core machine thrashes
     * 8-way sets systematically — an artifact no physically-indexed
     * machine with page-granular allocation exhibits.  Enabled for the
     * shared L3; private L1/L2 use straight indexing as real cores do.
     */
    bool hashSets = false;

    std::uint32_t
    numLines() const
    {
        return static_cast<std::uint32_t>(sizeBytes / lineSize);
    }

    std::uint32_t numSets() const { return numLines() / assoc; }

    unsigned lineBits() const { return floorLog2(lineSize); }
    unsigned setBits() const { return floorLog2(numSets()); }

    /** Line-aligned address. */
    Addr
    lineAddr(Addr a) const
    {
        return a & ~static_cast<Addr>(lineSize - 1);
    }

    /** Set index for @p a. */
    std::uint32_t
    setIndex(Addr a) const
    {
        const unsigned shift = lineBits() + indexShift;
        const std::uint32_t mask = numSets() - 1;
        Addr idx = a >> shift;
        if (hashSets) {
            Addr folded = 0;
            const unsigned sb = setBits();
            for (Addr v = idx; v != 0; v >>= sb)
                folded ^= v;
            idx = folded;
        }
        return static_cast<std::uint32_t>(idx & mask);
    }


    /** Tag for @p a (we keep full line addresses as tags for clarity). */
    Addr tagOf(Addr a) const { return lineAddr(a); }

    /** Power-of-two line size, associativity and set count, and a
     *  size that is a whole number of sets. */
    bool
    valid() const
    {
        return isPowerOfTwo(lineSize) && isPowerOfTwo(assoc) &&
               sizeBytes != 0 && isPowerOfTwo(numSets()) &&
               sizeBytes % (std::uint64_t{lineSize} * assoc) == 0;
    }

    /** Fatal unless valid(); call once at construction time. */
    void
    check(const char *name) const
    {
        if (!valid())
            fatal("bad cache geometry for %s: size=%llu assoc=%u line=%u",
                  name, static_cast<unsigned long long>(sizeBytes), assoc,
                  lineSize);
    }
};

} // namespace refrint

#endif // REFRINT_MEM_CACHE_GEOMETRY_HH
