#include "mem/cache_array.hh"

#include <algorithm>

#include "mem/array_pool.hh"

namespace refrint
{

const char *
mesiName(Mesi s)
{
    switch (s) {
      case Mesi::Invalid:
        return "I";
      case Mesi::Shared:
        return "S";
      case Mesi::Exclusive:
        return "E";
      case Mesi::Modified:
        return "M";
    }
    return "?";
}

ArrayStorage::ArrayStorage(ArrayShape shape, Arena *arena)
    : lines(shape.lines, ArenaAllocator<CacheLine>(arena)),
      probe(shape.lines + kProbePad, 0, ArenaAllocator<Addr>(arena)),
      lastTouch(shape.lines, 0, ArenaAllocator<Tick>(arena)),
      touchedSets((shape.sets + 63) / 64, 0,
                  ArenaAllocator<std::uint64_t>(arena))
{
}

CacheArray::CacheArray(const CacheGeometry &geom, const char *name,
                       Arena *arena, ArrayPool *pool)
    : geom_(geom), numLines_(geom.numLines()), pool_(pool)
{
    geom_.check(name);
    // The probe word carries validity in bit 0 of the line-aligned tag.
    panicIf(geom_.lineSize < 2, "probe encoding needs lineSize >= 2");
    setShift_ = geom_.lineBits() + geom_.indexShift;
    setBits_ = geom_.setBits();
    setMask_ = geom_.numSets() - 1;
    lineMask_ = static_cast<Addr>(geom_.lineSize) - 1;
    assoc_ = geom_.assoc;
    assocShift_ = floorLog2(geom_.assoc);
    hashSets_ = geom_.hashSets;
    const ArrayShape shape = ArrayShape::of(geom_);
    buf_ = pool_ != nullptr ? pool_->take(shape)
                            : ArrayStorage(shape, arena);
}

CacheArray::~CacheArray()
{
    if (pool_ == nullptr)
        return;
    restore();
    pool_->give(ArrayShape::of(geom_), std::move(buf_));
}

void
CacheArray::restore()
{
    // Outside the journal an All-policy engine wrote refresh clocks
    // only: the whole-array fill resets those lines, and the journal
    // walk the probe words and LRU stamps of the installed ones.
    if (fullRestore_)
        std::fill(buf_.lines.begin(), buf_.lines.end(), CacheLine{});
    CacheLine *lines = buf_.lines.data();
    Addr *probe = buf_.probe.data();
    Tick *lastTouch = buf_.lastTouch.data();
    forEachTouchedSet([&](std::uint32_t lo, std::uint32_t hi) {
        if (!fullRestore_)
            std::fill(lines + lo, lines + hi, CacheLine{});
        std::fill(probe + lo, probe + hi, Addr{0});
        std::fill(lastTouch + lo, lastTouch + hi, Tick{0});
    });
    std::fill(buf_.touchedSets.begin(), buf_.touchedSets.end(), 0);
    fullRestore_ = false;
}

VictimRef
CacheArray::pickVictim(Addr addr)
{
    const std::uint32_t set = setIndexOf(addr);
    const std::uint32_t base = set * assoc_;
    // Prefer an invalid way (vector probe scan for a zero word; the
    // tail mask keeps the zero padding from matching).
    const int inv = probeFindWay(buf_.probe.data() + base, assoc_, 0);
    if (inv >= 0) {
        const std::uint32_t w = base + static_cast<std::uint32_t>(inv);
        return {&buf_.lines[w], w};
    }
    // Otherwise evict true-LRU (earliest lastTouch; way order ties).
    // Packed scan: one cache line of Ticks covers an 8-way set.
    const Tick *lt = buf_.lastTouch.data() + base;
    std::uint32_t best = 0;
    for (std::uint32_t w = 1; w < assoc_; ++w) {
        if (lt[w] < lt[best])
            best = w;
    }
    return {&buf_.lines[base + best], base + best};
}

std::uint32_t
CacheArray::countValid() const
{
    std::uint32_t n = 0;
    for (const auto &l : buf_.lines)
        n += l.state != Mesi::Invalid ? 1 : 0;
    return n;
}

std::uint32_t
CacheArray::countDirty() const
{
    std::uint32_t n = 0;
    for (const auto &l : buf_.lines)
        n += (l.state != Mesi::Invalid && l.dirty) ? 1 : 0;
    return n;
}

void
CacheArray::checkProbeCoherence() const
{
    for (std::uint32_t i = 0; i < numLines_; ++i) {
        const CacheLine &l = buf_.lines[i];
        const Addr want = l.valid() ? (l.tag | 1) : 0;
        if (buf_.probe[i] != want) {
            panic("probe mirror diverged at line %u (probe=%llx "
                  "want=%llx)",
                  i, static_cast<unsigned long long>(buf_.probe[i]),
                  static_cast<unsigned long long>(want));
        }
    }
    for (std::uint32_t i = numLines_; i < numLines_ + kProbePad; ++i) {
        if (buf_.probe[i] != 0)
            panic("probe padding word %u is nonzero", i);
    }
    // Differential check of the vector probe against the scalar
    // reference on live data: every resident word and the invalid-way
    // scan must agree, set by set.
    const std::uint32_t sets = numLines_ / assoc_;
    for (std::uint32_t s = 0; s < sets; ++s) {
        const Addr *p = buf_.probe.data() +
                        static_cast<std::size_t>(s) * assoc_;
        if (probeFindWay(p, assoc_, 0) !=
            probeFindWayScalar(p, assoc_, 0))
            panic("vector/scalar probe divergence (invalid scan, "
                  "set %u)", s);
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (p[w] == 0)
                continue;
            if (probeFindWay(p, assoc_, p[w]) !=
                probeFindWayScalar(p, assoc_, p[w]))
                panic("vector/scalar probe divergence (set %u way %u)",
                      s, w);
        }
    }
}

} // namespace refrint
