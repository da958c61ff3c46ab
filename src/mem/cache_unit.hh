/**
 * @file
 * CacheUnit: one physical cache (an L1, a private L2, or one L3 bank)
 * — the tag/state array plus port availability, access counters and the
 * optional eDRAM refresh engine attached to it.
 */

#ifndef REFRINT_MEM_CACHE_UNIT_HH
#define REFRINT_MEM_CACHE_UNIT_HH

#include <algorithm>
#include <memory>

#include "common/stats.hh"
#include "common/types.hh"
#include "edram/refresh_engine.hh"
#include "mem/cache_array.hh"

namespace refrint
{

/** Hierarchy-walk lookahead tolerated by the decay check (touchLine). */
constexpr Tick kWalkLookaheadSlack = 256;

class CacheUnit
{
  public:
    /**
     * @param stats  Shared per-level stat group: all units of a level
     *               aggregate into the same counters (the paper reports
     *               per-level energy, never per-unit).
     * @param arena  Optional recycled backing store for the tag/probe
     *               arrays (sweep workers; see common/arena.hh).
     * @param pool   Optional per-worker source of restored array
     *               storage, used instead of @p arena (array_pool.hh).
     */
    CacheUnit(const char *name, const CacheGeometry &geom,
              StatGroup &stats, Arena *arena = nullptr,
              ArrayPool *pool = nullptr)
        : latency(geom.latency), array(geom, name, arena, pool)
    {
        reads = &stats.counter("reads");
        writes = &stats.counter("writes");
        misses = &stats.counter("misses");
        fills = &stats.counter("fills");
        evictions = &stats.counter("evictions");
        backInvals = &stats.counter("back_invalidations");
        decayed = &stats.counter("decayed_hits");
    }

    CacheUnit(const CacheUnit &) = delete;
    CacheUnit &operator=(const CacheUnit &) = delete;

    /** Earliest tick at which a request arriving at @p t is served —
     *  refresh activity has priority over plain R/W requests (§4.2). */
    Tick admit(Tick t) const { return std::max(t, busyUntil); }

    /** Block the unit's port for @p cycles starting no earlier than
     *  @p now (refresh bursts, sentry interrupt service). */
    void
    addBusy(Tick now, Tick cycles)
    {
        busyUntil = std::max(busyUntil, now) + cycles;
    }

    /** Record a demand access to a resident line: LRU, WB(n,m) Count
     *  reset and the automatic line+sentry refresh.
     *
     * The decay check tolerates the hierarchy walk's synchronous
     * lookahead: an access starting at event time T0 may touch a lower
     * level at T0 + ~100 cycles, before refresh events scheduled in
     * (T0, T0+100) have fired.  Genuine refresh-engine bugs miss
     * deadlines by a whole retention period, far beyond this slack.
     */
    void
    touchLine(CacheLine &line, Tick now)
    {
        // kTickNever marks non-decaying cells (SRAM under the decay
        // comparator); the addition would wrap on it.
        if (engine != nullptr && line.dataExpiry != kTickNever &&
            line.dataExpiry + kWalkLookaheadSlack < now)
            decayed->inc();
        array.touch(line, now);
        if (engine != nullptr)
            notifyAccess(array.indexOf(&line), now);
    }

    /** Record a fresh install of @p line. */
    void
    installLine(CacheLine &line, Tick now)
    {
        array.touch(line, now);
        if (engine != nullptr)
            notifyInstall(array.indexOf(&line), now);
    }

    // Per-unit activity taps.  The shared per-level StatGroup counters
    // aggregate across all units of a level (the paper reports
    // per-level energy), but the thermal model needs *this* unit's
    // activity — so reads/writes are counted through these wrappers,
    // which also bump a local tally the thermal driver samples per
    // epoch.  Plain uint64 adds: zero cost when thermal is off.

    /** Count @p n array reads on this unit. */
    void
    noteRead(std::uint64_t n = 1)
    {
        reads->inc(n);
        accessTally += n;
    }

    /** Count one array write on this unit. */
    void
    noteWrite()
    {
        writes->inc();
        accessTally += 1;
    }

    /** Count @p n refresh-engine line refreshes on this unit. */
    void noteRefresh(std::uint64_t n = 1) { refreshTally += n; }

    /** Engine callback on a demand access, devirtualized for the two
     *  concrete engine kinds (qualified calls compile to direct,
     *  inlinable calls — this runs once or twice per reference). */
    void
    notifyAccess(std::uint32_t idx, Tick now)
    {
        switch (engine->kind()) {
          case EngineKind::Refrint:
            static_cast<RefrintEngine *>(engine)->RefrintEngine::onAccess(
                idx, now);
            break;
          case EngineKind::Periodic:
            static_cast<PeriodicEngine *>(engine)
                ->PeriodicEngine::onAccess(idx, now);
            break;
          case EngineKind::Other:
            engine->onAccess(idx, now);
            break;
        }
    }

    /** Engine callback on a line install (see notifyAccess). */
    void
    notifyInstall(std::uint32_t idx, Tick now)
    {
        switch (engine->kind()) {
          case EngineKind::Refrint:
            static_cast<RefrintEngine *>(engine)
                ->RefrintEngine::onInstall(idx, now);
            break;
          case EngineKind::Periodic:
            static_cast<PeriodicEngine *>(engine)
                ->PeriodicEngine::onInstall(idx, now);
            break;
          case EngineKind::Other:
            engine->onInstall(idx, now);
            break;
        }
    }

    // Scalars first, then the array, whose hot members lead it: the
    // access path then spans as few cache lines of the unit as
    // possible.
    Tick latency;
    Tick busyUntil = 0;

    /** Refresh engine for eDRAM configurations; null for SRAM. */
    RefreshEngine *engine = nullptr;

    /** Per-unit activity tallies (thermal model power integration). */
    std::uint64_t accessTally = 0;
    std::uint64_t refreshTally = 0;

    Counter *reads;
    Counter *writes;
    Counter *misses;
    Counter *fills;
    Counter *evictions;
    Counter *backInvals;
    /** Accesses that found a line past its data retention — must stay 0;
     *  a nonzero value indicates a refresh-engine bug. */
    Counter *decayed;

    CacheArray array;
};

} // namespace refrint

#endif // REFRINT_MEM_CACHE_UNIT_HH
