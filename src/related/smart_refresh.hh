/**
 * @file
 * SmartRefresh comparator (Ghosh & Lee, MICRO 2007; paper §7).
 *
 * SmartRefresh attaches a small k-bit timeout counter to every line and
 * divides the retention period into 2^k phases driven by a coarse global
 * clock.  A normal read or write resets the line's counter; the refresh
 * controller polls at phase boundaries and refreshes only lines whose
 * counter is about to run out — avoiding the redundant refreshes of
 * recently-accessed lines that a plain periodic scheme performs.
 *
 * Relative to Refrint this needs no analog Sentry cell, but pays two
 * costs the paper's proposal avoids: (a) the counter quantizes time at
 * T/2^k, so a line is refreshed up to one phase early, and (b) the
 * controller must *scan* counters every phase even when nothing needs
 * refreshing.  The engine composes with all data policies so it can be
 * compared head-to-head against Periodic and Refrint in the
 * related-work bench.
 */

#ifndef REFRINT_RELATED_SMART_REFRESH_HH
#define REFRINT_RELATED_SMART_REFRESH_HH

#include <cstdint>

#include "edram/refresh_engine.hh"

namespace refrint
{

class SmartRefreshEngine : public RefreshEngine
{
  public:
    /** The per-line timeout counter is k = geom.smartCounterBits wide;
     *  the global phase clock ticks 2^k times per retention period
     *  (Ghosh & Lee use 3 bits). */
    SmartRefreshEngine(RefreshTarget &target, const RefreshPolicy &policy,
                       const RetentionParams &retention,
                       const EngineGeometry &geom, EventQueue &eq,
                       StatGroup &stats);

    void start(Tick now) override;
    void onInstall(std::uint32_t idx, Tick now) override;
    void onAccess(std::uint32_t idx, Tick now) override;

    void fire(Tick now, std::uint64_t tag) override;

  private:
    /** Stamp a full-retention deadline on line @p idx. */
    void
    renew(std::uint32_t idx, CacheLine &line, Tick now)
    {
        line.dataExpiry = now + cellRetentionOf(idx);
    }

    Tick phaseLen_;

    Counter *phaseScans_; ///< phase-boundary counter scans performed
};

} // namespace refrint

#endif // REFRINT_RELATED_SMART_REFRESH_HH
