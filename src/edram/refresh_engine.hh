/**
 * @file
 * Refresh engines: the time-based half of a refresh policy.
 *
 * Both engines drive the shared data-policy decision of Fig. 4.1 against
 * a cache's line array, but differ in *when* lines are visited:
 *
 *  - PeriodicEngine visits every line once per retention period, in
 *    groups (one per CACTI sub-array, paper §5) staggered across the
 *    period.  Servicing a burst blocks the bank — the availability cost
 *    the paper attributes to periodic refresh.
 *
 *  - RefrintEngine arms a Sentry bit per line (grouped onto shared
 *    interrupt wires, §4.1) and visits a group only when its earliest
 *    sentry decays.  An access auto-refreshes line + sentry, so hot
 *    lines are never explicitly refreshed.  Each serviced line steals a
 *    single pipelined cycle with priority over plain R/W requests.
 */

#ifndef REFRINT_EDRAM_REFRESH_ENGINE_HH
#define REFRINT_EDRAM_REFRESH_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "edram/refresh_policy.hh"
#include "edram/retention.hh"
#include "mem/cache_array.hh"
#include "sim/event_queue.hh"

namespace refrint
{

/**
 * What a refresh engine needs from the cache it manages.  The cache
 * level (via the coherence hierarchy) implements the heavyweight
 * actions; the engine only makes decisions and keeps the clocks.
 */
class RefreshTarget
{
  public:
    virtual ~RefreshTarget() = default;

    virtual CacheArray &array() = 0;

    /** Charge @p count line refreshes (energy and thermal tallies).  A
     *  burst or a sentry-group service charges all of its refreshes in
     *  one call; the engine re-stamps the lines' clocks itself. */
    virtual void refreshLines(std::uint32_t count, Tick now) = 0;

    /** Write the (dirty) line back to the next level; make it clean. */
    virtual void writebackLine(std::uint32_t idx, Tick now) = 0;

    /** Invalidate the line, including upper-level copies. */
    virtual void invalidateLine(std::uint32_t idx, Tick now) = 0;

    /** Make the bank unavailable for @p cycles starting at @p now. */
    virtual void addBusy(Tick now, Tick cycles) = 0;

    virtual const char *name() const = 0;
};

/** Tunables that are microarchitectural rather than policy choices. */
struct EngineGeometry
{
    /** Refrint: sentry bits ganged per interrupt wire (1/4/16, §5). */
    std::uint32_t sentryGroupSize = 1;

    /** Periodic: number of refresh groups (CACTI sub-arrays, §5). */
    std::uint32_t periodicGroups = 4;

    /**
     * Periodic: lines refreshed per contiguous bank-blocking burst.
     * A group is served in ceil(group/burst) bursts spread evenly over
     * the group's slot of the retention period.
     */
    std::uint32_t periodicBurstLines = 256;

    /** SmartRefresh comparator: per-line timeout counter width k; the
     *  phase clock ticks 2^k times per retention period. */
    std::uint32_t smartCounterBits = 3;
};

/** Concrete engine kind, for hot-path devirtualization (CacheUnit
 *  dispatches onAccess/onInstall through a switch on this instead of a
 *  virtual call; see touchLine). */
enum class EngineKind : std::uint8_t
{
    Other = 0, ///< SmartRefresh, Decay, test doubles
    Periodic,
    Refrint,
};

/** Common interface + bookkeeping shared by the two engines. */
class RefreshEngine : public EventClient
{
  public:
    /** @p arena, when non-null, backs the engine's per-line arrays and
     *  heaps (sweep workers recycle it across scenarios); the engine
     *  must not outlive it. */
    RefreshEngine(RefreshTarget &target, const RefreshPolicy &policy,
                  const RetentionParams &retention,
                  const EngineGeometry &geom, EventQueue &eq,
                  StatGroup &stats, Arena *arena = nullptr);
    ~RefreshEngine() override = default;

    RefreshEngine(const RefreshEngine &) = delete;
    RefreshEngine &operator=(const RefreshEngine &) = delete;

    /** Begin operation (schedules the initial events). */
    virtual void start(Tick now) = 0;

    /** A line was filled into the cache at flat index @p idx. */
    virtual void onInstall(std::uint32_t idx, Tick now) = 0;

    /** A normal R/W access touched line @p idx (auto-refresh, §2). */
    virtual void onAccess(std::uint32_t idx, Tick now) = 0;

    /** End of the timed window: settle any open accounting (e.g. the
     *  decay engine's line-OFF integration). */
    virtual void finish(Tick now) { (void)now; }

    /**
     * Set the effective retention to nominal x @p factor (temperature
     * update from the thermal driver, src/thermal/).
     *
     * Every line clock and every pending engine deadline is rescaled
     * *affinely around @p now*: a stamp t becomes now + (t - now) * rho,
     * where rho is the ratio of new to old retention.  Because a line's
     * expiry is never earlier than the engine visit that will renew it,
     * the affine map preserves that ordering in both directions —
     * warming compresses both towards now, cooling stretches both — so
     * no line can decay across a retention change.  Physically the map
     * models the remaining charge lifetime contracting or dilating with
     * temperature.
     *
     * The effective retention is floored at twice the sentry margin so
     * a pathological temperature can never consume the entire period.
     *
     * @return true if the effective retention actually changed.
     */
    bool setRetentionScale(double factor, Tick now);

    const RefreshPolicy &policy() const { return policy_; }

    /** Concrete kind for devirtualized hot-path dispatch. */
    EngineKind kind() const { return kind_; }

  protected:
    /** Run the Fig. 4.1 decision for @p idx and apply the outcome.
     *  @return true if the line remains alive (was refreshed / WB'd). */
    bool visitLine(std::uint32_t idx, Tick now);

    /** Line @p idx's own data retention (per-line under variation). */
    Tick
    cellRetentionOf(std::uint32_t idx) const
    {
        return lineRetention_.empty() ? cellRetention_
                                      : lineRetention_[idx];
    }

    /** Line @p idx's sentry retention: its cell retention minus the
     *  global firing margin (§4.1).  The margin is an interrupt-service
     *  bound in cycles, so it does *not* scale with temperature — a hot
     *  bank keeps the same absolute lead time on a shorter period. */
    Tick
    sentryRetentionOf(std::uint32_t idx) const
    {
        const Tick cell = cellRetentionOf(idx);
        return cell > margin_ ? cell - margin_ : 1;
    }

    /** Stamp fresh retention clocks on line @p idx.  The sentry clock
     *  lives only in the engine's packed mirror (engines without one —
     *  Periodic, SmartRefresh, Decay — never read it). */
    void
    renewClocks(std::uint32_t idx, CacheLine &line, Tick now)
    {
        line.dataExpiry = now + cellRetentionOf(idx);
        if (sentryMirror_ != nullptr)
            sentryMirror_[idx] = now + sentryRetentionOf(idx);
    }

    /** Hook for engines to reshape their visit schedule after a
     *  retention rescale; line clocks are already re-stamped.  @p rho
     *  is newRetention / oldRetention. */
    virtual void
    onRetentionRescaled(double rho, Tick now)
    {
        (void)rho;
        (void)now;
    }

    RefreshTarget &target_;
    CacheArray &arr_; ///< target_.array(), cached (no virtual dispatch)
    RefreshPolicy policy_;
    EngineGeometry geom_;
    EventQueue &eq_;
    EngineKind kind_ = EngineKind::Other; ///< set by concrete ctors

    /** Optional dense mirror of line.sentryExpiry, one Tick per flat
     *  index, kept in lockstep by renewClocks()/setRetentionScale().
     *  Engines that scan sentry deadlines on their hot path (Refrint)
     *  point this at their own packed array so the scan touches dense
     *  Ticks instead of striding CacheLine structs. */
    Tick *sentryMirror_ = nullptr;

    Tick cellRetention_;   ///< current (possibly thermally rescaled)
    Tick sentryRetention_; ///< current cellRetention_ - margin_
    Tick nominalCell_;     ///< retention at the reference temperature
    Tick margin_;          ///< sentry firing margin, absolute cycles
    bool warnedFloor_ = false;

    /** Per-line retention draws; empty when variation is disabled.
     *  lineRetention_ holds the current (scaled) periods, the nominal
     *  draws are kept for exact rescaling. */
    ArenaVector<Tick> lineRetention_;
    ArenaVector<Tick> nominalLineRetention_;

    Counter *refreshes_; ///< individual line refreshes performed
    Counter *wbs_;       ///< refresh-triggered write-backs
    Counter *invals_;    ///< refresh-triggered invalidations
    Counter *skips_;     ///< deadline visits that did nothing
    Counter *visits_;    ///< total line visits at deadlines
};

/** Trivial periodic time policy (baseline, Table 3.1). */
class PeriodicEngine : public RefreshEngine
{
  public:
    PeriodicEngine(RefreshTarget &target, const RefreshPolicy &policy,
                   const RetentionParams &retention,
                   const EngineGeometry &geom, EventQueue &eq,
                   StatGroup &stats, Arena *arena = nullptr);

    void start(Tick now) override;

    /** Inline: called once or twice per memory reference. */
    void
    onInstall(std::uint32_t idx, Tick now) override
    {
        CacheLine &line = arr_.lineAt(idx);
        // The fill writes the cells: full (per-line) retention from
        // now.  The periodic schedule guarantees a visit in-period.
        line.dataExpiry = now + cellRetentionOf(idx);
        noteAccess(policy_, line);
    }

    void
    onAccess(std::uint32_t idx, Tick now) override
    {
        CacheLine &line = arr_.lineAt(idx);
        line.dataExpiry = now + cellRetentionOf(idx);
        noteAccess(policy_, line);
    }

    void fire(Tick now, std::uint64_t tag) override;

  protected:
    /** Reschedule every burst at its phase position compressed (or
     *  stretched) to the new period under a new generation; the
     *  superseded schedule's events fire as no-ops. */
    void onRetentionRescaled(double rho, Tick now) override;

  private:
    /** Schedule burst @p k's next wake at burstNext_[k]. */
    void scheduleBurst(std::uint32_t k);

    /** Prefetch what burst @p k will read and write (see fire()). */
    void prefetchBurst(std::uint32_t k) const;

    std::uint32_t linesPerBurst_;
    std::uint32_t numBursts_;
    ArenaVector<Tick> burstNext_;  ///< next firing time per burst
    /** Schedule generation, carried in the high 32 bits of every burst
     *  event's tag (the burst index is the low 32): a rescale bumps
     *  it, so the events of the schedule it replaced are stale. */
    std::uint32_t generation_ = 0;
    bool started_ = false;

    Counter *bursts_;
};

/** Refrint sentry-interrupt time policy (the paper's proposal). */
class RefrintEngine : public RefreshEngine
{
  public:
    RefrintEngine(RefreshTarget &target, const RefreshPolicy &policy,
                  const RetentionParams &retention,
                  const EngineGeometry &geom, EventQueue &eq,
                  StatGroup &stats, Arena *arena = nullptr);

    void start(Tick now) override;

    /** Inline: called once or twice per memory reference.  An access
     *  automatically refreshes line + sentry (§3.2) — push the clocks
     *  out; the group's heap node, if any, re-keys itself lazily when
     *  it reaches the top. */
    void
    onInstall(std::uint32_t idx, Tick now) override
    {
        CacheLine &line = arr_.lineAt(idx);
        renewClocks(idx, line, now);
        noteAccess(policy_, line);
        const std::uint32_t g = groupOf(idx);
        if (!heap_.contains(g)) {
            armGroup(g, sentryM_[idx]);
            maybeSchedule();
        }
    }

    void
    onAccess(std::uint32_t idx, Tick now) override
    {
        onInstall(idx, now); // identical bookkeeping (§3.2 auto-refresh)
    }

    void fire(Tick now, std::uint64_t tag) override;

  protected:
    /** Re-arm every armed group at its (re-stamped) deadline and wake
     *  for the new heap top. */
    void onRetentionRescaled(double rho, Tick now) override;

  private:
    /**
     * Indexed min-heap of armed sentry groups, keyed by expiry.  Each
     * group owns at most one node (a position index supports in-place
     * re-keying), so superseded deadlines never linger as dead heap
     * slots the way stamped duplicate entries used to.  Flat 16-ary
     * sift over SoA storage: re-keying the root (the common operation —
     * every serviced or access-renewed group) walks log16 rungs, each a
     * packed one-or-two-cache-line key scan.
     */
    class GroupHeap
    {
      public:
        explicit GroupHeap(Arena *arena = nullptr)
            : expiry_(ArenaAllocator<Tick>(arena)),
              group_(ArenaAllocator<std::uint32_t>(arena)),
              pos_(ArenaAllocator<std::uint32_t>(arena))
        {
        }

        void
        reset(std::uint32_t numGroups)
        {
            expiry_.clear();
            expiry_.reserve(numGroups);
            group_.clear();
            group_.reserve(numGroups);
            pos_.assign(numGroups, kAbsent);
        }

        bool empty() const { return expiry_.empty(); }
        bool contains(std::uint32_t g) const { return pos_[g] != kAbsent; }
        Tick topExpiry() const { return expiry_.front(); }
        std::uint32_t topGroup() const { return group_.front(); }

        /** Insert group @p g or move its existing node to @p expiry. */
        void arm(std::uint32_t g, Tick expiry);

        /** Remove the minimum node (heap must be non-empty). */
        void popTop();

        /** Remove group @p g's node if present. */
        void remove(std::uint32_t g);

      private:
        static constexpr std::uint32_t kAbsent = 0xffffffffu;

        void siftUp(std::size_t i);
        void siftDown(std::size_t i);

        // SoA node storage: the sift comparisons scan the packed key
        // array (16 children = two cache lines); group ids ride along.
        ArenaVector<Tick> expiry_;
        ArenaVector<std::uint32_t> group_;
        ArenaVector<std::uint32_t> pos_; ///< group -> node index
    };

    /** First line of sentry group @p g. */
    std::uint32_t
    groupBase(std::uint32_t g) const
    {
        return g * geom_.sentryGroupSize;
    }

    std::uint32_t
    groupOf(std::uint32_t idx) const
    {
        return idx / geom_.sentryGroupSize;
    }

    /**
     * Earliest sentry expiry among the group's policy-relevant lines,
     * or kTickNever if the group has nothing to watch.
     */
    Tick groupDeadline(std::uint32_t g) const;

    /** Arm (or re-key) group @p g at @p deadline. */
    void armGroup(std::uint32_t g, Tick deadline);

    /** Make sure an event is scheduled for the heap top. */
    void maybeSchedule();

    /** Prefetch the words and lines group @p g's next wake reads. */
    void prefetchGroup(std::uint32_t g) const;

    std::uint32_t numGroups_;
    GroupHeap heap_;
    ArenaVector<Tick> sentryM_; ///< packed sentry expiries (mirror)
    /** Tick of the one wake the engine acts on; a wake at any other
     *  tick was superseded (by an earlier arm or a rescale) and
     *  returns at once. */
    Tick scheduledAt_ = kTickNever;

    Counter *interrupts_; ///< sentry interrupts serviced (groups)
};

/** Factory covering every timing policy (including the SmartRefresh
 *  comparator, which lives in related/smart_refresh.hh). */
std::unique_ptr<RefreshEngine>
makeRefreshEngine(RefreshTarget &target, const RefreshPolicy &policy,
                  const RetentionParams &retention,
                  const EngineGeometry &geom, EventQueue &eq,
                  StatGroup &stats, Arena *arena = nullptr);

/** Implemented in related/smart_refresh.cc; kept behind a factory so
 *  the edram module does not include related/ headers. */
std::unique_ptr<RefreshEngine>
makeSmartRefreshEngine(RefreshTarget &target, const RefreshPolicy &policy,
                       const RetentionParams &retention,
                       const EngineGeometry &geom, EventQueue &eq,
                       StatGroup &stats);

} // namespace refrint

#endif // REFRINT_EDRAM_REFRESH_ENGINE_HH
