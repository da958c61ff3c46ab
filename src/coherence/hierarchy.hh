/**
 * @file
 * The coherent three-level CMP memory hierarchy (paper Table 5.1):
 * per-core IL1/DL1/L2, a banked shared inclusive LLC with a full-map
 * directory MESI protocol, a square-torus interconnect and off-chip
 * DRAM.
 *
 * The machine is built from a MachineConfig's level descriptors: the
 * constructor iterates cfg.levels, instantiating one CacheUnit per
 * core for private levels and one per bank for the shared LLC, and
 * wiring refresh engines and thermal nodes per descriptor.  The MESI
 * walk itself resolves role handles (IL1/DL1/L2/LLC) out of the
 * descriptor set once at construction, so the hot path pays nothing
 * for the generality.
 *
 * The simulator is state-accurate and timing-approximate: a memory
 * reference walks the hierarchy synchronously, updating all cache and
 * directory state and accumulating latency (cache latencies, torus
 * hops, DRAM, and refresh-induced port blocking).  Refresh engines run
 * on the shared event queue and interact with the hierarchy through
 * RefreshTarget adapters — a refresh-triggered invalidation at the
 * LLC, for example, back-invalidates upper-level copies exactly like
 * an LLC eviction does (§3.1: inclusivity).
 */

#ifndef REFRINT_COHERENCE_HIERARCHY_HH
#define REFRINT_COHERENCE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coherence/hierarchy_config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram.hh"
#include "mem/cache_unit.hh"
#include "net/torus.hh"
#include "sim/event_queue.hh"
#include "thermal/thermal_model.hh"

namespace refrint
{

/** Kind of access issued by a core. */
enum class AccessType : std::uint8_t
{
    Load = 0,
    Store,
    Fetch, ///< instruction fetch (IL1 path)
};

/** Aggregated counts the energy model consumes. */
struct HierarchyCounts
{
    std::uint64_t l1Reads = 0, l1Writes = 0, l1Refreshes = 0;
    std::uint64_t l2Reads = 0, l2Writes = 0, l2Refreshes = 0;
    std::uint64_t l3Reads = 0, l3Writes = 0, l3Refreshes = 0;
    std::uint64_t dramAccesses = 0;
    std::uint64_t netHops = 0, netDataMsgs = 0, netCtrlMsgs = 0;
    std::uint64_t l3Misses = 0, l2Misses = 0, dl1Misses = 0;
    std::uint64_t refreshWritebacks = 0, refreshInvalidations = 0;
    std::uint64_t decayedHits = 0;

    /** Cache-decay comparator: integrated line-OFF time (ticks x lines)
     *  per level; zero unless decay is enabled on an SRAM machine. */
    double l2OffLineTicks = 0, l3OffLineTicks = 0;
};

class Hierarchy
{
  public:
    /** @p arena, when non-null, backs the cache arrays and refresh
     *  engine heaps (a sweep worker recycles it between scenarios; see
     *  common/arena.hh).  @p pool, when non-null, supplies the cache
     *  arrays' storage instead and gets it back restored
     *  (mem/array_pool.hh).  The hierarchy must not outlive either. */
    Hierarchy(const MachineConfig &cfg, EventQueue &eq,
              Arena *arena = nullptr, ArrayPool *pool = nullptr);
    ~Hierarchy();

    Hierarchy(const Hierarchy &) = delete;
    Hierarchy &operator=(const Hierarchy &) = delete;

    /** Begin refresh/decay operation (no-op for plain SRAM). */
    void start(Tick now);

    /** Settle engine accounting at the end of the timed window. */
    void finishEngines(Tick now);

    /**
     * Perform one memory access for core @p c starting at @p now.
     * @param blocks  For Fetch: number of 4-instruction fetch blocks to
     *                charge to IL1 dynamic energy (one array probe is
     *                simulated either way).
     * @return completion tick.
     */
    Tick access(CoreId c, Addr a, AccessType type, Tick now,
                std::uint32_t blocks = 1);

    /** Charge the end-of-run write-back of all dirty data (§6).  Walks
     *  only the arrays' touched sets (cache_array.hh). */
    void flushDirty();

    /** Verify inclusion/directory/retention invariants; panics on
     *  violation.  Used by the property tests. */
    void checkInvariants(Tick now) const;

    const MachineConfig &config() const { return cfg_; }

    HierarchyCounts counts() const;

    /** Dump all named stats (tests, reporting). */
    void dumpStats(std::map<std::string, double> &out) const;

    // --- component access for tests and diagnostics ---
    CacheUnit &il1(CoreId c) { return *il1s_[c]; }
    CacheUnit &dl1(CoreId c) { return *dl1s_[c]; }
    CacheUnit &l2(CoreId c) { return *l2s_[c]; }
    CacheUnit &l3Bank(std::uint32_t b) { return *l3s_[b]; }
    Dram &dram() { return dram_; }
    TorusNetwork &network() { return net_; }
    std::uint32_t numBanks() const { return cfg_.numBanks; }

    /** Thermal driver, or null when the subsystem is disabled. */
    const ThermalDriver *thermal() const { return thermal_.get(); }

    /** Home LLC bank of address @p a (static interleaving, §5).
     *  Shift and mask are precomputed: this sits on the access path
     *  several times per reference and the geometry would otherwise
     *  recompute log2(lineSize) and a modulo on each call.  Non-power-
     *  of-two bank counts keep the modulo. */
    std::uint32_t
    bankOf(Addr a) const
    {
        const Addr idx = a >> bankShift_;
        return static_cast<std::uint32_t>(
            bankMask_ != 0 ? idx & bankMask_ : idx % cfg_.numBanks);
    }

    // --- refresh actions, shared with the RefreshTarget adapters ---

    /** Refresh-triggered write-back of a dirty LLC line to DRAM. */
    void l3RefreshWriteback(std::uint32_t bank, std::uint32_t idx,
                            Tick now);

    /** Refresh-triggered invalidation of an LLC line (back-invalidates
     *  every upper-level copy; rescues Modified data to DRAM). */
    void l3RefreshInvalidate(std::uint32_t bank, std::uint32_t idx,
                             Tick now);

    /** Refresh-triggered write-back of a dirty private-L2 line. */
    void l2RefreshWriteback(CoreId c, std::uint32_t idx, Tick now);

    /** Refresh-triggered invalidation of a private L1/L2 line. */
    void upperRefreshInvalidate(CacheUnit &unit, CoreId c,
                                std::uint32_t idx, Tick now);

  private:
    /** One constructed level: the descriptor it was built from, its
     *  per-level demand StatGroup and its units (per core for private
     *  levels, per bank for the shared LLC). */
    struct Level
    {
        const CacheLevelSpec *spec;
        std::unique_ptr<StatGroup> stats;
        StatGroup *refreshStats; ///< shared per role class (L1/L2/L3)
        std::vector<std::unique_ptr<CacheUnit>> units;
    };

    /** One-line helpers over the directory bitmask. */
    static bool
    hasSharer(const CacheLine &l, CoreId c)
    {
        return (l.sharers >> c) & 1u;
    }

    void buildUnits();
    void buildRefreshEngines();
    void buildDecayEngines();
    void buildThermal();

    const Level &levelOf(LevelRole r) const;

    /** LLC miss: evict a victim, fetch from DRAM, install.  Advances
     *  @p t past the DRAM access. */
    CacheLine *l3MissFill(std::uint32_t bank, Addr a, Tick &t);

    /** Evict/invalidate an LLC line: back-invalidate all upper copies,
     *  rescue dirty data to DRAM. */
    void dropL3Line(std::uint32_t bank, CacheLine &line, Tick now,
                    bool refreshCaused);

    /** Fetch Modified data from the owning L2 into the LLC (read path:
     *  downgrade to Shared; write path: invalidate).  Returns added
     *  latency on the requester's critical path. */
    Tick ownerIntervention(std::uint32_t bank, CacheLine &line, Tick t,
                           bool invalidateOwner);

    /** Invalidate every sharer except @p except; returns the max
     *  invalidation round-trip latency (acks are collected at the
     *  directory before the write is granted). */
    Tick invalidateSharers(std::uint32_t bank, CacheLine &line,
                           CoreId except, Tick t);

    /** Remove one core's private copies (L2 + both L1s) of @p a. */
    void invalidatePrivateCopies(CoreId c, Addr a, bool countBackInval);

    /** Install @p a into core @p c's L2 with state @p st. */
    CacheLine *l2Fill(CoreId c, Addr a, Mesi st, Tick now);

    /** Install @p a into an L1 (clean, Shared-as-valid). */
    void l1Fill(CacheUnit &l1, Addr a, Tick now);

    /** Handle eviction of a valid L2 victim (write-back + dir update). */
    void evictL2Victim(CoreId c, CacheLine &victim, Tick now);

    MachineConfig cfg_;
    EventQueue &eq_;
    Arena *arena_ = nullptr; ///< optional recycled backing store
    ArrayPool *pool_ = nullptr; ///< optional recycled array storage

    /** Precomputed bankOf() slicing; mask 0 = non-power-of-two bank
     *  count, fall back to modulo. */
    unsigned bankShift_ = 0;
    Addr bankMask_ = 0;

    /** LLC bank geometry, copied out of the descriptor for the hot
     *  access path (line alignment, index math). */
    CacheGeometry llcGeom_;

    /** Refresh engines exist (the LLC is eDRAM). */
    bool refreshAtLlc_ = false;

    StatGroup netStats_{"net"}, dramStats_{"dram"},
        refreshL1Stats_{"refresh.l1"}, refreshL2Stats_{"refresh.l2"},
        refreshL3Stats_{"refresh.l3"}, thermalStats_{"thermal"};

    /** Constructed levels, in descriptor order. */
    std::vector<Level> levels_;

    /** Non-owning role views into levels_ for the protocol hot path. */
    std::vector<CacheUnit *> il1s_, dl1s_, l2s_, l3s_;
    const Level *il1L_ = nullptr, *dl1L_ = nullptr, *l2L_ = nullptr,
                *llcL_ = nullptr;

    TorusNetwork net_;
    Dram dram_;

    struct TargetAdapter;
    std::vector<std::unique_ptr<TargetAdapter>> targets_;
    std::vector<std::unique_ptr<RefreshEngine>> engines_;
    std::unique_ptr<ThermalDriver> thermal_;
};

} // namespace refrint

#endif // REFRINT_COHERENCE_HIERARCHY_HH
