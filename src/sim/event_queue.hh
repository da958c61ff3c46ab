/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global-ordered queue of (tick, sequence) entries.  Every
 * event is an EventClient callback: a component derives from
 * EventClient and schedules itself with a tag, so an entry is a
 * (client, tag) pair and dispatch never touches a std::function.
 * Sequence numbers break ties so simultaneous events fire in
 * scheduling order, which makes runs fully deterministic.
 *
 * step() is the only dispatch loop: the simulator calls it directly,
 * and run() is nothing more than step() repeated, so every test that
 * drives run() drives the loop production runs.
 *
 * Hot-path layout, three bands by time-to-fire:
 *
 *  - Wheel (due within kWheelSize ticks): a 256-slot timing wheel —
 *    one bucket per tick of the sliding window [base_, base_+255], a
 *    four-word occupancy mask, O(1) admission and dispatch.  Core-like
 *    clients reschedule a handful of ticks out, and sentry re-arms and
 *    miss completions land within a few hundred, so the dominant event
 *    population never touches a comparison sort at all; per-event cost
 *    is flat in the client count (the 4-ary heap's sift depth grew
 *    with the core count, which is why a 32-core machine used to
 *    dispatch slower than a 16-core one).
 *
 *  - Heap (due within kFarHorizon): a flat 4-ary implicit heap, split
 *    SoA-style into 16-byte ordering keys (tick, seq) and 16-byte
 *    payloads so sift comparisons scan packed keys only.  Entries
 *    migrate heap -> wheel in pop order when the window slides over
 *    them, which preserves the (when, seq) total order.
 *
 *  - Far band (beyond kFarHorizon): unsorted, O(1) admission, batch
 *    promotion into the heap, keeping the heap at core-count scale
 *    instead of holding every retention deadline.
 *
 * There is no cancellation: a client that supersedes one of its wakes
 * recognises the stale one when it fires and returns (DESIGN.md
 * "Superseded wakes").
 *
 * Ordering invariants the wheel maintains (see DESIGN.md "Kernel
 * round 2"):
 *  - every bucket holds entries of exactly one absolute tick, kept
 *    seq-sorted: fresh admissions always carry the largest seq so far
 *    (append), and heap migrations arrive in heap pop order (a rare
 *    backward insert positions an old-seq migrant before same-tick
 *    fresh entries);
 *  - the window only moves onto a tick that step() then dispatches, so
 *    base_ == now_ whenever user code runs or step() returns, and a
 *    schedule() can never target a bucket behind the window.
 */

#ifndef REFRINT_SIM_EVENT_QUEUE_HH
#define REFRINT_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>

#include "common/arena.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace refrint
{

/** Interface for components that receive scheduled callbacks. */
class EventClient
{
  public:
    virtual ~EventClient() = default;

    /**
     * Called when a scheduled event fires.
     * @param now   The current simulation tick.
     * @param tag   The tag passed at schedule time (dispatch aid for
     *              clients with several event kinds).
     */
    virtual void fire(Tick now, std::uint64_t tag) = 0;
};

/**
 * The global event queue.  Not thread-safe by design: the entire
 * simulation is a single deterministic thread.
 */
class EventQueue
{
  public:
    /** @p arena, when non-null, backs the kernel's bands so a worker
     *  can recycle them across runs (common/arena.hh). */
    explicit EventQueue(Arena *arena = nullptr)
        : keys_(ArenaAllocator<Key>(arena)),
          vals_(ArenaAllocator<Val>(arena)),
          far_(ArenaAllocator<Entry>(arena))
    {
        for (auto &b : wheel_)
            b = ArenaVector<Entry>(ArenaAllocator<Entry>(arena));
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Schedule @p client->fire(when, tag); @p when must be >= now(). */
    void
    schedule(Tick when, EventClient *client, std::uint64_t tag = 0)
    {
        panicIf(when < now_, "event scheduled in the past");
        admit(Key{when, nextSeq()}, Val{client, tag});
        ++pending_;
    }

    /** Current simulation time (last dispatched event's tick). */
    Tick now() const { return now_; }

    /** Pending events. */
    bool empty() const { return pending_ == 0; }
    std::size_t size() const { return pending_; }

    /**
     * Dispatch the single earliest event if it is due at or before
     * @p limit (an event at exactly @p limit still fires).  The
     * kernel's only dispatch loop; inline, since it is the simulation's
     * main loop.
     * @return false, dispatching nothing, when no event is due by
     * @p limit; later events stay pending for the next call.
     */
    bool
    step(Tick limit = kTickNever)
    {
        for (;;) {
            const ArenaVector<Entry> &b = bucketOf(base_);
            if (pos_ < b.size()) {
                const Entry e = b[pos_]; // copy: fire() may grow b
                if (e.key.when > limit)
                    return false;
                ++pos_;
                dispatch(e.key, e.val);
                return true;
            }
            if (!prepareNext(limit))
                return false;
        }
    }

    /**
     * step(@p limit) until it returns false: until the queue drains or
     * the next event lies past @p limit.
     * @return the final simulation time.
     */
    Tick
    run(Tick limit = kTickNever)
    {
        while (step(limit)) {
        }
        return now_;
    }

  private:
    /** Ordering key, 16 bytes: four keys per cache line, so the sift
     *  children scans touch a single line per rung. */
    struct Key
    {
        Tick when;
        std::uint32_t seq; ///< tie-break: scheduling order

        bool
        before(const Key &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** Dispatch payload, 16 bytes; moved alongside its key but never
     *  read during sift comparisons. */
    struct Val
    {
        EventClient *client;
        std::uint64_t tag;
    };

    /** Wheel-bucket / far-band entry (unsorted storage; never sifted). */
    struct Entry
    {
        Key key;
        Val val;
    };

    static constexpr std::uint32_t kSeqLimit = 0xfffffff0u;

    /** Timing-wheel geometry: one bucket per tick of the sliding
     *  window [base_, base_ + kWheelMask].  256 slots cover the
     *  few-tick core reschedules and also the 64-255-tick band where a
     *  third of a refresh-heavy run's admissions land (sentry re-arms,
     *  miss completions; DESIGN.md "Kernel round 2"); the occupancy
     *  mask is four words. */
    static constexpr unsigned kWheelSize = 256;
    static constexpr Tick kWheelMask = kWheelSize - 1;
    static constexpr unsigned kOccWords = kWheelSize / 64;

    /**
     * Horizon splitting the heap from the far band.  Entries due within
     * the horizon (but beyond the wheel) go to the near heap; later
     * ones sit in an unsorted far band (O(1) admission) and are
     * promoted in batches when the heap would otherwise run past them.
     * Keeping the heap small — imminent refresh wakes, not every
     * retention deadline tens of thousands of ticks out — makes every
     * sift touch two or three rungs instead of five.
     */
    static constexpr Tick kFarHorizon = 4096;

    std::uint32_t
    nextSeq()
    {
        panicIf(seq_ >= kSeqLimit, "event sequence space exhausted");
        return seq_++;
    }

    ArenaVector<Entry> &bucketOf(Tick t) { return wheel_[t & kWheelMask]; }

    /** Route a new entry to the wheel, the near heap or the far band.
     *  Outside step() base_ == now_, and schedule() admits no when
     *  before now_, so `when - base_` cannot underflow. */
    void
    admit(const Key &k, const Val &v)
    {
        if (k.when >= now_ + kFarHorizon) {
            far_.push_back(Entry{k, v});
            if (k.when < farMin_)
                farMin_ = k.when;
        } else if (k.when - base_ < kWheelSize) {
            bucketInsert(k, v);
        } else {
            push(k, v);
        }
    }

    /**
     * Insert into the bucket of k.when, keeping the bucket seq-sorted.
     * Fresh admissions always carry the largest seq yet, so the append
     * fast path covers them; only heap->wheel migrants (admitted long
     * ago, hence smaller seq than same-tick fresh entries) take the
     * backward walk, and never into the consumed prefix of the current
     * bucket (migration only happens at a window move, pos_ == 0).
     */
    void
    bucketInsert(const Key &k, const Val &v)
    {
        ArenaVector<Entry> &b = bucketOf(k.when);
        markOccupied(static_cast<unsigned>(k.when & kWheelMask));
        if (b.empty() || b.back().key.seq < k.seq) {
            b.push_back(Entry{k, v});
            return;
        }
        auto it = b.end();
        while (it != b.begin() && (it - 1)->key.seq > k.seq)
            --it;
        b.insert(it, Entry{k, v});
    }

    /** 4-ary implicit heap: children of i are 4i+1 .. 4i+4.  Sifts use
     *  a hole (move parents/children over it, place the element once);
     *  comparisons read only the packed key array. */
    void
    push(const Key &k, const Val &v)
    {
        keys_.push_back(k); // grow; the value is re-placed below
        vals_.push_back(v);
        std::size_t i = keys_.size() - 1;
        while (i != 0) {
            const std::size_t parent = (i - 1) >> 2;
            if (!k.before(keys_[parent]))
                break;
            keys_[i] = keys_[parent];
            vals_[i] = vals_[parent];
            i = parent;
        }
        keys_[i] = k;
        vals_[i] = v;
    }

    /** Remove the top entry (heap must be non-empty). */
    void
    popTop()
    {
        const Key movedK = keys_.back();
        const Val movedV = vals_.back();
        keys_.pop_back();
        vals_.pop_back();
        const std::size_t n = keys_.size();
        if (n == 0)
            return;
        std::size_t i = 0;
        for (;;) {
            const std::size_t base = (i << 2) + 1;
            if (base >= n)
                break;
            std::size_t best = base;
            const std::size_t end = base + 4 < n ? base + 4 : n;
            for (std::size_t c = base + 1; c < end; ++c) {
                if (keys_[c].before(keys_[best]))
                    best = c;
            }
            if (!keys_[best].before(movedK))
                break;
            keys_[i] = keys_[best];
            vals_[i] = vals_[best];
            i = best;
        }
        keys_[i] = movedK;
        vals_[i] = movedV;
    }

    /**
     * The current bucket is exhausted: retire it and slide the window
     * to the earliest pending tick anywhere in the kernel (wheel,
     * heap, or far band), migrating heap entries that fall inside the
     * new window into their buckets.  Commits nothing past @p limit.
     * @return false when there is nothing to dispatch at or before
     * @p limit (base_ is then left unmoved).
     */
    bool prepareNext(Tick limit);

    void
    markOccupied(unsigned slot)
    {
        occ_[slot >> 6] |= 1ull << (slot & 63);
    }

    void
    markEmpty(unsigned slot)
    {
        occ_[slot >> 6] &= ~(1ull << (slot & 63));
    }

    /** Earliest occupied wheel tick strictly after base_, or never.
     *  Scans the occupancy words circularly from base_ + 1: the first
     *  word masked below that slot, the other words whole, then the
     *  first word again for the slots that wrapped around. */
    Tick
    nextWheelTick() const
    {
        const unsigned from = static_cast<unsigned>((base_ + 1) & kWheelMask);
        unsigned w = from >> 6;
        std::uint64_t bits = occ_[w] & (~0ull << (from & 63));
        for (unsigned probes = 0; probes <= kOccWords; ++probes) {
            if (bits != 0) {
                const unsigned slot =
                    (w << 6) | static_cast<unsigned>(__builtin_ctzll(bits));
                return base_ + 1 + ((slot - from) & kWheelMask);
            }
            w = (w + 1) & (kOccWords - 1);
            bits = occ_[w];
        }
        return kTickNever;
    }

    /** Move the far band's next horizon window into the near heap. */
    void promoteFar();

    /** Dispatch an entry (already consumed from its bucket). */
    void
    dispatch(const Key &k, const Val &v)
    {
        --pending_;
        now_ = k.when;
        v.client->fire(now_, v.tag);
    }

    /** Timing wheel: bucket (t & 255) holds the entries of absolute
     *  tick t for t in [base_, base_+255], each bucket seq-sorted. */
    std::array<ArenaVector<Entry>, kWheelSize> wheel_;
    /** Bucket-occupied bits: slot s is bit (s & 63) of word s >> 6. */
    std::array<std::uint64_t, kOccWords> occ_{};
    Tick base_ = 0;         ///< window start == tick being dispatched
    std::size_t pos_ = 0;   ///< consumed prefix of the current bucket

    ArenaVector<Key> keys_; ///< mid band (implicit 4-ary heap), keys
    ArenaVector<Val> vals_; ///< mid band payloads, parallel to keys_
    ArenaVector<Entry> far_; ///< far band (unsorted; batch-promoted)
    Tick farMin_ = kTickNever; ///< earliest `when` in the far band
    std::size_t pending_ = 0;
    Tick now_ = 0;

    /** 32-bit so the heap key stays 16 bytes; ~4.3e9 events per queue
     *  lifetime, guarded by nextSeq()'s clean panic.  The largest
     *  paper-scale runs schedule tens of millions. */
    std::uint32_t seq_ = 0;
};

} // namespace refrint

#endif // REFRINT_SIM_EVENT_QUEUE_HH
