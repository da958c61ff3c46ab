#include "edram/refresh_engine.hh"

#include <algorithm>
#include <functional>

#include "common/log.hh"

namespace refrint
{

RefreshEngine::RefreshEngine(RefreshTarget &target,
                             const RefreshPolicy &policy,
                             const RetentionParams &retention,
                             const EngineGeometry &geom, EventQueue &eq,
                             StatGroup &stats, Arena *arena)
    : target_(target), arr_(target.array()), policy_(policy), geom_(geom),
      eq_(eq),
      lineRetention_(ArenaAllocator<Tick>(arena)),
      nominalLineRetention_(ArenaAllocator<Tick>(arena))
{
    const std::uint32_t lines = target.array().numLines();
    cellRetention_ = retention.cellRetention;
    sentryRetention_ = retention.sentryRetention(lines);
    nominalCell_ = cellRetention_;
    margin_ = cellRetention_ - sentryRetention_;
    const std::vector<Tick> draws = retention.drawLineRetentions(lines);
    lineRetention_.assign(draws.begin(), draws.end());
    nominalLineRetention_.assign(draws.begin(), draws.end());
    // The All policy refreshes, and so re-stamps the clocks of, lines
    // that were never installed, which the array's journal does not
    // see.  Under any other policy an engine writes only lines that are
    // or were valid, which the journal covers (cache_array.hh).
    if (policy_.data == DataPolicy::All)
        arr_.markFullRestore();

    refreshes_ = &stats.counter("line_refreshes");
    wbs_ = &stats.counter("refresh_writebacks");
    invals_ = &stats.counter("refresh_invalidations");
    skips_ = &stats.counter("refresh_skips");
    visits_ = &stats.counter("refresh_visits");
}

bool
RefreshEngine::visitLine(std::uint32_t idx, Tick now)
{
    CacheLine &line = arr_.lineAt(idx);
    visits_->inc();
    const RefreshAction action = decideRefresh(policy_, line);
    switch (action) {
      case RefreshAction::Refresh:
        refreshes_->inc();
        target_.refreshLine(idx, now);
        renewClocks(idx, line, now);
        return true;

      case RefreshAction::Writeback:
        // The write-back reads the line out, which refreshes its cells;
        // it stays resident as Valid-Clean (Fig. 4.1).
        wbs_->inc();
        target_.writebackLine(idx, now);
        renewClocks(idx, line, now);
        return true;

      case RefreshAction::Invalidate:
        invals_->inc();
        target_.invalidateLine(idx, now);
        return false;

      case RefreshAction::Skip:
        skips_->inc();
        return false;
    }
    panic("unreachable refresh action");
}

namespace
{

/** Affinely rescale a future stamp around @p now by @p rho. */
Tick
rescaleStamp(Tick t, Tick now, double rho)
{
    if (t == kTickNever || t <= now)
        return t;
    return now + static_cast<Tick>(static_cast<double>(t - now) * rho);
}

} // namespace

bool
RefreshEngine::setRetentionScale(double factor, Tick now)
{
    if (!supportsRetentionScaling())
        return false;
    panicIf(!(factor > 0.0), "retention scale factor must be positive");

    Tick newCell =
        static_cast<Tick>(static_cast<double>(nominalCell_) * factor);
    // Floor: the sentry margin is an absolute service-time bound, so a
    // retention that approaches it would mean continuous refresh.  Cap
    // the scaling there rather than panicking mid-run.
    const Tick floor = std::max<Tick>(2 * margin_, 16);
    if (newCell < floor) {
        if (!warnedFloor_) {
            warn("%s: thermal retention %llu would consume the sentry "
                 "margin; flooring at %llu",
                 target_.name(), static_cast<unsigned long long>(newCell),
                 static_cast<unsigned long long>(floor));
            warnedFloor_ = true;
        }
        newCell = floor;
    }
    scale_ = factor;
    if (newCell == cellRetention_)
        return false;

    const double rho = static_cast<double>(newCell) /
                       static_cast<double>(cellRetention_);
    cellRetention_ = newCell;
    sentryRetention_ = cellRetention_ - margin_;
    for (std::size_t i = 0; i < lineRetention_.size(); ++i) {
        lineRetention_[i] = std::max<Tick>(
            1, static_cast<Tick>(
                   static_cast<double>(nominalLineRetention_[i]) *
                   static_cast<double>(newCell) /
                   static_cast<double>(nominalCell_)));
    }

    // Re-stamp every line clock affinely around now: expiries and the
    // engine deadlines that renew them scale together, so visit-before-
    // expiry is preserved in both the warming and cooling directions.
    arr_.forEachLine([&](std::uint32_t idx, CacheLine &line) {
        line.dataExpiry = rescaleStamp(line.dataExpiry, now, rho);
        if (sentryMirror_ != nullptr)
            sentryMirror_[idx] = rescaleStamp(sentryMirror_[idx], now, rho);
    });
    onRetentionRescaled(rho, now);
    return true;
}

// ---------------------------------------------------------------------
// PeriodicEngine
// ---------------------------------------------------------------------

PeriodicEngine::PeriodicEngine(RefreshTarget &target,
                               const RefreshPolicy &policy,
                               const RetentionParams &retention,
                               const EngineGeometry &geom, EventQueue &eq,
                               StatGroup &stats, Arena *arena)
    : RefreshEngine(target, policy, retention, geom, eq, stats, arena),
      burstNext_(ArenaAllocator<Tick>(arena)),
      burstEvents_(ArenaAllocator<EventHandle>(arena))
{
    kind_ = EngineKind::Periodic;
    // A periodic controller has no per-line retention knowledge: under
    // process variation the whole cache must be cycled at the weakest
    // line's period (§4.1 discussion; bench_ablation_variation).
    if (!lineRetention_.empty()) {
        Tick weakest = cellRetention_;
        for (Tick r : lineRetention_)
            weakest = std::min(weakest, r);
        cellRetention_ = weakest;
        nominalCell_ = weakest;
        panicIf(margin_ >= cellRetention_,
                "sentry margin consumes the weakest line's retention");
        sentryRetention_ = cellRetention_ - margin_;
    }
    const std::uint32_t lines = target.array().numLines();
    const std::uint32_t groups = std::max(1u, geom_.periodicGroups);
    const std::uint32_t perGroup = (lines + groups - 1) / groups;
    linesPerBurst_ = std::min(std::max(1u, geom_.periodicBurstLines),
                              perGroup);
    // Bursts cover the line space contiguously; group boundaries are
    // implicit since bursts are evenly staggered anyway.
    numBursts_ = (lines + linesPerBurst_ - 1) / linesPerBurst_;
    burstNext_.assign(numBursts_, 0);
    burstEvents_.assign(numBursts_, EventHandle{});
    bursts_ = &stats.counter("periodic_bursts");
}

void
PeriodicEngine::start(Tick now)
{
    // Stagger burst k at phase k * T / numBursts so that the refresh of
    // the full cache is spread across an entire retention period (§3.2).
    started_ = true;
    for (std::uint32_t k = 0; k < numBursts_; ++k) {
        const Tick phase =
            cellRetention_ * static_cast<Tick>(k) / numBursts_;
        burstNext_[k] = now + phase + 1;
        burstEvents_[k] = eq_.scheduleCancellable(burstNext_[k], this, k);
    }
}

void
PeriodicEngine::fire(Tick now, std::uint64_t tag)
{
    const std::uint32_t k = static_cast<std::uint32_t>(tag);
    const std::uint32_t lines = arr_.numLines();
    const std::uint32_t lo = k * linesPerBurst_;
    const std::uint32_t hi = std::min(lines, lo + linesPerBurst_);

    std::uint32_t serviced = 0;
    if (policy_.data == DataPolicy::All && target_.supportsBulkRefresh()) {
        // Fast path: under All every visit is a refresh, so the whole
        // burst reduces to bulk counter charges plus the per-line clock
        // re-stamp (visitLine would branch and virtual-call per line).
        const std::uint32_t n = hi - lo;
        visits_->inc(n);
        refreshes_->inc(n);
        target_.refreshLinesBulk(n, now);
        for (std::uint32_t idx = lo; idx < hi; ++idx)
            renewClocks(idx, arr_.lineAt(idx), now);
        serviced = n;
    } else if (policy_.data == DataPolicy::Valid &&
               target_.supportsBulkRefresh()) {
        // Fast path: Valid refreshes exactly the probe-valid lines and
        // skips the rest; no action ever mutates line state.
        visits_->inc(hi - lo);
        const Addr *probe = arr_.probeData();
        for (std::uint32_t idx = lo; idx < hi; ++idx) {
            if (probe[idx] != 0) {
                renewClocks(idx, arr_.lineAt(idx), now);
                ++serviced;
            }
        }
        refreshes_->inc(serviced);
        skips_->inc((hi - lo) - serviced);
        if (serviced > 0)
            target_.refreshLinesBulk(serviced, now);
    } else {
        for (std::uint32_t idx = lo; idx < hi; ++idx) {
            if (visitLine(idx, now))
                ++serviced;
            else if (policy_.data != DataPolicy::All) {
                // Invalidated/skipped lines still occupied the pipeline
                // for their tag+state read, but that is off the data
                // array; we only block for actual line refreshes.
            }
        }
    }
    bursts_->inc();
    // The bank is unavailable while the burst streams through the data
    // array, one line per cycle (Table 5.2: refresh time = access time).
    if (serviced > 0)
        target_.addBusy(now, serviced);
    burstNext_[k] = now + cellRetention_;
    burstEvents_[k] = eq_.scheduleCancellable(burstNext_[k], this, k);
}

void
PeriodicEngine::onRetentionRescaled(double rho, Tick now)
{
    if (!started_)
        return; // start() will use the updated retention directly
    // Retire the whole old schedule and replay it with every burst's
    // next firing moved affinely around now — each burst keeps its
    // phase position inside the (new) period, so the lines it renews
    // (whose expiries were re-stamped by the same map) are still
    // visited before they decay.  Cancelling through the handles frees
    // the retired events' kernel heap slots immediately.
    for (std::uint32_t k = 0; k < numBursts_; ++k) {
        eq_.cancel(burstEvents_[k]);
        burstNext_[k] = rescaleStamp(burstNext_[k], now, rho);
        if (burstNext_[k] < now)
            burstNext_[k] = now;
        burstEvents_[k] = eq_.scheduleCancellable(burstNext_[k], this, k);
    }
}

// ---------------------------------------------------------------------
// RefrintEngine
// ---------------------------------------------------------------------

RefrintEngine::RefrintEngine(RefreshTarget &target,
                             const RefreshPolicy &policy,
                             const RetentionParams &retention,
                             const EngineGeometry &geom, EventQueue &eq,
                             StatGroup &stats, Arena *arena)
    : RefreshEngine(target, policy, retention, geom, eq, stats, arena),
      heap_(arena), sentryM_(ArenaAllocator<Tick>(arena)),
      ghosts_(ArenaAllocator<Tick>(arena))
{
    kind_ = EngineKind::Refrint;
    const std::uint32_t lines = target.array().numLines();
    geom_.sentryGroupSize = std::max(1u, geom_.sentryGroupSize);
    numGroups_ =
        (lines + geom_.sentryGroupSize - 1) / geom_.sentryGroupSize;
    heap_.reset(numGroups_);
    sentryM_.assign(lines, kTickNever);
    sentryMirror_ = sentryM_.data();
    interrupts_ = &stats.counter("sentry_interrupts");
}

// Indexed 16-ary min-heap over armed groups -------------------------------

void
RefrintEngine::GroupHeap::siftUp(std::size_t i)
{
    const Tick heldExpiry = expiry_[i];
    const std::uint32_t heldGroup = group_[i];
    while (i != 0) {
        const std::size_t parent = (i - 1) >> 4;
        if (expiry_[parent] <= heldExpiry)
            break;
        expiry_[i] = expiry_[parent];
        group_[i] = group_[parent];
        pos_[group_[i]] = static_cast<std::uint32_t>(i);
        i = parent;
    }
    expiry_[i] = heldExpiry;
    group_[i] = heldGroup;
    pos_[heldGroup] = static_cast<std::uint32_t>(i);
}

void
RefrintEngine::GroupHeap::siftDown(std::size_t i)
{
    const Tick heldExpiry = expiry_[i];
    const std::uint32_t heldGroup = group_[i];
    const std::size_t n = expiry_.size();
    for (;;) {
        const std::size_t base = (i << 4) + 1;
        if (base >= n)
            break;
        std::size_t best = base;
        const std::size_t end = base + 16 < n ? base + 16 : n;
        for (std::size_t c = base + 1; c < end; ++c) {
            if (expiry_[c] < expiry_[best])
                best = c;
        }
        if (heldExpiry <= expiry_[best])
            break;
        expiry_[i] = expiry_[best];
        group_[i] = group_[best];
        pos_[group_[i]] = static_cast<std::uint32_t>(i);
        i = best;
    }
    expiry_[i] = heldExpiry;
    group_[i] = heldGroup;
    pos_[heldGroup] = static_cast<std::uint32_t>(i);
}

void
RefrintEngine::GroupHeap::arm(std::uint32_t g, Tick expiry)
{
    std::uint32_t i = pos_[g];
    if (i == kAbsent) {
        i = static_cast<std::uint32_t>(expiry_.size());
        expiry_.push_back(expiry);
        group_.push_back(g);
        pos_[g] = i;
        siftUp(i);
        return;
    }
    const Tick old = expiry_[i];
    expiry_[i] = expiry;
    if (expiry < old)
        siftUp(i);
    else if (expiry > old)
        siftDown(i);
}

void
RefrintEngine::GroupHeap::popTop()
{
    remove(group_.front());
}

void
RefrintEngine::GroupHeap::remove(std::uint32_t g)
{
    const std::uint32_t i = pos_[g];
    if (i == kAbsent)
        return;
    pos_[g] = kAbsent;
    const std::size_t last = expiry_.size() - 1;
    if (i != last) {
        expiry_[i] = expiry_[last];
        group_[i] = group_[last];
        pos_[group_[i]] = i;
        expiry_.pop_back();
        group_.pop_back();
        siftUp(i);
        siftDown(i);
    } else {
        expiry_.pop_back();
        group_.pop_back();
    }
}

void
RefrintEngine::start(Tick now)
{
    if (policy_.data != DataPolicy::All)
        return; // groups arm lazily as lines are installed
    // The All policy refreshes even invalid lines, so every sentry is
    // live from power-on.  Stagger initial phases uniformly to model the
    // steady state and avoid a synchronized interrupt storm.
    CacheArray &arr = arr_;
    for (std::uint32_t g = 0; g < numGroups_; ++g) {
        const Tick phase =
            1 + sentryRetention_ * static_cast<Tick>(g) / numGroups_;
        const std::uint32_t lo = groupBase(g);
        const std::uint32_t hi =
            std::min(arr.numLines(), lo + geom_.sentryGroupSize);
        for (std::uint32_t idx = lo; idx < hi; ++idx) {
            CacheLine &line = arr.lineAt(idx);
            line.dataExpiry = now + phase + (cellRetention_ -
                                             sentryRetention_);
            sentryM_[idx] = now + phase;
        }
        armGroup(g, now + phase);
    }
    maybeSchedule();
}

namespace
{

#if defined(REFRINT_PROBE_AVX2)

/** Lane-wise unsigned min over 64-bit lanes (AVX2 has no unsigned
 *  64-bit compare: flip the sign bit and compare signed). */
inline __m256i
minU64(__m256i a, __m256i b)
{
    const __m256i bias = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ull));
    const __m256i gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias),
                                          _mm256_xor_si256(b, bias));
    return _mm256_blendv_epi8(a, b, gt); // a > b ? b : a
}

inline Tick
hminU64(__m256i v)
{
    alignas(32) Tick lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), v);
    Tick m = lanes[0];
    for (int i = 1; i < 4; ++i)
        m = lanes[i] < m ? lanes[i] : m;
    return m;
}

#endif // REFRINT_PROBE_AVX2

/** Min of sm[lo..hi); under Valid gating only probe-valid lanes count.
 *  Vector body over aligned-count chunks, scalar tail — nothing past
 *  hi is ever read, so a partial last group can never see its
 *  neighbour's sentries. */
inline Tick
sentryScanMin(const Tick *sm, const Addr *probe, std::uint32_t lo,
              std::uint32_t hi)
{
    Tick dl = kTickNever;
    std::uint32_t idx = lo;
#if defined(REFRINT_PROBE_AVX2)
    __m256i acc = _mm256_set1_epi64x(-1); // kTickNever in every lane
    for (; idx + 4 <= hi; idx += 4) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(sm + idx));
        if (probe != nullptr) {
            // Invalid lanes (probe word 0) must not contribute: the
            // compare mask is all-ones exactly there, and OR-ing it in
            // turns the lane into kTickNever.
            const __m256i pv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(probe + idx));
            v = _mm256_or_si256(
                v, _mm256_cmpeq_epi64(pv, _mm256_setzero_si256()));
        }
        acc = minU64(acc, v);
    }
    dl = hminU64(acc);
#endif
    for (; idx < hi; ++idx) {
        if ((probe == nullptr || probe[idx] != 0) && sm[idx] < dl)
            dl = sm[idx];
    }
    return dl;
}

} // namespace

Tick
RefrintEngine::groupDeadline(std::uint32_t g) const
{
    // Dense scan: packed sentry expiries gated by the packed validity
    // probe — no CacheLine structs are touched, and the scan body is
    // vectorized (sentryScanMin above).
    const std::uint32_t lo = g * geom_.sentryGroupSize;
    const std::uint32_t hi =
        std::min(arr_.numLines(), lo + geom_.sentryGroupSize);
    const Addr *probe =
        policy_.data == DataPolicy::All ? nullptr : arr_.probeData();
    return sentryScanMin(sentryM_.data(), probe, lo, hi);
}

void
RefrintEngine::armGroup(std::uint32_t g, Tick deadline)
{
    heap_.arm(g, deadline);
}

void
RefrintEngine::maybeSchedule()
{
    Tick top = kTickNever;
    if (!heap_.empty())
        top = heap_.topExpiry();
    if (!ghosts_.empty() && ghosts_.front() < top)
        top = ghosts_.front();
    if (top != kTickNever && top < scheduledAt_) {
        scheduledAt_ = top;
        eq_.schedule(top, this, 0);
    }
}

void
RefrintEngine::onRetentionRescaled(double, Tick now)
{
    // Line sentry expiries were just re-stamped; re-key every armed
    // group to its new deadline in place.  The superseded deadline is
    // kept as a ghost wake time so the engine's kernel wake schedule
    // (and with it every later event's tie-break position) matches the
    // historical duplicate-entry heap tick for tick.
    //
    // A group's key is not lowered when onInstall/onAccess renew one
    // of its sentries, so after a warming rescale a renewed sentry can
    // sit before the key — and this rescale can then map it to a tick
    // already past.  Such a group is due now, never in the past.
    for (std::uint32_t g = 0; g < numGroups_; ++g) {
        if (!heap_.contains(g))
            continue;
        ghosts_.push_back(heap_.expiryOf(g));
        std::push_heap(ghosts_.begin(), ghosts_.end(),
                       std::greater<>());
        const Tick dl = groupDeadline(g);
        if (dl == kTickNever)
            heap_.remove(g);
        else
            armGroup(g, std::max(dl, now));
    }
    scheduledAt_ = kTickNever;
    maybeSchedule();
}

void
RefrintEngine::fire(Tick now, std::uint64_t)
{
    scheduledAt_ = kTickNever;
    CacheArray &arr = arr_;

    // Expired ghost deadlines melt silently (see ghosts_).
    while (!ghosts_.empty() && ghosts_.front() <= now) {
        std::pop_heap(ghosts_.begin(), ghosts_.end(), std::greater<>());
        ghosts_.pop_back();
    }

    // Drain every group whose armed deadline has passed: same-tick
    // sentry interrupts are batched into this one kernel dispatch.
    while (!heap_.empty() && heap_.topExpiry() <= now) {
        const std::uint32_t g = heap_.topGroup();

        // Accesses may have pushed the real deadline out since this
        // group was armed; if so, re-key the root node in place (one
        // sift) rather than pop + reinsert.
        const Tick dl = groupDeadline(g);
        if (dl == kTickNever) {
            heap_.popTop();
            continue;
        }
        if (dl > now) {
            armGroup(g, dl);
            continue;
        }

        // Genuine sentry interrupt: service every line in the group in
        // a pipelined fashion (§4.2), with priority over plain R/W.
        interrupts_->inc();
        const std::uint32_t lo = groupBase(g);
        const std::uint32_t hi =
            std::min(arr.numLines(), lo + geom_.sentryGroupSize);
        const bool all = policy_.data == DataPolicy::All;
        const Addr *probe = arr.probeData();
        std::uint32_t serviced = 0;
        Tick next = kTickNever;
        if ((all || policy_.data == DataPolicy::Valid) &&
            target_.supportsBulkRefresh()) {
            // Fast path: every relevant line is refreshed (All/Valid
            // never write back, invalidate or mutate state), so the
            // visit reduces to the clock re-stamp plus bulk charges —
            // and the group's next deadline falls out of the renewed
            // stamps, saving the post-service group re-scan.
            for (std::uint32_t idx = lo; idx < hi; ++idx) {
                if (!all && probe[idx] == 0)
                    continue;
                renewClocks(idx, arr.lineAt(idx), now);
                if (sentryM_[idx] < next)
                    next = sentryM_[idx];
                ++serviced;
            }
            visits_->inc(serviced);
            refreshes_->inc(serviced);
            if (serviced > 0)
                target_.refreshLinesBulk(serviced, now);
        } else {
            for (std::uint32_t idx = lo; idx < hi; ++idx) {
                if (!all && probe[idx] == 0)
                    continue;
                if (visitLine(idx, now))
                    ++serviced;
            }
            next = groupDeadline(g);
        }
        if (serviced > 0)
            target_.addBusy(now, serviced);

        if (next != kTickNever)
            armGroup(g, next); // re-keys the root in place
        else
            heap_.popTop();
    }
    maybeSchedule();
}

// ---------------------------------------------------------------------

std::unique_ptr<RefreshEngine>
makeRefreshEngine(RefreshTarget &target, const RefreshPolicy &policy,
                  const RetentionParams &retention,
                  const EngineGeometry &geom, EventQueue &eq,
                  StatGroup &stats, Arena *arena)
{
    switch (policy.time) {
      case TimePolicy::Periodic:
        return std::make_unique<PeriodicEngine>(target, policy, retention,
                                                geom, eq, stats, arena);
      case TimePolicy::Refrint:
        return std::make_unique<RefrintEngine>(target, policy, retention,
                                               geom, eq, stats, arena);
      case TimePolicy::SmartRefresh:
        // The comparator engine is rarely on a sweep's hot path; it
        // keeps plain heap storage (arena not threaded through).
        return makeSmartRefreshEngine(target, policy, retention, geom, eq,
                                      stats);
    }
    panic("unreachable time policy");
}

} // namespace refrint
