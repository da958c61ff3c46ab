#include "related/smart_refresh.hh"

#include "common/log.hh"

namespace refrint
{

SmartRefreshEngine::SmartRefreshEngine(RefreshTarget &target,
                                       const RefreshPolicy &policy,
                                       const RetentionParams &retention,
                                       const EngineGeometry &geom,
                                       EventQueue &eq, StatGroup &stats)
    : RefreshEngine(target, policy, retention, geom, eq, stats)
{
    const std::uint32_t bits = geom.smartCounterBits;
    panicIf(bits == 0 || bits > 16,
            "SmartRefresh counter width out of range");
    const std::uint32_t numPhases = 1u << bits;
    phaseLen_ = cellRetention_ / numPhases;
    panicIf(phaseLen_ == 0, "retention shorter than the phase clock");
    phaseScans_ = &stats.counter("smart_phase_scans");
}

void
SmartRefreshEngine::start(Tick now)
{
    // The All data policy keeps even invalid lines alive, so every line
    // needs a deadline from power-on; stagger them across the period so
    // steady state has no synchronized burst.
    if (policy_.data == DataPolicy::All) {
        CacheArray &arr = arr_;
        const std::uint32_t lines = arr.numLines();
        for (std::uint32_t idx = 0; idx < lines; ++idx) {
            CacheLine &line = arr.lineAt(idx);
            line.dataExpiry =
                now + 1 + cellRetention_ * static_cast<Tick>(idx) / lines;
        }
    }
    eq_.schedule(now + phaseLen_, this, 0);
}

void
SmartRefreshEngine::onInstall(std::uint32_t idx, Tick now)
{
    CacheLine &line = arr_.lineAt(idx);
    renew(idx, line, now); // counter reset: full retention from the fill
    noteAccess(policy_, line);
}

void
SmartRefreshEngine::onAccess(std::uint32_t idx, Tick now)
{
    CacheLine &line = arr_.lineAt(idx);
    renew(idx, line, now);
    noteAccess(policy_, line);
}

void
SmartRefreshEngine::fire(Tick now, std::uint64_t)
{
    // Phase boundary: scan the counters and act on every line whose
    // timeout would run out before the next boundary.  The scan itself
    // walks a dedicated counter array off the data-array critical path
    // (Ghosh & Lee keep the counters beside the tags), so only actual
    // line refreshes block the bank.
    CacheArray &arr = arr_;
    const std::uint32_t lines = arr.numLines();
    const Tick horizon = now + phaseLen_;

    std::uint32_t serviced = 0;
    for (std::uint32_t idx = 0; idx < lines; ++idx) {
        CacheLine &line = arr.lineAt(idx);
        const bool relevant =
            policy_.data == DataPolicy::All || line.valid();
        if (!relevant || line.dataExpiry > horizon)
            continue;
        if (visitLine(idx, now))
            ++serviced;
    }
    phaseScans_->inc();
    if (serviced > 0)
        target_.addBusy(now, serviced);
    eq_.schedule(now + phaseLen_, this, 0);
}

std::unique_ptr<RefreshEngine>
makeSmartRefreshEngine(RefreshTarget &target, const RefreshPolicy &policy,
                       const RetentionParams &retention,
                       const EngineGeometry &geom, EventQueue &eq,
                       StatGroup &stats)
{
    return std::make_unique<SmartRefreshEngine>(target, policy, retention,
                                                geom, eq, stats);
}

} // namespace refrint
