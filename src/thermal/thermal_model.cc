#include "thermal/thermal_model.hh"

#include <algorithm>

#include "common/log.hh"
#include "energy/energy_model.hh"

namespace refrint
{

ThermalDriver::ThermalDriver(const ThermalParams &params,
                             const ThermalResponse &response,
                             EventQueue &eq, StatGroup &stats)
    : params_(params), response_(response), eq_(eq),
      maxTempC_(params.ambientC)
{
    panicIf(params_.rThetaKperW <= 0.0 || params_.cThetaJperK <= 0.0,
            "thermal RC constants must be positive");
    panicIf(params_.epoch == 0, "thermal epoch must be nonzero");
    // Explicit Euler is stable for dt < R*C; clamp the epoch to half
    // the time constant so a careless config cannot oscillate.
    const double tauTicks = params_.rThetaKperW * params_.cThetaJperK *
                            static_cast<double>(kTicksPerSecond);
    const Tick maxEpoch = std::max<Tick>(1, static_cast<Tick>(tauTicks / 2));
    if (params_.epoch > maxEpoch) {
        warn("thermal epoch %llu exceeds tau/2; clamping to %llu",
             static_cast<unsigned long long>(params_.epoch),
             static_cast<unsigned long long>(maxEpoch));
        params_.epoch = maxEpoch;
    }
    epochs_ = &stats.counter("epochs");
    rescales_ = &stats.counter("retention_rescales");
    maxTempStat_ = &stats.accum("max_temp_c");
    maxTempStat_->set(maxTempC_);
}

void
ThermalDriver::addUnit(CacheUnit &unit, double leakW, double eAccessJ)
{
    nodes_.push_back(Node{&unit, leakW, eAccessJ,
                          ThermalNode(params_.ambientC,
                                      params_.rThetaKperW,
                                      params_.cThetaJperK),
                          1.0, 0, 0});
}

void
ThermalDriver::start(Tick now)
{
    lastTick_ = now;
    // Apply the ambient operating point immediately: a die sitting at
    // 45 C retains longer than the 85 C-spec nominal from tick zero,
    // not only after the first epoch.
    const double factor0 = response_.factorAt(params_.ambientC);
    for (Node &n : nodes_) {
        n.lastAccesses = n.unit->accessTally;
        n.lastRefreshes = n.unit->refreshTally;
        if (n.unit->engine != nullptr) {
            if (n.unit->engine->setRetentionScale(factor0, now))
                rescales_->inc();
            n.appliedFactor = factor0;
        }
    }
    eq_.schedule(now + params_.epoch, this, 0);
}

void
ThermalDriver::fire(Tick now, std::uint64_t)
{
    const Tick dt = now - lastTick_;
    if (dt > 0) {
        const double dtSec = ticksToSeconds(dt);
        for (Node &n : nodes_) {
            const std::uint64_t acc = n.unit->accessTally;
            const std::uint64_t ref = n.unit->refreshTally;
            const std::uint64_t events =
                (acc - n.lastAccesses) + (ref - n.lastRefreshes);
            n.lastAccesses = acc;
            n.lastRefreshes = ref;

            const double powerW =
                unitEpochPower(n.leakW, n.eAccessJ, events, dt);
            const double tempC = n.rc.step(powerW, dtSec);
            maxTempC_ = std::max(maxTempC_, tempC);

            RefreshEngine *engine = n.unit->engine;
            if (engine == nullptr)
                continue;
            const double factor = response_.factorAt(tempC);
            const double rel = std::abs(factor - n.appliedFactor) /
                               n.appliedFactor;
            if (rel > params_.rescaleEpsilon) {
                if (engine->setRetentionScale(factor, now))
                    rescales_->inc();
                n.appliedFactor = factor;
            }
        }
        maxTempStat_->set(maxTempC_);
        epochs_->inc();
    }
    lastTick_ = now;
    eq_.schedule(now + params_.epoch, this, 0);
}

} // namespace refrint
