/**
 * @file
 * Activity-driven thermal model: per-bank lumped-RC temperatures and
 * the driver that feeds them back into eDRAM retention.
 *
 * Every eDRAM cache unit (L1s, private L2s, L3 banks) is one lumped
 * thermal node: a heat capacity C coupled to the ambient/heat-sink
 * temperature through a thermal resistance R.  Once per thermal epoch
 * the driver converts the unit's access/refresh tallies plus its
 * leakage into an average power, integrates the node with one explicit
 * fixed-step Euler update (deterministic: same inputs, same
 * temperatures, on every run and thread count), and maps the new
 * temperature through the Arrhenius-style retention curve
 * (ThermalResponse, edram/retention.hh) into a retention rescale of the
 * unit's refresh engine.
 *
 * The RC constants are scaled so the thermal time constant sits inside
 * a simulated run's horizon (see DESIGN.md); with the subsystem
 * disabled (the default) nothing here is ever constructed and the
 * simulator behaves exactly as before.
 */

#ifndef REFRINT_THERMAL_THERMAL_MODEL_HH
#define REFRINT_THERMAL_THERMAL_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "edram/refresh_engine.hh"
#include "edram/retention.hh"
#include "energy/energy_params.hh"
#include "mem/cache_unit.hh"
#include "sim/event_queue.hh"

namespace refrint
{

/** Knobs of the thermal subsystem (constants documented in DESIGN.md). */
struct ThermalParams
{
    /** Master switch; false means exact legacy (isothermal) behavior. */
    bool enabled = false;

    /** Ambient / heat-sink temperature, deg C (the sweep axis). */
    double ambientC = 45.0;

    /** Thermal resistance node -> ambient, K/W. */
    double rThetaKperW = 40.0;

    /** Thermal capacitance per node, J/K.  tau = R*C = 100 us by
     *  default, inside a typical simulated run's horizon. */
    double cThetaJperK = 2.5e-6;

    /** Thermal epoch: activity integration + Euler step interval.
     *  Must stay well below tau for the explicit step to be stable. */
    Tick epoch = usToTicks(10.0);

    /** Skip pushing a retention rescale when the factor moved less
     *  than this relative amount (keeps the per-epoch work off the
     *  O(lines) re-stamp path in steady state). */
    double rescaleEpsilon = 0.005;

    /** Power coefficients used to turn tallies into watts. */
    EnergyParams energy = EnergyParams::calibrated();
};

/**
 * One lumped RC node:  C * dT/dt = P - (T - Tamb) / R.
 *
 * Steady state under constant power is Tamb + P*R; the step response
 * approaches it with time constant R*C.  Integrated with explicit
 * Euler at the driver's epoch, which the driver clamps to R*C/2 for
 * stability.
 */
class ThermalNode
{
  public:
    ThermalNode(double ambientC, double rKperW, double cJperK)
        : ambientC_(ambientC), rKperW_(rKperW), cJperK_(cJperK),
          tempC_(ambientC)
    {
    }

    /** Advance the node by @p dtSec under average power @p powerW. */
    double
    step(double powerW, double dtSec)
    {
        tempC_ += dtSec / cJperK_ *
                  (powerW - (tempC_ - ambientC_) / rKperW_);
        return tempC_;
    }

    double tempC() const { return tempC_; }
    double ambientC() const { return ambientC_; }

    /** Steady-state temperature under constant @p powerW. */
    double
    steadyStateC(double powerW) const
    {
        return ambientC_ + powerW * rKperW_;
    }

  private:
    double ambientC_;
    double rKperW_;
    double cJperK_;
    double tempC_;
};

/**
 * The epoch driver: owns one ThermalNode per registered cache unit,
 * polls the units' activity tallies on the shared event queue, and
 * pushes retention rescales into their refresh engines.
 */
class ThermalDriver : public EventClient
{
  public:
    ThermalDriver(const ThermalParams &params,
                  const ThermalResponse &response, EventQueue &eq,
                  StatGroup &stats);

    ThermalDriver(const ThermalDriver &) = delete;
    ThermalDriver &operator=(const ThermalDriver &) = delete;

    /** Register one cache unit as a thermal node.  @p leakW is the
     *  unit's leakage power, @p eAccessJ its per-line-event dynamic
     *  energy (both already cell-tech adjusted). */
    void addUnit(CacheUnit &unit, double leakW, double eAccessJ);

    /** Schedule the first epoch. */
    void start(Tick now);

    /** Epoch boundary: integrate power, update temperatures, rescale
     *  retentions. */
    void fire(Tick now, std::uint64_t) override;

    std::size_t numNodes() const { return nodes_.size(); }

    /** Hottest temperature any node reached so far. */
    double maxTempC() const { return maxTempC_; }

    /** Epochs integrated so far. */
    std::uint64_t epochs() const { return epochs_->value(); }

  private:
    struct Node
    {
        CacheUnit *unit;
        double leakW;
        double eAccessJ;
        ThermalNode rc;
        double appliedFactor = 1.0;
        std::uint64_t lastAccesses = 0;
        std::uint64_t lastRefreshes = 0;
    };

    ThermalParams params_;
    ThermalResponse response_;
    EventQueue &eq_;
    std::vector<Node> nodes_;
    Tick lastTick_ = 0;
    double maxTempC_;

    Counter *epochs_;
    Counter *rescales_;
    Accum *maxTempStat_;
};

} // namespace refrint

#endif // REFRINT_THERMAL_THERMAL_MODEL_HH
