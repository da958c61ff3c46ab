#include "harness/runner.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/log.hh"
#include "validate/energy_alt.hh"

namespace refrint
{

namespace
{

/** Nearest-rank percentile of a sorted sample (p in (0, 1]). */
double
percentile(const std::vector<Tick> &sorted, double p)
{
    const std::size_t n = sorted.size();
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    return static_cast<double>(sorted[std::min(rank, n) - 1]);
}

/** Fill the request-latency fields from the cores' streams (a no-op
 *  for workloads without request structure). */
void
collectLatencies(CmpSystem &sys, RunResult &r)
{
    std::vector<Tick> lat;
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        const std::vector<Tick> *l =
            sys.core(c).stream().requestLatencies();
        if (l != nullptr)
            lat.insert(lat.end(), l->begin(), l->end());
    }
    if (lat.empty())
        return;
    std::sort(lat.begin(), lat.end());
    r.requests = static_cast<double>(lat.size());
    // 1 tick = 1 ns, so microseconds = ticks / 1e3.
    r.reqP50Us = percentile(lat, 0.50) / 1e3;
    r.reqP95Us = percentile(lat, 0.95) / 1e3;
    r.reqP99Us = percentile(lat, 0.99) / 1e3;
}

} // namespace

RunResult
runOnce(const MachineConfig &cfg, const Workload &app,
        const SimParams &params, const EnergyParams &energy, Arena *arena,
        ArrayPool *pool)
{
    CmpSystem sys(cfg, app, params, arena, pool);
    sys.run();

    RunResult r;
    r.app = app.name();
    r.config = cfg.configName();
    r.machine = cfg.machineId;
    r.retentionUs = static_cast<double>(cfg.retention.cellRetention) / 1e3;
    r.execTicks = sys.execTicks();
    r.instructions = sys.totalInstructions();
    r.counts = sys.hierarchy().counts();
    collectLatencies(sys, r);
    if (const ThermalDriver *t = sys.hierarchy().thermal()) {
        r.ambientC = cfg.thermal.ambientC;
        r.maxTempC = t->maxTempC();
    }
    r.energy = computeEnergy(energy, r.counts, cfg, r.execTicks,
                             r.instructions);
    if (energy.altModel != 0) {
        r.alt = computeEnergyAlt(AltEnergyParams::calibrated(),
                                 r.counts, cfg, r.execTicks,
                                 r.instructions);
        r.hasAlt = true;
    }
    return r;
}

double
energyDisagreement(const RunResult &r)
{
    if (!r.hasAlt)
        return 0.0;
    const double a = r.energy.systemTotal();
    const double b = r.alt.systemTotal();
    const double hi = std::max(a, b);
    return hi > 0.0 ? std::abs(a - b) / hi : 0.0;
}

bool
usableBaseline(const RunResult &base)
{
    return base.execTicks > 0 && base.energy.memTotal() > 0.0 &&
           base.energy.systemTotal() > 0.0;
}

NormalizedResult
normalize(const RunResult &r, const RunResult &base)
{
    if (!usableBaseline(base))
        panic("normalize: degenerate baseline for %s (execTicks=%llu "
              "memE=%g sysE=%g) would yield inf/NaN",
              base.app.c_str(),
              static_cast<unsigned long long>(base.execTicks),
              base.energy.memTotal(), base.energy.systemTotal());

    NormalizedResult n;
    n.app = r.app;
    n.config = r.config;
    n.machine = r.machine;
    n.retentionUs = r.retentionUs;
    n.ambientC = r.ambientC;
    n.maxTempC = r.maxTempC;

    const double baseMem = base.energy.memTotal();
    const double baseSys = base.energy.systemTotal();
    const double baseTime = static_cast<double>(base.execTicks);

    n.time = static_cast<double>(r.execTicks) / baseTime;
    n.memEnergy = r.energy.memTotal() / baseMem;
    n.sysEnergy = r.energy.systemTotal() / baseSys;

    n.l1 = r.energy.l1 / baseMem;
    n.l2 = r.energy.l2 / baseMem;
    n.l3 = r.energy.l3 / baseMem;
    n.dram = r.energy.dram / baseMem;
    n.dynamic = r.energy.dynamic / baseMem;
    n.leakage = r.energy.leakage / baseMem;
    n.refresh = r.energy.refresh / baseMem;
    return n;
}

} // namespace refrint
