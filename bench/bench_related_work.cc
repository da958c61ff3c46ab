/**
 * @file
 * Related-work shoot-out (paper §7): Refrint against the alternative
 * refresh/leakage schemes the paper discusses —
 *
 *   SRAM           full-SRAM baseline (normalization target)
 *   SRAM+decay     cache decay at L2/L3 (Kaxiras et al.)
 *   P.all          naive periodic eDRAM refresh
 *   P.all+SECDED   periodic refresh with ECC-extended retention
 *   P.all+HiECC    periodic refresh with a strong code
 *   S.valid        SmartRefresh timeout counters (Ghosh & Lee)
 *   R.WB(32,32)    Refrint's best policy (§6)
 *
 * One representative application per class, 50 us base retention.
 * Rows: normalized memory energy, refresh fraction, and execution time.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "related/ecc.hh"

namespace
{

using namespace refrint;

struct Contender
{
    std::string label;
    MachineConfig cfg;
    EnergyParams energy = EnergyParams::calibrated();
};

std::vector<Contender>
contenders(Tick retention)
{
    std::vector<Contender> v;
    v.push_back({"SRAM", MachineConfig::paperSram()});
    v.push_back({"SRAM+decay",
                 MachineConfig::paperSramDecay(usToTicks(100.0))});
    v.push_back({"P.all", MachineConfig::paperEdram(
                              RefreshPolicy::periodic(DataPolicy::All),
                              retention)});
    for (EccScheme s : {EccScheme::Secded, EccScheme::Strong}) {
        Contender c{std::string("P.all+") + eccSchemeName(s),
                    MachineConfig::paperEdram(
                        RefreshPolicy::periodic(DataPolicy::All),
                        retention)};
        applyEcc(s, c.cfg, c.energy);
        v.push_back(std::move(c));
    }
    v.push_back({"S.valid",
                 MachineConfig::paperEdram(
                     RefreshPolicy{TimePolicy::SmartRefresh,
                                   DataPolicy::Valid, 0, 0},
                     retention)});
    v.push_back({"R.WB(32,32)",
                 MachineConfig::paperEdram(
                     RefreshPolicy::refrint(DataPolicy::WB, 32, 32),
                     retention)});
    return v;
}

} // namespace

int
main()
{
    using namespace refrint;
    const Tick retention = usToTicks(50.0);
    SimParams sim;
    sim.refsPerCore = bench::defaultRefs();

    // One representative per class (Table 6.1).
    const std::vector<std::string> appNames = {"fft", "barnes",
                                               "blackscholes"};

    std::printf("# Related-work comparison @ %.0f us retention, "
                "%llu refs/core\n",
                50.0, static_cast<unsigned long long>(sim.refsPerCore));
    for (const std::string &appName : appNames) {
        const Workload *app = findWorkload(appName);
        if (app == nullptr)
            continue;

        const RunResult base = runOnce(MachineConfig::paperSram(), *app, sim);

        std::printf("\n## %s (class %d)\n", app->name(),
                    app->paperClass());
        std::printf("%-14s %10s %10s %10s\n", "scheme", "memEnergy",
                    "refresh", "time");
        for (const Contender &c : contenders(retention)) {
            const RunResult r = runOnce(c.cfg, *app, sim, c.energy);
            const NormalizedResult n = normalize(r, base);
            std::printf("%-14s %10.3f %10.3f %10.3f\n", c.label.c_str(),
                        n.memEnergy, n.refresh, n.time);
        }
    }
    return 0;
}
