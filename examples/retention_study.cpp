/**
 * @file
 * Retention study: how refresh energy and the Periodic-vs-Refrint gap
 * shrink as eDRAM cell retention grows (the paper's 50/100/200 us
 * sweep, motivated by the exponential temperature dependence of
 * retention, §5).
 */

#include <cstdio>

#include "harness/runner.hh"
#include "workload/workload.hh"

int
main()
{
    using namespace refrint;

    const Workload *app = findWorkload("streamcluster");
    SimParams sim;
    sim.refsPerCore = 30'000;

    const RunResult sram = runOnce(MachineConfig::paperSram(), *app, sim);

    std::printf("# %s: P.valid vs R.valid across retention times\n",
                app->name());
    std::printf("%-10s %-10s %12s %10s %10s\n", "retention", "policy",
                "l3Refreshes", "memEnergy", "time");
    for (double retUs : {50.0, 100.0, 200.0}) {
        for (TimePolicy tp : {TimePolicy::Periodic, TimePolicy::Refrint}) {
            RefreshPolicy pol;
            pol.time = tp;
            pol.data = DataPolicy::Valid;
            const RunResult r = runOnce(
                MachineConfig::paperEdram(pol, usToTicks(retUs)),
                *app, sim);
            const NormalizedResult n = normalize(r, sram);
            std::printf("%-10.0f %-10s %12llu %10.3f %10.3f\n", retUs,
                        pol.name().c_str(),
                        static_cast<unsigned long long>(
                            r.counts.l3Refreshes),
                        n.memEnergy, n.time);
        }
    }
    return 0;
}
