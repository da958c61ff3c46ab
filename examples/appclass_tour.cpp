/**
 * @file
 * Application-class tour: demonstrates the paper's §3.3 model (Fig.
 * 3.1) — one representative application per class, showing how the
 * best data policy shifts with footprint and LLC visibility:
 *
 *   Class 1 (large footprint, high visibility)  -> WB with small (n,m)
 *   Class 2 (small footprint, high visibility)  -> WB with large (n,m)
 *   Class 3 (small footprint, low visibility)   -> Valid
 */

#include <cstdio>

#include "harness/runner.hh"
#include "workload/workload.hh"

int
main()
{
    using namespace refrint;

    const char *reps[] = {"fft", "barnes", "blackscholes"};
    SimParams sim;
    sim.refsPerCore = 30'000;

    const RefreshPolicy policies[] = {
        RefreshPolicy::refrint(DataPolicy::Valid),
        RefreshPolicy::refrint(DataPolicy::WB, 4, 4),
        RefreshPolicy::refrint(DataPolicy::WB, 32, 32),
    };

    for (const char *name : reps) {
        const Workload *app = findWorkload(name);
        const RunResult sram = runOnce(MachineConfig::paperSram(), *app, sim);
        std::printf("\n== %s (paper Class %d) ==\n", app->name(),
                    app->paperClass());
        std::printf("%-14s %10s %10s %12s\n", "policy", "memEnergy",
                    "time", "refreshE/mem");
        for (const RefreshPolicy &pol : policies) {
            const RunResult r = runOnce(
                MachineConfig::paperEdram(pol, usToTicks(50.0)), *app,
                sim);
            const NormalizedResult n = normalize(r, sram);
            std::printf("%-14s %10.3f %10.3f %12.3f\n",
                        pol.name().c_str(), n.memEnergy, n.time,
                        n.refresh);
        }
    }
    std::printf("\nExpected: WB(4,4) wins on fft, WB(32,32) on barnes,"
                " valid on blackscholes.\n");
    return 0;
}
