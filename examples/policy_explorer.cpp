/**
 * @file
 * Policy explorer: run every Table 5.4 policy on one application at one
 * retention time and rank them by normalized memory energy — the tool
 * you would use to pick a refresh policy for a new workload.
 *
 * Usage: policy_explorer [app] [retention_us]   (defaults: radix, 50)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "workload/workload.hh"

int
main(int argc, char **argv)
{
    using namespace refrint;

    const char *appName = argc > 1 ? argv[1] : "radix";
    const double retUs = argc > 2 ? std::atof(argv[2]) : 50.0;
    const Workload *app = findWorkload(appName);
    if (app == nullptr) {
        std::fprintf(stderr, "unknown app '%s'; options:\n", appName);
        for (const Workload *w : paperWorkloads())
            std::fprintf(stderr, "  %s\n", w->name());
        return 1;
    }

    SimParams sim;
    sim.refsPerCore = 30'000;

    const RunResult sram = runOnce(MachineConfig::paperSram(), *app, sim);

    struct Row
    {
        NormalizedResult n;
    };
    std::vector<Row> rows;
    for (const RefreshPolicy &pol : paperPolicySweep()) {
        const RunResult r = runOnce(
            MachineConfig::paperEdram(pol, usToTicks(retUs)), *app,
            sim);
        rows.push_back({normalize(r, sram)});
    }
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return a.n.memEnergy < b.n.memEnergy;
    });

    std::printf("# %s @ %.0f us — policies ranked by normalized memory "
                "energy (SRAM = 1.0)\n",
                app->name(), retUs);
    std::printf("%-14s %10s %10s %10s\n", "policy", "memEnergy",
                "sysEnergy", "time");
    for (const Row &r : rows) {
        std::printf("%-14s %10.3f %10.3f %10.3f\n", r.n.config.c_str(),
                    r.n.memEnergy, r.n.sysEnergy, r.n.time);
    }
    return 0;
}
