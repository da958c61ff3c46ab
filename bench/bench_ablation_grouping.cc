/**
 * @file
 * Ablation (§5): interrupt-wire grouping of sentry bits.  Grouping k
 * sentries onto one interrupt wire shrinks the priority encoder (1024
 * inputs max in the paper) but forces the whole group to be serviced
 * when its earliest sentry fires, refreshing some lines early.  This
 * bench sweeps the L3 group size and reports the extra refreshes paid
 * per wire saved.
 */

#include <cstdio>

#include "harness/runner.hh"
#include "workload/workload.hh"

int
main()
{
    using namespace refrint;
    const Workload *app = findWorkload("lu");
    const RefreshPolicy pol = RefreshPolicy::refrint(DataPolicy::Valid);

    SimParams sim;
    sim.refsPerCore = 40'000;

    std::printf("# Ablation: sentry group size (encoder inputs) vs "
                "refresh energy (R.valid, lu, 50 us)\n");
    std::printf("%-10s %16s %14s %12s\n", "groupSize", "encoderInputs",
                "l3_refreshes", "memE(J)");
    for (std::uint32_t g : {1u, 4u, 16u, 64u, 256u}) {
        MachineConfig cfg = MachineConfig::paperEdram(pol, usToTicks(50.0));
        cfg.llc().engine.sentryGroupSize = g;
        RunResult r = runOnce(cfg, *app, sim);
        const std::uint32_t inputs =
            cfg.llc().geom.numLines() / g;
        std::printf("%-10u %16u %14llu %12.5f\n", g, inputs,
                    static_cast<unsigned long long>(
                        r.counts.l3Refreshes),
                    r.energy.memTotal());
    }
    return 0;
}
