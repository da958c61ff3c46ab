/**
 * @file
 * Quickstart: build the paper's 16-core machine, run one workload on
 * the SRAM baseline and on eDRAM with Refrint WB(32,32), and print the
 * energy/time comparison.
 *
 * This exercises the whole public API in ~40 lines:
 *   MachineConfig    -> the machine (Table 5.1)
 *   RefreshPolicy    -> what/when to refresh (Table 3.1)
 *   runOnce()        -> one simulation
 *   normalize()      -> the paper's normalized metrics
 */

#include <cstdio>

#include "harness/runner.hh"
#include "workload/workload.hh"

int
main()
{
    using namespace refrint;

    // The workload: the paper's LU profile (Class 2: small footprint,
    // high sharing).  Swap for any name in Table 5.3.
    const Workload *app = findWorkload("lu");

    SimParams sim;
    sim.refsPerCore = 30'000; // short demo run

    // 1) Full-SRAM baseline.
    const RunResult sram = runOnce(MachineConfig::paperSram(), *app, sim);

    // 2) Full-eDRAM with the paper's best policy at 50 us retention.
    const RefreshPolicy best = RefreshPolicy::refrint(DataPolicy::WB,
                                                      32, 32);
    const RunResult edram = runOnce(
        MachineConfig::paperEdram(best, usToTicks(50.0)), *app, sim);

    const NormalizedResult n = normalize(edram, sram);

    std::printf("workload            : %s\n", app->name());
    std::printf("policy              : %s @ 50 us retention\n",
                best.name().c_str());
    std::printf("SRAM   memory energy: %.4f J  (exec %.0f us)\n",
                sram.energy.memTotal(),
                ticksToSeconds(sram.execTicks) * 1e6);
    std::printf("eDRAM  memory energy: %.4f J  (exec %.0f us)\n",
                edram.energy.memTotal(),
                ticksToSeconds(edram.execTicks) * 1e6);
    std::printf("normalized mem energy: %.3f   (paper avg: 0.36)\n",
                n.memEnergy);
    std::printf("normalized exec time : %.3f   (paper avg: 1.02)\n",
                n.time);
    std::printf("L3 line refreshes    : %llu\n",
                static_cast<unsigned long long>(
                    edram.counts.l3Refreshes));
    return 0;
}
