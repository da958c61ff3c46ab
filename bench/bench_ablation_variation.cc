/**
 * @file
 * Ablation: process variation in the eDRAM retention time (§4.1).
 *
 * The paper's evaluation assumes uniform retention; §4.1 notes that
 * real arrays vary and that a profiled bound Delta on simultaneous
 * sentry firings could shrink the sentry margin.  This bench quantifies
 * the other half of that argument: as the per-line retention spread
 * grows, a Periodic controller (no per-line knowledge) must cycle the
 * whole cache at the weakest line's period, while Refrint's sentry bits
 * track each line individually — so the refresh-energy gap between the
 * two *widens* with sigma.
 *
 * Output: one row per sigma with normalized memory energy and the
 * refresh fraction for P.valid and R.valid at 50 us nominal retention.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"

int
main()
{
    using namespace refrint;
    SimParams sim;
    sim.refsPerCore = bench::defaultRefs();
    const Workload *app = findWorkload("fft");
    if (app == nullptr)
        return 1;

    const RunResult base = runOnce(MachineConfig::paperSram(), *app, sim);

    std::printf("# Variation ablation: fft, 50 us nominal retention, "
                "floor 70%%\n");
    std::printf("%-8s %12s %12s %12s %12s\n", "sigma", "P.valid:mem",
                "P.valid:ref", "R.valid:mem", "R.valid:ref");

    for (double sigma : {0.0, 0.02, 0.05, 0.08, 0.12}) {
        double mem[2], ref[2];
        const RefreshPolicy pols[2] = {
            RefreshPolicy::periodic(DataPolicy::Valid),
            RefreshPolicy::refrint(DataPolicy::Valid)};
        for (int i = 0; i < 2; ++i) {
            MachineConfig cfg = MachineConfig::paperEdram(
                pols[i], usToTicks(50.0));
            cfg.retention.variation.enabled = sigma > 0.0;
            cfg.retention.variation.sigma = sigma;
            cfg.retention.variation.minFactor = 0.70;
            const RunResult r = runOnce(cfg, *app, sim);
            const NormalizedResult n = normalize(r, base);
            mem[i] = n.memEnergy;
            ref[i] = n.refresh;
        }
        std::printf("%-8.2f %12.3f %12.3f %12.3f %12.3f\n", sigma, mem[0],
                    ref[0], mem[1], ref[1]);
    }
    return 0;
}
