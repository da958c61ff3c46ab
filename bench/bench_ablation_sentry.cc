/**
 * @file
 * Ablation (§4.1): the Sentry-bit margin.  The paper conservatively
 * sizes the sentry lead at one cycle per line in the cache (16 us for a
 * 16K-line bank at 50 us retention — a 32% loss of refresh interval)
 * and argues post-silicon calibration could shrink it.  This bench
 * sweeps the margin and reports refresh energy and counts, quantifying
 * what a better bound would buy.
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

    std::printf("# Ablation: sentry margin vs refresh activity "
                "(R.valid, lu, 50 us retention)\n");
    std::printf("%-14s %16s %14s %12s\n", "margin", "sentryRetention",
                "l3_refreshes", "memE(J)");
    // Margins from the paper's conservative bound (16384 lines => 16 us)
    // down to a 64-line bound a calibrated process could justify.
    for (Tick margin : {Tick{16384}, Tick{8192}, Tick{4096}, Tick{1024},
                        Tick{256}, Tick{64}}) {
        MachineConfig cfg = MachineConfig::paperEdram(pol, usToTicks(50.0));
        cfg.retention.sentryMargin = margin;
        RunResult r = runOnce(cfg, *app, sim);
        std::printf("%-14llu %16llu %14llu %12.5f\n",
                    static_cast<unsigned long long>(margin),
                    static_cast<unsigned long long>(usToTicks(50.0) -
                                                    margin),
                    static_cast<unsigned long long>(
                        r.counts.l3Refreshes),
                    r.energy.memTotal());
    }
    return 0;
}
