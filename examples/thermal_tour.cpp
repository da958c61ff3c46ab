/**
 * @file
 * Thermal tour: what the thermal subsystem adds on top of the paper's
 * isothermal evaluation.
 *
 * The paper quotes eDRAM retention (50/100/200 us) *at operating
 * temperature*; retention roughly halves per 10 C of warming.  With the
 * thermal subsystem enabled, every eDRAM cache unit becomes a lumped-RC
 * node heated by its own activity, and the refresh engines re-read the
 * temperature-scaled retention every thermal epoch.  A cool die earns
 * longer retention (fewer refreshes); a hot die pays more — and the
 * Periodic baseline pays much more than Refrint, because Refrint only
 * refreshes what the sentries say is about to decay.
 */

#include <cstdio>

#include "harness/runner.hh"
#include "thermal/thermal_model.hh"
#include "workload/workload.hh"

int
main()
{
    using namespace refrint;

    // 1. The retention curve itself.
    const ThermalResponse resp;
    std::printf("# retention scale vs temperature (nominal at %.0f C)\n",
                resp.refTempC);
    for (double t : {45.0, 55.0, 65.0, 75.0, 85.0, 95.0})
        std::printf("  %5.1f C -> x%.2f\n", t, resp.factorAt(t));

    // 2. A single RC node: step response toward ambient + P*R.
    ThermalNode node(45.0, 40.0, 2.5e-6);
    std::printf("\n# RC node under 0.25 W (steady state %.1f C)\n",
                node.steadyStateC(0.25));
    for (int epoch = 1; epoch <= 5; ++epoch) {
        node.step(0.25, 50e-6); // 50 us steps
        std::printf("  after %3d us: %.2f C\n", epoch * 50,
                    node.tempC());
    }

    // 3. End to end: the same machine and workload at two ambients.
    const Workload *app = findWorkload("fft");
    SimParams sim;
    sim.refsPerCore = 20'000;
    const RunResult sram = runOnce(MachineConfig::paperSram(), *app, sim);

    std::printf("\n# %s @ 50 us nominal retention, cool vs hot die\n",
                app->name());
    std::printf("%-8s %-12s %8s %12s %10s %10s\n", "ambient", "policy",
                "peakC", "l3Refreshes", "memEnergy", "time");
    for (double ambient : {45.0, 85.0}) {
        for (const RefreshPolicy &pol :
             {RefreshPolicy::periodic(DataPolicy::All),
              RefreshPolicy::refrint(DataPolicy::WB, 32, 32)}) {
            const RunResult r =
                runOnce(MachineConfig::paperEdramThermal(
                            pol, usToTicks(50.0), ambient),
                        *app, sim);
            const NormalizedResult n = normalize(r, sram);
            std::printf("%-8.0f %-12s %8.1f %12llu %10.3f %10.3f\n",
                        ambient, pol.name().c_str(), r.maxTempC,
                        static_cast<unsigned long long>(
                            r.counts.l3Refreshes),
                        n.memEnergy, n.time);
        }
    }
    std::printf("\nPeriodic-All degrades with temperature; Refrint "
                "WB(32,32) barely moves.\n");
    return 0;
}
