/**
 * @file
 * Diagnostic deep-dive into a single run: full energy decomposition,
 * hit rates per level, refresh/coherence activity.  Handy both for
 * calibrating the energy model and for understanding why a policy wins
 * or loses on a workload.
 *
 * Usage: inspect_run [app] [policy|SRAM] [retention_us] [refsPerCore]
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "harness/runner.hh"
#include "system/cmp_system.hh"
#include "workload/workload.hh"

int
main(int argc, char **argv)
{
    using namespace refrint;

    const char *appName = argc > 1 ? argv[1] : "lu";
    const std::string polName = argc > 2 ? argv[2] : "R.WB(32,32)";
    const double retUs = argc > 3 ? std::atof(argv[3]) : 50.0;
    const std::uint64_t refs =
        argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4]))
                 : 30'000;

    const Workload *app = findWorkload(appName);
    if (app == nullptr) {
        std::fprintf(stderr, "unknown app '%s'\n", appName);
        return 1;
    }
    MachineConfig cfg =
        polName == "SRAM"
            ? MachineConfig::paperSram()
            : MachineConfig::paperEdram(parsePolicy(polName),
                                          usToTicks(retUs));

    SimParams sim;
    sim.refsPerCore = refs;
    CmpSystem sys(cfg, *app, sim);
    sys.run();

    std::map<std::string, double> st;
    sys.hierarchy().dumpStats(st);
    const RunResult r = [&] {
        RunResult rr;
        rr.execTicks = sys.execTicks();
        rr.instructions = sys.totalInstructions();
        rr.counts = sys.hierarchy().counts();
        rr.energy = computeEnergy(EnergyParams::calibrated(), rr.counts,
                                  cfg, rr.execTicks, rr.instructions);
        return rr;
    }();

    const double cpr =
        static_cast<double>(r.execTicks) /
        static_cast<double>(refs); // cycles per (per-core) ref
    std::printf("== %s / %s @ %.0f us, %llu refs/core ==\n", appName,
                polName.c_str(), retUs,
                static_cast<unsigned long long>(refs));
    std::printf("exec: %.0f us (%.1f cycles/ref)   instrs: %llu\n",
                ticksToSeconds(r.execTicks) * 1e6, cpr,
                static_cast<unsigned long long>(r.instructions));

    auto rate = [&](const char *miss, const char *acc1,
                    const char *acc2) {
        const double m = st[miss];
        const double a = st[acc1] + (acc2 ? st[acc2] : 0.0);
        return a > 0 ? 100.0 * (1.0 - m / a) : 0.0;
    };
    std::printf("hit rates: dl1 %.1f%%  il1 %.1f%%  l2 %.1f%%  l3 "
                "%.1f%%\n",
                rate("dl1.misses", "dl1.reads", "dl1.writes"),
                rate("il1.misses", "il1.reads", nullptr),
                rate("l2.misses", "l2.reads", "l2.writes"),
                rate("l3.misses", "l3.reads", nullptr));
    std::printf("dram accesses: %.0f (reads %.0f writes %.0f)\n",
                st["dram.reads"] + st["dram.writes"], st["dram.reads"],
                st["dram.writes"]);
    std::printf("refreshes: l1 %.0f  l2 %.0f  l3 %.0f   wb %.0f  inval "
                "%.0f\n",
                st["refresh.l1.line_refreshes"],
                st["refresh.l2.line_refreshes"],
                st["refresh.l3.line_refreshes"],
                st["refresh.l3.refresh_writebacks"],
                st["refresh.l3.refresh_invalidations"]);
    std::printf("net: hops %.0f  data msgs %.0f\n", st["net.hops"],
                st["net.data_msgs"]);

    const EnergyBreakdown &e = r.energy;
    std::printf("\nenergy (J): mem %.4f = l1 %.4f + l2 %.4f + l3 %.4f + "
                "dram %.4f\n",
                e.memTotal(), e.l1, e.l2, e.l3, e.dram);
    std::printf("  on-chip: dyn %.4f  leak %.4f  refresh %.4f\n",
                e.dynamic, e.leakage, e.refresh);
    std::printf("  system: %.4f (core %.4f, net %.4f)\n",
                e.systemTotal(), e.core, e.net);
    std::printf("  fractions of mem: dyn %.2f leak %.2f refresh %.2f "
                "dram %.2f | l3/mem %.2f\n",
                e.dynamic / e.memTotal(), e.leakage / e.memTotal(),
                e.refresh / e.memTotal(), e.dram / e.memTotal(),
                e.l3 / e.memTotal());
    return 0;
}
