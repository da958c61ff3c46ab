/**
 * @file
 * Trace capture and replay: record a workload's reference stream to a
 * file, load it back, and show that replaying it reproduces the
 * original simulation exactly — then reuse the same trace against a
 * different refresh policy.
 *
 * This is the workflow for plugging external traces (e.g. converted
 * from a binary-instrumentation capture of a real SPLASH-2 run) into
 * the simulator: anything that can be written in the refrint-trace v1
 * text format can drive the full machine.
 */

#include <cstdio>

#include "harness/runner.hh"
#include "trace/trace.hh"
#include "workload/workload.hh"

int
main()
{
    using namespace refrint;

    const Workload *app = findWorkload("radix");
    SimParams sim;
    sim.refsPerCore = 20'000;

    // 1. Record the stream the generator would feed each of 16 cores.
    const Trace trace = recordTrace(*app, 16, sim.refsPerCore, sim.seed);
    const char *path = "radix.trc";
    saveTrace(trace, path);
    std::printf("recorded %llu refs to %s\n",
                static_cast<unsigned long long>(trace.totalRefs()), path);

    // 2. Replay it and compare with the generator-driven run.
    TraceWorkload replay(loadTrace(path), "radix.trc");
    const MachineConfig cfg = MachineConfig::paperEdram(
        RefreshPolicy::refrint(DataPolicy::WB, 32, 32), usToTicks(50.0));

    const RunResult direct = runOnce(cfg, *app, sim);
    const RunResult traced = runOnce(cfg, replay, sim);
    std::printf("direct run : %llu ticks, %.3f mJ memory energy\n",
                static_cast<unsigned long long>(direct.execTicks),
                direct.energy.memTotal() * 1e3);
    std::printf("trace run  : %llu ticks, %.3f mJ memory energy  (%s)\n",
                static_cast<unsigned long long>(traced.execTicks),
                traced.energy.memTotal() * 1e3,
                traced.execTicks == direct.execTicks ? "identical"
                                                     : "MISMATCH");

    // 3. The same trace drives any other machine configuration.
    const RunResult periodic = runOnce(
        MachineConfig::paperEdram(
            RefreshPolicy::periodic(DataPolicy::All), usToTicks(50.0)),
        replay, sim);
    std::printf("same trace under P.all: %.3f mJ (%.2fx the R.WB time)\n",
                periodic.energy.memTotal() * 1e3,
                static_cast<double>(periodic.execTicks) /
                    static_cast<double>(traced.execTicks));

    std::remove(path);
    return 0;
}
