/**
 * @file
 * Microbenchmarks of the refresh machinery itself (google-benchmark):
 * per-policy refresh/write-back/invalidation counts on analytically
 * simple workloads, and the host-side throughput of the sentry-heap
 * engine and the hierarchy walk.
 */

#include <benchmark/benchmark.h>

#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "workload/micro.hh"

namespace
{

using namespace refrint;

MachineConfig
tinyEdram(const RefreshPolicy &pol)
{
    MachineConfig c = MachineConfig::paper(4);
    c.il1().geom = CacheGeometry{2 * 1024, 2, 64, 1};
    c.dl1().geom = CacheGeometry{2 * 1024, 4, 64, 1};
    c.l2().geom = CacheGeometry{8 * 1024, 8, 64, 2};
    c.llc().geom = CacheGeometry{32 * 1024, 8, 64, 4, 2};
    c.setLlcPolicy(pol);
    c.retention = RetentionParams{usToTicks(5.0), kTickNever, {}, {}};
    return c;
}

/** Refresh activity per policy on a uniform workload. */
void
BM_PolicyRefreshCounts(benchmark::State &state)
{
    const auto policies = paperPolicySweep();
    const RefreshPolicy pol =
        policies[static_cast<std::size_t>(state.range(0))];
    state.SetLabel(pol.name());
    UniformWorkload app(16 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 4000;
    for (auto _ : state) {
        RunResult r = runOnce(tinyEdram(pol), app, sim);
        state.counters["line_refreshes"] = static_cast<double>(
            r.counts.l1Refreshes + r.counts.l2Refreshes +
            r.counts.l3Refreshes);
        state.counters["refresh_wbs"] =
            static_cast<double>(r.counts.refreshWritebacks);
        state.counters["refresh_invals"] =
            static_cast<double>(r.counts.refreshInvalidations);
        state.counters["dram_accesses"] =
            static_cast<double>(r.counts.dramAccesses);
        benchmark::DoNotOptimize(r.execTicks);
    }
}
BENCHMARK(BM_PolicyRefreshCounts)->DenseRange(0, 13)->Unit(
    benchmark::kMillisecond);

/** Host throughput of the full simulation loop (refs/second). */
void
BM_SimulatorThroughput(benchmark::State &state)
{
    UniformWorkload app(16 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = static_cast<std::uint64_t>(state.range(0));
    const MachineConfig cfg =
        tinyEdram(RefreshPolicy::refrint(DataPolicy::WB, 8, 8));
    std::uint64_t refs = 0;
    for (auto _ : state) {
        RunResult r = runOnce(cfg, app, sim);
        refs += sim.refsPerCore * cfg.numCores;
        benchmark::DoNotOptimize(r.execTicks);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}
BENCHMARK(BM_SimulatorThroughput)->Arg(2000)->Arg(8000)->Unit(
    benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
