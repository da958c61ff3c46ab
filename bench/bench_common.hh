/**
 * @file
 * Shared setup for the figure-reproduction benches: build the paper's
 * sweep plan and run it against one result store shared by every
 * bench, so re-running a bench (or another bench over the same
 * scenarios) is free.
 *
 * Bench-only settings, read here and nowhere in the library:
 *   REFRINT_REFS   references per core (default 120000)
 *   REFRINT_APPS   comma-separated app allow list (default: all)
 * The store is kBenchStoreDir under the working directory.
 */

#ifndef REFRINT_BENCH_BENCH_COMMON_HH
#define REFRINT_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "api/experiment_plan.hh"
#include "api/session.hh"
#include "common/env.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "service/store.hh"

namespace refrint::bench
{

/** The result store every bench shares, relative to the working
 *  directory. */
inline constexpr const char *kBenchStoreDir = "refrint_bench_store";

/** Default refs/core for the figure benches ($REFRINT_REFS). */
inline std::uint64_t
defaultRefs()
{
    return envU64("REFRINT_REFS", 120'000);
}

/** Run (or load from the shared store) the sweep of @p spec with the
 *  bench settings applied: $REFRINT_REFS refs/core, and the
 *  $REFRINT_APPS allow list (e.g. "fft,lu") replacing the app axis.
 *  Parallelized across $REFRINT_JOBS worker threads when set. */
inline SweepResult
benchSweep(SweepSpec spec)
{
    spec.sim.refsPerCore = defaultRefs();
    if (const char *list = std::getenv("REFRINT_APPS")) {
        std::vector<const Workload *> keep;
        std::stringstream ss(list);
        std::string tok;
        while (std::getline(ss, tok, ',')) {
            if (const Workload *w = findWorkload(tok))
                keep.push_back(w);
            else
                warn("REFRINT_APPS: unknown app '%s'", tok.c_str());
        }
        if (!keep.empty())
            spec.apps = keep;
    }
    Session session(std::make_unique<ShardedStore>(kBenchStoreDir), 0);
    return session.run(ExperimentPlan::fromSweepSpec(std::move(spec)));
}

/** The paper sweep shared by the figure benches. */
inline SweepResult
paperSweep()
{
    return benchSweep(SweepSpec{});
}

} // namespace refrint::bench

#endif // REFRINT_BENCH_BENCH_COMMON_HH
