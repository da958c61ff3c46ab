/**
 * @file
 * Session: the facade that runs experiment plans — the one way to run
 * a plan.
 *
 * A Session owns an optional result store and the worker
 * configuration; Session::run(plan, sinks) executes every scenario of
 * a plan — store-first, in parallel, results streamed to the sinks in
 * plan order — and returns the SweepResult aggregate.  The CLI
 * commands, the thermal study, the figure pipeline and the figure
 * benches all build a plan and hand it to this one entry point.
 *
 * Determinism contract: results land in plan order regardless of
 * completion order, every run simulates with its own
 * CmpSystem/EventQueue and scenario-derived seeds, so jobs=N output is
 * bit-identical to jobs=1, and the default paper plan reproduces the
 * legacy sweep — stdout, store keys and rows — byte for byte.
 */

#ifndef REFRINT_API_SESSION_HH
#define REFRINT_API_SESSION_HH

#include <memory>
#include <vector>

#include "api/experiment_plan.hh"
#include "api/result_sink.hh"
#include "api/result_store.hh"
#include "harness/sweep.hh"

namespace refrint
{

class Session
{
  public:
    /**
     * Run plans against @p store (the experiment service's
     * ShardedStore, or any other ResultStore).  A null store means no
     * lookups and no inserts: every scenario simulates.  @p jobs is
     * the worker-thread count; 0 means $REFRINT_JOBS, or serial if
     * that is unset.
     */
    Session(std::unique_ptr<ResultStore> store, unsigned jobs);

    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Execute @p plan: stored scenarios load instantly, the rest
     * simulate on up to `jobs` workers.  Rows stream to @p sinks in
     * plan order (serialized — sinks need no locking); the store is
     * flushed before end() fires.  The store stays loaded across
     * run() calls, so successive plans in one session share warm rows.
     * The returned SweepResult carries RunMetrics (simulated vs.
     * store-hit counts, wall time, worker utilization).
     *
     * @p deadlineSeconds > 0 bounds the run's wall time cooperatively:
     * once the budget is spent, scenarios that have not yet STARTED
     * are abandoned (no row is emitted for them; in-flight simulations
     * still finish) and counted in RunMetrics.skipped.  Rows whose
     * baseline was abandoned emit without a normalized view.  Overload
     * control for `refrint serve`; 0 (the default) never skips.
     */
    SweepResult run(const ExperimentPlan &plan,
                    const std::vector<ResultSink *> &sinks = {},
                    double deadlineSeconds = 0);

  private:
    unsigned jobs_ = 0;
    std::unique_ptr<ResultStore> store_;
};

} // namespace refrint

#endif // REFRINT_API_SESSION_HH
