#include "api/session.hh"

#include <atomic>
#include <chrono>
#include <mutex>

#include "common/arena.hh"
#include "common/log.hh"
#include "harness/pool.hh"
#include "mem/array_pool.hh"

namespace refrint
{

namespace
{

/**
 * Private scratch state of one sweep worker, reused across every
 * scenario the worker claims:
 *
 *  - arena: backing store for each run's other simulator allocations
 *    (refresh heaps, event-queue bands).  reset() before each
 *    simulation recycles the chunks instead of round-tripping them
 *    through malloc — by the second scenario a worker allocates
 *    nothing from the OS.
 *  - arrays: the cache arrays' storage, which the previous scenario
 *    restored to construction state (only its touched sets) and gave
 *    back, so a run on the same machine allocates and initialises no
 *    array storage.
 *
 * None of this can affect results: the arena only moves allocations
 * (common/arena.hh, determinism note), and a recycled array equals a
 * fresh one (mem/array_pool.hh).  Each scenario builds its own
 * machine: a build costs less than a memo key and lookup did.
 */
struct WorkerCtx
{
    Arena arena;
    ArrayPool arrays;
};

} // namespace

Session::Session(std::unique_ptr<ResultStore> store, unsigned jobs)
    : jobs_(jobs), store_(std::move(store))
{
}

Session::~Session() = default;

SweepResult
Session::run(const ExperimentPlan &plan,
             const std::vector<ResultSink *> &sinks,
             double deadlineSeconds)
{
    plan.validate();
    for (ResultSink *s : sinks)
        s->begin(plan);

    const std::size_t n = plan.size();
    std::vector<RunResult> results(n);
    std::vector<char> simulatedFlag(n, 0);
    std::vector<char> skippedFlag(n, 0);
    std::atomic<std::size_t> simulated{0};
    std::atomic<std::size_t> skipped{0};
    std::atomic<std::int64_t> busyNanos{0};
    const auto wallStart = std::chrono::steady_clock::now();

    SweepResult out;

    // Streaming frontier: rows are emitted to the sinks (and into the
    // aggregate) strictly in plan order, each as soon as it and every
    // earlier row is complete.  Baselines precede their dependents in
    // plan order (validate() checks), so a row's baseline has always
    // been emitted — and its usability decided — before the row.
    std::mutex mu;
    std::vector<char> done(n, 0);
    std::vector<char> baselineUsable(n, 0);
    std::size_t frontier = 0;

    auto emitReadyLocked = [&]() {
        while (frontier < n && done[frontier]) {
            const std::size_t i = frontier++;
            if (skippedFlag[i])
                continue; // abandoned past the deadline: no row
            const RunResult &r = results[i];
            out.raw.push_back(r);
            const int b = plan.baseline[i];
            const NormalizedResult *normPtr = nullptr;
            NormalizedResult norm;
            if (b < 0) {
                baselineUsable[i] = usableBaseline(r);
                if (!baselineUsable[i])
                    warn("degenerate SRAM baseline for %s (zero energy "
                         "or time); skipping its normalized rows",
                         r.app.c_str());
            } else if (baselineUsable[static_cast<std::size_t>(b)]) {
                norm = normalize(
                    r, results[static_cast<std::size_t>(b)]);
                out.normalized.push_back(norm);
                normPtr = &norm;
            }
            for (ResultSink *s : sinks)
                s->consume(plan, i, r, normPtr, simulatedFlag[i] != 0);
        }
    };

    // Non-default energy models key their rows separately (|en= tag);
    // the calibrated defaults keep the legacy keys byte-identical.
    const std::string energyTag = energyKeyTag(plan.energy);

    const unsigned jobs = resolveJobs(jobs_);
    std::vector<WorkerCtx> ctxs(jobs);
    parallelForWorkers(n, jobs, [&](std::size_t i, unsigned worker) {
        const auto t0 = std::chrono::steady_clock::now();
        // Compared in double seconds: a deadline past the clock's range
        // (about 9.2e9 s) never expires instead of overflowing.
        if (deadlineSeconds > 0 &&
            std::chrono::duration<double>(t0 - wallStart).count() >=
                deadlineSeconds) {
            // Cooperative overload control: the budget is spent, so
            // abandon instead of starting more work.
            skipped.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(mu);
            skippedFlag[i] = 1;
            done[i] = 1;
            emitReadyLocked();
            return;
        }
        const Scenario &sc = plan.scenarios[i];
        ScenarioKey sk = sc.key();
        sk.energy = energyTag;
        const std::string key = sk.str();
        CacheRow row;
        if (store_ != nullptr && store_->lookup(key, row)) {
            RunResult r = runFromCacheRow(sc.app, sc.config,
                                          sc.retentionUs,
                                          sc.machineLabel(), row);
            // Cache rows carry only the per-level totals; rebuild the
            // dyn/leak/ref matrix from them (leakage and LLC refresh
            // exact, upper-level split by the documented closure —
            // energy_model.hh).  The fresh path below applies the same
            // closure, so a warm reload is byte-identical to the run
            // that produced the row (a killed sweep resumed from its
            // store depends on this).
            reconstructEnergyMatrix(r.energy, plan.energy,
                                    sc.machine(plan.energy), r.execTicks,
                                    row.refreshes3);
            results[i] = std::move(r);
        } else {
            LogPrefix scope(sc.logLabel());
            inform("simulating ...");
            WorkerCtx &ctx = ctxs[worker];
            const MachineConfig cfg = sc.machine(plan.energy);
            // All prior arena-backed state (the previous scenario's
            // simulator) is dead by now; recycle the chunks.
            ctx.arena.reset();
            RunResult r = runOnce(cfg, sc.resolveWorkload(), sc.sim,
                                  plan.energy, &ctx.arena, &ctx.arrays);
            // Stamp the plan's labels (0.0 retention for SRAM
            // baselines; the scenario's own app spelling, which for a
            // spec workload may be terser than the canonical name the
            // runner saw) so a fresh run and a cache reload of it
            // report identically.
            r.retentionUs = sc.retentionUs;
            r.app = sc.app;
            // Replace the simulator's exact dyn/leak/ref matrix with
            // the closure over the cacheable aggregates — the same
            // function the warm path applies — so a future cache
            // reload of this row reproduces it byte-for-byte.
            reconstructEnergyMatrix(
                r.energy, plan.energy, cfg, r.execTicks,
                static_cast<double>(r.counts.l3Refreshes));
            if (store_ != nullptr)
                store_->insert(key, cacheRowOf(r));
            simulated.fetch_add(1, std::memory_order_relaxed);
            simulatedFlag[i] = 1;
            results[i] = std::move(r);
        }
        busyNanos.fetch_add(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count(),
            std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu);
        done[i] = 1;
        emitReadyLocked();
    });
    if (store_ != nullptr)
        store_->flush();

    out.metrics.scenarios = n;
    out.metrics.simulated = simulated.load();
    out.metrics.skipped = skipped.load();
    out.metrics.cacheHits =
        n - out.metrics.simulated - out.metrics.skipped;
    if (out.metrics.skipped > 0)
        warn("run deadline (%.2fs) expired: abandoned %zu of %zu "
             "scenario(s) before they started",
             deadlineSeconds, out.metrics.skipped, n);
    out.metrics.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();
    out.metrics.busySeconds =
        static_cast<double>(busyNanos.load()) * 1e-9;
    out.metrics.jobs = jobs;
    for (ResultSink *s : sinks)
        s->end(plan, out);
    return out;
}

} // namespace refrint
