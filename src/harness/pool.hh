/**
 * @file
 * Worker threads for the sweep harness.
 *
 * parallelForWorkers() is the only entry point the harness needs: it
 * runs indices [0, n) on up to @p jobs threads, which it starts and
 * joins itself, and returns when every index has been processed.  The
 * threads claim indices from one shared counter (dynamic load
 * balancing), so long simulations do not serialize behind short ones.
 * With jobs <= 1 it degenerates to a plain loop on the calling thread,
 * so the serial path stays exactly the serial path.
 */

#ifndef REFRINT_HARNESS_POOL_HH
#define REFRINT_HARNESS_POOL_HH

#include <cstddef>
#include <functional>

namespace refrint
{

/**
 * Resolve a worker count: an explicit @p jobs > 0 wins, otherwise
 * $REFRINT_JOBS (strictly parsed), otherwise 1.
 */
unsigned resolveJobs(unsigned jobs = 0);

/**
 * Run @p fn(i, worker) for every i in [0, n) on up to @p jobs threads.
 * Indices are claimed dynamically, so completion order is arbitrary —
 * callers must write results into per-index slots to stay
 * deterministic.  @p worker is a stable id in [0, jobs): every
 * invocation on the same thread sees the same id, so callers can give
 * each worker private scratch state (arenas, memo caches) without
 * locking.  jobs <= 1 runs inline with worker id 0.
 */
void parallelForWorkers(
    std::size_t n, unsigned jobs,
    const std::function<void(std::size_t, unsigned)> &fn);

} // namespace refrint

#endif // REFRINT_HARNESS_POOL_HH
