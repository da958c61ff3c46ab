/**
 * @file
 * Worker: executes one index range of an experiment plan — the
 * subprocess half of the coordinator/worker pair (`refrint_cli worker
 * --plan F --range a:b --store D`).
 *
 * The worker loads the *full* plan, carves out scenarios [begin, end),
 * and streams one JSON Lines row per scenario to @p out in plan
 * order.  Rows carry their global plan identity (key, app, config,
 * ...), so concatenating every range's output in range order is
 * byte-identical to a single-process `sweep --plan F --jsonl -` run.
 *
 * A range scenario whose baseline falls *before* the range is handled
 * by prepending that baseline to the executed sub-plan (its result is
 * needed for normalization) while suppressing its row from the output
 * stream — the coordinator aligns ranges to baseline groups so this
 * path is normally cold, but any range is correct.
 *
 * Every emitted row is flushed immediately: the coordinator watches
 * the output file's growth as the worker's liveness signal (progress
 * deadline) and salvages the flushed prefix of a dead worker's stream.
 */

#ifndef REFRINT_SERVICE_WORKER_HH
#define REFRINT_SERVICE_WORKER_HH

#include <cstdio>
#include <string>

namespace refrint
{

struct WorkerRangeOptions
{
    std::string planPath;    ///< JSON plan file (the full plan)
    std::size_t begin = 0;   ///< first scenario index (inclusive)
    std::size_t end = 0;     ///< one past the last index
    std::string storeDir;    ///< sharded result store; "" = none
    unsigned jobs = 1;       ///< threads within this worker
    std::FILE *out = nullptr; ///< JSONL row stream (default stdout)
};

/**
 * Run scenarios [begin, end) of the plan; 0 on success, 1 on a
 * runtime error.  An empty storeDir means no persistence (every
 * scenario simulates).
 *
 * Chaos hook: a $REFRINT_FAULTS schedule (service/faults.hh) may
 * crash, hang or slow this worker right before it emits a named
 * global row — on attempt 0 only ($REFRINT_WORKER_ATTEMPT unset or
 * "0"), so the coordinator's recovery is what tests observe.
 */
int runWorkerRange(const WorkerRangeOptions &opts);

} // namespace refrint

#endif // REFRINT_SERVICE_WORKER_HH
