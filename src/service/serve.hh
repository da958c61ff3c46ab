/**
 * @file
 * `refrint serve`: a long-running experiment service over a unix or
 * TCP socket, plus the matching `refrint submit` client.
 *
 * Protocol — newline-delimited JSON, one request per line, any number
 * of requests per connection:
 *
 *   <plan document>       run it.  Response: one JSON Lines row per
 *                         scenario (identical to `sweep --jsonl -`),
 *                         then one summary line
 *                         {"done":true,"plan":...,"scenarios":N,
 *                          "warm":W,"cold":C,"queueDepth":Q,
 *                          "wallSeconds":S,"msPerScenario":M}
 *   {"op":"stats"}        service counters:
 *                         {"stats":true,"requests":...,"plans":...,
 *                          "scenarios":...,"warm":...,"cold":...,
 *                          "errors":...,"queueDepth":...}
 *   {"op":"shutdown"}     {"bye":true}, then the server exits.
 *
 * A malformed or rejected request (bad JSON, unknown op, plan failing
 * validation — including the baseline-family rule) answers one
 * {"error":"..."} line and the connection stays usable.
 *
 * Scenarios already in the store are answered warm (no simulation);
 * cold ones are scheduled on the session's worker pool.  One session
 * persists across requests, so with a store a resubmitted plan is
 * all-warm; without one every request simulates.
 * Connections are accepted concurrently but served in arrival order;
 * queueDepth reports how many connections were waiting when a request
 * was picked up.
 *
 * Overload and failure behavior:
 *
 *  - The pending-connection queue is BOUNDED (maxQueue).  A connection
 *    arriving when it is full is shed immediately with one
 *    {"error":"overloaded"} line — fail fast beats an unbounded queue
 *    whose tail latency grows without limit.  Sheds are counted in
 *    the stats ("shed").
 *  - requestTimeoutSec > 0 bounds each plan run's wall time: scenarios
 *    not yet started when the budget expires are abandoned (their rows
 *    are missing) and the response ends with {"error":"deadline ..."}
 *    instead of the done-summary, so clients never mistake a truncated
 *    response for a complete one.
 *  - idleTimeoutSec > 0 closes connections whose client sends nothing
 *    for that long, so one silent client cannot head-of-line block the
 *    service forever.
 *  - SIGTERM drains gracefully: stop accepting, finish every already-
 *    queued connection (under a short read timeout), flush the store,
 *    exit 0.  A restart against the same store answers everything
 *    warm.
 *  - Chaos hook: a $REFRINT_FAULTS schedule (service/faults.hh) entry
 *    serve.drop_conn@N makes the service drop the connection abruptly
 *    while handling request #N (0-based), for client-robustness tests.
 */

#ifndef REFRINT_SERVICE_SERVE_HH
#define REFRINT_SERVICE_SERVE_HH

#include <cstdio>
#include <string>

namespace refrint
{

struct ServeOptions
{
    std::string socketPath; ///< unix socket path ("" = use port)
    unsigned port = 0;      ///< TCP port on 127.0.0.1 (0 = use socket)
    std::string storeDir;   ///< sharded result store; "" = none
                            ///< (every request simulates)
    unsigned jobs = 0;      ///< worker threads (0 = $REFRINT_JOBS)

    std::size_t maxQueue = 16;    ///< pending-connection bound; a full
                                  ///< queue sheds with {"error":
                                  ///< "overloaded"}
    double requestTimeoutSec = 0; ///< per-plan wall deadline; 0 = none
    double idleTimeoutSec = 0;    ///< silent-client read timeout;
                                  ///< 0 = wait forever
};

/** Run the service until a shutdown request or SIGTERM (graceful
 *  drain); 0 on clean shutdown, 1 on setup failure (bad listen
 *  address). */
int runServe(const ServeOptions &opts);

struct SubmitOptions
{
    std::string socketPath;  ///< unix socket path ("" = use port)
    unsigned port = 0;       ///< TCP port on 127.0.0.1
    std::string planPath;    ///< plan file to submit (op "run")
    std::string op = "run";  ///< "run", "stats" or "shutdown"
    std::FILE *out = nullptr; ///< response stream (default stdout)
};

/**
 * Submit one request and stream the response to @p out.  Retries the
 * connect for ~2 s (so a just-forked server can finish binding).
 * Returns 0 on success, 1 when the server answered {"error":...} or
 * the connection failed.
 */
int runSubmit(const SubmitOptions &opts);

} // namespace refrint

#endif // REFRINT_SERVICE_SERVE_HH
