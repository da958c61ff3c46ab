/**
 * @file
 * FaultPlan: deterministic fault injection for the experiment service.
 *
 * A fault plan is a comma-separated schedule of named fault points,
 * parsed from $REFRINT_FAULTS (or a literal string in tests):
 *
 *     store.torn_write@N     the N-th shard append (0-based, counted
 *                            per store instance) writes only a prefix
 *                            of its record, then the process SIGKILLs
 *                            itself — a crash mid-write, leaving a
 *                            torn line for scrub to find and a store
 *                            that a rerun resumes from
 *     store.short_write@N    the N-th shard append writes a prefix and
 *                            then reports a short write(2) — exercises
 *                            the ENOSPC fatal path
 *     serve.drop_conn@REQ    the serve loop abruptly closes the
 *                            connection on its REQ-th request
 *                            (0-based) — a transport failure mid-
 *                            conversation
 *
 * Every recovery path the service claims to have is exercised by
 * scheduling the corresponding fault in a test or a CI smoke step and
 * asserting the system's output is unchanged.  Fault points are pure
 * queries — each instrumented site passes its own ordinal (append
 * count, request count), so a schedule fires deterministically
 * regardless of thread or process interleaving.
 *
 * An unset/empty $REFRINT_FAULTS yields an empty plan; every check is
 * then a single cheap vector-empty test on the hot path.
 */

#ifndef REFRINT_SERVICE_FAULTS_HH
#define REFRINT_SERVICE_FAULTS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace refrint
{

class FaultPlan
{
  public:
    /** An empty plan: nothing ever fires. */
    FaultPlan() = default;

    /**
     * Parse @p spec ("store.torn_write@5,serve.drop_conn@2").  A
     * malformed entry is fatal (exit 1) — a chaos schedule that
     * silently half-applies would "pass" tests without testing
     * anything.
     */
    explicit FaultPlan(const std::string &spec);

    /** The process-wide plan parsed once from $REFRINT_FAULTS. */
    static const FaultPlan &global();

    /**
     * Re-parse $REFRINT_FAULTS into the global plan.  For tests that
     * setenv() after the cached plan was first touched (e.g. a forked
     * child inheriting the parent gtest process's empty plan); a fresh
     * process parses it on first use and never needs it.  Not
     * thread-safe — call before any concurrency starts.
     */
    static void reloadGlobalForTest();

    /** True when `point@ordinal` is scheduled. */
    bool at(const char *point, std::uint64_t ordinal) const;

    bool empty() const { return specs_.empty(); }

  private:
    /** One scheduled fault: `point@arg`. */
    struct Spec
    {
        std::string point;     ///< e.g. "store.torn_write"
        std::uint64_t arg = 0; ///< the @ordinal it fires at
    };

    std::vector<Spec> specs_;
};

} // namespace refrint

#endif // REFRINT_SERVICE_FAULTS_HH
