/**
 * @file
 * Shared fixtures for the Refrint test suite: a scaled-down machine so
 * individual tests run in milliseconds, helpers to drive a system with
 * micro workloads, and one-shot callbacks for tests that drive an
 * event queue by hand.
 */

#ifndef REFRINT_TESTS_TEST_UTIL_HH
#define REFRINT_TESTS_TEST_UTIL_HH

#include <functional>
#include <string>
#include <vector>

#include "coherence/hierarchy.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "sim/event_queue.hh"
#include "system/cmp_system.hh"
#include "workload/micro.hh"

namespace refrint::test
{

/**
 * One-shot callbacks for tests that drive an EventQueue by hand.
 * at() keeps the callable and schedules this client through the
 * ordinary EventQueue::schedule(), with the callable's index as the
 * tag, so these events take the same sequence numbers and dispatch
 * path as any simulator event.  Must outlive the dispatch of every
 * event it scheduled.
 */
class OneShots : public EventClient
{
  public:
    explicit OneShots(EventQueue &eq) : eq_(eq) {}

    /** Call @p fn(now) once, at tick @p when. */
    void
    at(Tick when, std::function<void(Tick)> fn)
    {
        fns_.push_back(std::move(fn));
        eq_.schedule(when, this, fns_.size() - 1);
    }

    void
    fire(Tick now, std::uint64_t tag) override
    {
        // Move out first: the callable may call at(), growing fns_.
        const std::function<void(Tick)> fn = std::move(fns_[tag]);
        fn(now);
    }

  private:
    EventQueue &eq_;
    std::vector<std::function<void(Tick)>> fns_;
};

/**
 * A 4-core, 4-bank machine (scalable via @p cores) with small caches
 * and a short retention so refresh activity shows up within
 * microseconds of simulated time.  Line size and latencies match the
 * paper config.
 */
MachineConfig tinyConfig(CellTech tech = CellTech::Edram,
                         std::uint32_t cores = 4);

/** tinyConfig with a specific LLC policy/retention. */
MachineConfig tinyEdram(const RefreshPolicy &policy,
                        Tick retention = usToTicks(5.0));

/** Run @p app on @p cfg for @p refs refs/core; returns the result. */
RunResult runTiny(const MachineConfig &cfg, const Workload &app,
                  std::uint64_t refs, std::uint64_t seed = 7);

/**
 * Flatten @p spec into its plan and run it through a Session on
 * @p jobs workers (0 = $REFRINT_JOBS, or serial), persisting rows in
 * the sharded store at @p storeDir ("" = no store: every scenario
 * simulates).
 */
SweepResult runSpec(SweepSpec spec, const std::string &storeDir = "",
                    unsigned jobs = 0);

} // namespace refrint::test

#endif // REFRINT_TESTS_TEST_UTIL_HH
