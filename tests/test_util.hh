/**
 * @file
 * Shared fixtures for the Refrint test suite: a scaled-down machine so
 * individual tests run in milliseconds, and helpers to drive a system
 * with micro workloads.
 */

#ifndef REFRINT_TESTS_TEST_UTIL_HH
#define REFRINT_TESTS_TEST_UTIL_HH

#include <string>

#include "coherence/hierarchy.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "system/cmp_system.hh"
#include "workload/micro.hh"

namespace refrint::test
{

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
