/**
 * @file
 * Experiment runner: executes one (workload x machine configuration)
 * run and collects everything the paper's tables and figures need.
 */

#ifndef REFRINT_HARNESS_RUNNER_HH
#define REFRINT_HARNESS_RUNNER_HH

#include <cstdint>
#include <string>

#include "coherence/hierarchy.hh"
#include "energy/energy_model.hh"
#include "system/cmp_system.hh"
#include "workload/workload.hh"

namespace refrint
{

/** Everything measured in one run. */
struct RunResult
{
    std::string app;
    std::string config; ///< "SRAM" or the policy name, e.g. "R.WB(32,32)"

    /** Machine label (MachineConfig::machineId): empty for the paper's
     *  default 16-core machine, "c32" / "hyb" / ... otherwise. */
    std::string machine;

    double retentionUs = 0;

    /** Thermal scenario: ambient temperature in deg C, or 0 when the
     *  thermal subsystem was disabled (the paper's isothermal setup). */
    double ambientC = 0;

    /** Hottest node temperature reached (deg C); 0 when disabled. */
    double maxTempC = 0;

    Tick execTicks = 0;
    std::uint64_t instructions = 0;

    /** Request-serving workloads only: completed request count and
     *  nearest-rank latency percentiles in microseconds (all zero for
     *  workloads without request structure). */
    double requests = 0;
    double reqP50Us = 0;
    double reqP95Us = 0;
    double reqP99Us = 0;

    EnergyBreakdown energy;
    HierarchyCounts counts;

    /** Second opinion from the alternate energy backend
     *  (src/validate/energy_alt.hh), present when the run's
     *  EnergyParams selected it (altModel != 0).  Fresh runs carry the
     *  full matrix; cache reloads carry aggregates only. */
    EnergyBreakdown alt;
    bool hasAlt = false;
};

/** Symmetric relative disagreement between the two backends' system
 *  totals: |a - b| / max(a, b), in [0, 1]; 0 when either is zero. */
double energyDisagreement(const RunResult &r);

/** Normalized (to the full-SRAM run of the same app) view of a run. */
struct NormalizedResult
{
    std::string app;
    std::string config;
    std::string machine; ///< "" = the default 16-core machine
    double retentionUs = 0;
    double ambientC = 0; ///< 0 = thermal subsystem disabled
    double maxTempC = 0;

    double time = 1.0;      ///< exec time / SRAM exec time
    double memEnergy = 1.0; ///< memory energy / SRAM memory energy
    double sysEnergy = 1.0; ///< system energy / SRAM system energy

    // Fractions of SRAM *memory* energy, stackable as in Figs. 6.1/6.2.
    double l1 = 0, l2 = 0, l3 = 0, dram = 0;
    double dynamic = 0, leakage = 0, refresh = 0;
};

/** Run @p app on @p cfg and collect the result.  @p arena, when
 *  non-null, backs the run's simulator allocations, and @p pool the
 *  cache arrays' storage (both recycled by sweep workers; see
 *  common/arena.hh and mem/array_pool.hh). */
RunResult runOnce(const MachineConfig &cfg, const Workload &app,
                  const SimParams &params,
                  const EnergyParams &energy = EnergyParams::calibrated(),
                  Arena *arena = nullptr, ArrayPool *pool = nullptr);

/**
 * Whether @p base can serve as a normalization baseline: nonzero
 * execution time and nonzero memory/system energy.  A degenerate
 * baseline (e.g. a zero-reference run) would turn every normalized row
 * into silent inf/NaN.
 */
bool usableBaseline(const RunResult &base);

/** Normalize @p r against the matching SRAM baseline run @p base.
 *  Panics if @p base is degenerate — check usableBaseline() to skip
 *  instead. */
NormalizedResult normalize(const RunResult &r, const RunResult &base);

} // namespace refrint

#endif // REFRINT_HARNESS_RUNNER_HH
