/**
 * @file
 * The paper's full parameter sweep (Table 5.4): 3 retention times x
 * {Periodic, Refrint} x {All, Valid, Dirty, WB(4,4), WB(8,8),
 * WB(16,16), WB(32,32)} per application, plus one SRAM baseline run per
 * application — 43 runs per app.
 *
 * SweepSpec is a plain value of the sweep's axes;
 * ExperimentPlan::fromSweepSpec (api/experiment_plan.hh) flattens it
 * into a plan, and Session::run (api/session.hh) executes the plan
 * into a SweepResult.  A sweep is expensive (473 simulations at full
 * size), so a session given a ShardedStore persists each row under a
 * key of every parameter that affects it; a repeat run is free.
 */

#ifndef REFRINT_HARNESS_SWEEP_HH
#define REFRINT_HARNESS_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace refrint
{

/** The paper's seven data policies for one timing policy. */
std::vector<RefreshPolicy> paperDataPolicies(TimePolicy t);

/** All 14 timing x data combinations, Periodic first (plot order). */
std::vector<RefreshPolicy> paperPolicySweep();

/** The paper's three retention times, in ticks. */
std::vector<Tick> paperRetentions();

/**
 * One point on the sweep's machine axis: the paper machine scaled to
 * @p cores cores, either uniformly eDRAM (policy swept at the LLC) or
 * hybrid (SRAM L1/L2 over the eDRAM LLC).  The SRAM normalization
 * baseline is always the all-SRAM machine at the same core count.
 */
struct MachineAxis
{
    std::uint32_t cores = 16;
    bool hybrid = false;

    bool
    isDefault() const
    {
        return cores == 16 && !hybrid;
    }
};

struct SweepSpec
{
    std::vector<const Workload *> apps; ///< defaults to all 11
    std::vector<Tick> retentions;       ///< defaults to 50/100/200 us
    std::vector<RefreshPolicy> policies; ///< defaults to all 14
    SimParams sim;
    EnergyParams energy = EnergyParams::calibrated();

    /**
     * Machines to sweep.  Empty (the default) runs the paper's
     * 16-core machine — exactly the legacy sweep, byte for byte; its
     * rows keep their legacy keys.  Non-default machines key
     * their rows with an extra "|mach=" segment, so they can never
     * collide with (or be satisfied by) a default-machine row.
     */
    std::vector<MachineAxis> machines;

    /**
     * Ambient temperatures (deg C) for the thermal subsystem.  Empty
     * (the default) runs the paper's isothermal machine — exactly the
     * legacy sweep, byte for byte.  Non-empty adds ambient as an outer
     * scenario axis: every (retention x policy) point is simulated once
     * per ambient with activity-driven bank temperatures enabled.  The
     * SRAM baseline is never thermal (SRAM retention is unlimited).
     */
    std::vector<double> ambients;

    /** Fill any empty app/retention/policy axis with the paper
     *  defaults. */
    void finalize();
};

/**
 * Observability counters for one plan execution, filled by
 * Session::run() and carried on SweepResult so every consumer — the
 * sweep CLI's progress summary, `refrint serve`'s per-request metrics,
 * embedding code — reports the same numbers instead of ad-hoc log
 * lines.
 */
struct RunMetrics
{
    std::size_t scenarios = 0; ///< rows in the plan
    std::size_t simulated = 0; ///< executed fresh (store misses)
    std::size_t cacheHits = 0; ///< answered from the result store
    std::size_t skipped = 0;   ///< abandoned: run deadline expired
                               ///< before these scenarios started
    double wallSeconds = 0;    ///< plan wall time
    double busySeconds = 0;    ///< summed per-scenario wall time
    unsigned jobs = 1;         ///< worker threads used

    /** Fraction of worker capacity kept busy (1.0 = perfect). */
    double
    utilization() const
    {
        return wallSeconds > 0 && jobs > 0
                   ? busySeconds / (wallSeconds * jobs)
                   : 0.0;
    }
};

/** One app's SRAM baseline plus all its policy runs, normalized. */
struct SweepResult
{
    std::vector<RunResult> raw;             ///< includes SRAM baselines
    std::vector<NormalizedResult> normalized;

    /** Run observability counters (see RunMetrics); a warm-store sweep
     *  reports metrics.simulated == 0. */
    RunMetrics metrics;

    /**
     * Mean of @p field over the normalized rows matching the filter
     * (retention in us; empty app list = all apps).  The mean never
     * silently pools across machines: if the matching rows span more
     * than one machine this is fatal — name the machine with the
     * overload below.
     */
    double average(double retentionUs, const std::string &config,
                   const std::vector<std::string> &apps,
                   double NormalizedResult::*field) const;

    /** The mean restricted to one machine ("" = the default 16-core
     *  machine). */
    double average(double retentionUs, const std::string &config,
                   const std::vector<std::string> &apps,
                   double NormalizedResult::*field,
                   const std::string &machine) const;

    /**
     * Locate a row by (app, retention, config).  retentionUs <= 0
     * matches any retention.  Never silently guesses across the
     * machine/ambient axes: when matching rows disagree on machine or
     * ambient, this is fatal — use the full-identity overload.
     */
    const NormalizedResult *find(const std::string &app,
                                 double retentionUs,
                                 const std::string &config) const;

    /** Locate a row by its full scenario identity ("" = the default
     *  machine, ambientC 0 = the isothermal rows). */
    const NormalizedResult *find(const std::string &app,
                                 double retentionUs,
                                 const std::string &config,
                                 const std::string &machine,
                                 double ambientC = 0.0) const;
};

} // namespace refrint

#endif // REFRINT_HARNESS_SWEEP_HH
