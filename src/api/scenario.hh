/**
 * @file
 * Scenario: one fully-specified run point as a first-class value.
 *
 * A Scenario names everything that affects a simulation's result —
 * workload, refresh configuration, retention, ambient temperature,
 * machine scale/technology, and the simulation parameters — so an
 * experiment is a list of values rather than a nest of loop indices.
 * Its ScenarioKey is the canonical structured identity of the run:
 * the key's string form reproduces the legacy sweep-cache keys byte
 * for byte (v5/v6 cache files stay valid), and two scenarios collide
 * exactly when their keys compare equal.
 *
 * Key-compat contract (see DESIGN.md "Experiment API"):
 *
 *     app|config|retentionUs|refs|seed[|wl=P][|amb=C][|mach=M][|en=H]
 *
 * with retentionUs printed %.1f, ambient %.2f (only when nonzero), and
 * the machine label (only when non-default) from machineIdFor().  The
 * |wl= segment carries a parameterized workload method's canonical
 * parameter list (workload/method.hh); it is always present for a
 * method instance — even at all-default parameters — and never for a
 * legacy-named workload, so method rows cannot alias legacy rows and
 * every pre-registry key stays byte-identical.
 */

#ifndef REFRINT_API_SCENARIO_HH
#define REFRINT_API_SCENARIO_HH

#include <cstdint>
#include <string>

#include "config/machine_config.hh"
#include "energy/energy_params.hh"
#include "system/cmp_system.hh"
#include "workload/workload.hh"

namespace refrint
{

/** Canonical structured identity of one run: every field that keys the
 *  result cache.  str() is the (legacy-compatible) cache-key string. */
struct ScenarioKey
{
    std::string app;
    std::string config; ///< "SRAM" or a policy name, e.g. "R.WB(32,32)"

    /** Canonical parameter list of a workload-method instance (the
     *  "|wl=" payload, e.g. "tables=shared,..."); "" for legacy-named
     *  workloads. */
    std::string workload;
    double retentionUs = 0;
    std::uint64_t refs = 0;
    std::uint64_t seed = 0;
    double ambientC = 0;    ///< 0 = isothermal (no |amb= segment)
    std::string machine;    ///< "" = default machine (no |mach= segment)

    /** Energy-model tag (energyKeyTag of the plan's EnergyParams):
     *  "" = the calibrated defaults (no |en= segment), so rows from a
     *  re-parameterized energy model can never be satisfied by — or
     *  poison — rows computed under the defaults. */
    std::string energy;

    /** Canonical key string; byte-identical to the legacy v5/v6 cache
     *  keys for every scenario the old sweep could express.  Built by
     *  segment, so no axis can ever truncate the key. */
    std::string str() const;

    /**
     * Exact inverse of str(): rebuild the structured key from a
     * cache-key string (the validate subcommand walks a corpus it did
     * not produce).  Returns false for any string str() would not
     * print back byte for byte.
     */
    static bool parse(const std::string &key, ScenarioKey &out);

    bool operator==(const ScenarioKey &o) const;
    bool operator!=(const ScenarioKey &o) const { return !(*this == o); }
};

/**
 * One fully-specified run point, as data.  Value semantics: scenarios
 * can be compared, copied, serialized into plan files, and replayed.
 */
struct Scenario
{
    std::string app;             ///< workload spec ("fft", "agg:...")
    std::string config = "SRAM"; ///< "SRAM" or LLC policy name
    double retentionUs = 0;      ///< 0 for SRAM runs
    double ambientC = 0;         ///< 0 = thermal subsystem off
    std::uint32_t cores = 16;    ///< machine scale (4..64)
    bool hybrid = false;         ///< SRAM L1/L2 over the eDRAM LLC
    SimParams sim;               ///< refs/core, seed, tick budget

    /**
     * Resolved workload.  Plan builders that already hold a Workload
     * (including non-paper micro workloads) set it directly, and the
     * JSON plan loader sets the registry's instance; null only on
     * scenarios built field by field, which resolve by name.
     */
    const Workload *workload = nullptr;

    bool isSram() const { return config == "SRAM"; }

    /** The machine label this scenario's rows are keyed under.  Note
     *  that SRAM baselines are never hybrid (the baseline of a hybrid
     *  machine is the all-SRAM machine at the same core count). */
    std::string machineLabel() const;

    /** The canonical cache/identity key. */
    ScenarioKey key() const;

    /**
     * Whether this scenario can run: the config is SRAM or a policy
     * name parsePolicy() reads; an SRAM scenario has no retention and
     * no ambient; an eDRAM retention is positive and fits a Tick;
     * cores lie in [4, 64]; and its machine passes
     * MachineConfig::check.  False with the reason in @p err otherwise.
     * The workload is resolveWorkload()'s to check.
     */
    bool
    check(std::string &err) const
    {
        MachineConfig unused;
        return tryMachine(EnergyParams::calibrated(), unused, err);
    }

    /** check(), handing back the machine in @p out (@p energy feeds
     *  the thermal subsystem's leakage estimate). */
    bool tryMachine(const EnergyParams &energy, MachineConfig &out,
                    std::string &err) const;

    /** tryMachine()'s machine; panics with its reason instead. */
    MachineConfig machine(const EnergyParams &energy) const;

    /** Resolve the workload pointer (by name when unset); fatal if the
     *  name is unknown. */
    const Workload &resolveWorkload() const;

    /** The log prefix a sweep worker uses for this run, e.g.
     *  "fft/P.all@50us", "fft/P.all@50us/65C/c32". */
    std::string logLabel() const;

    /** Identity comparison (the workload pointer is not identity —
     *  two scenarios naming the same app are equal). */
    bool operator==(const Scenario &o) const;
    bool operator!=(const Scenario &o) const { return !(*this == o); }
};

} // namespace refrint

#endif // REFRINT_API_SCENARIO_HH
