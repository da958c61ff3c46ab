/**
 * @file
 * ExperimentPlan: an experiment as a first-class, serializable value.
 *
 * A plan is an ordered list of scenarios plus, for each scenario, the
 * index of the SRAM baseline it normalizes against (-1 for baselines
 * themselves).  Plan order is execution/reporting order, exactly the
 * order the legacy Cartesian sweep used, so running the default paper
 * plan reproduces the legacy sweep byte for byte.
 *
 * Plans serialize to JSON (toJson/fromJson, loadFile/saveFile), making
 * any experiment declarative and shareable: `refrint_cli plan dump`
 * writes one, `refrint_cli sweep --plan file.json` replays it, and a
 * round trip (load -> dump -> load) is identity.
 */

#ifndef REFRINT_API_EXPERIMENT_PLAN_HH
#define REFRINT_API_EXPERIMENT_PLAN_HH

#include <string>
#include <vector>

#include "api/scenario.hh"
#include "harness/sweep.hh"

namespace refrint
{

struct ExperimentPlan
{
    std::string name = "custom";
    EnergyParams energy = EnergyParams::calibrated();

    /** Scenarios in execution (and reporting) order. */
    std::vector<Scenario> scenarios;

    /** Per scenario: index of its normalization baseline within
     *  scenarios, or -1 when the scenario is itself a baseline. */
    std::vector<int> baseline;

    std::size_t size() const { return scenarios.size(); }

    /** Append a baseline scenario; returns its index. */
    int addBaseline(Scenario s);

    /** Append a measured scenario normalizing against @p baselineIdx. */
    void add(Scenario s, int baselineIdx);

    /** Panic unless the plan is runnable: baseline/scenario sizes
     *  match, every baseline index points backwards at a baseline. */
    void validate() const;

    // ---- serialization ----

    std::string toJson() const;

    /** Parse a plan document; fatal (exit 1) on malformed input. */
    static ExperimentPlan fromJson(const std::string &text);

    /**
     * Non-fatal parse, for long-running consumers (`refrint serve`)
     * that must survive malformed requests: returns false and sets
     * @p err instead of exiting.  Applies exactly the fromJson checks,
     * including the baseline-family rule (a scenario may only
     * normalize against the SRAM baseline of its own app and machine).
     */
    static bool tryFromJson(const std::string &text, ExperimentPlan &out,
                            std::string &err);

    /** Load/save a plan file; fatal (exit 1) on I/O or parse errors. */
    static ExperimentPlan loadFile(const std::string &path);
    void saveFile(const std::string &path) const;

    // ---- named builders ----

    /**
     * Flatten a sweep spec into a plan, in the exact legacy order:
     * per machine, per app, the SRAM baseline first, then ambient x
     * retention x policy.  Finalizes the spec first: an empty axis
     * takes the paper default.  The environment is never read.
     */
    static ExperimentPlan fromSweepSpec(SweepSpec spec);

    /** The paper's full Table 5.4 sweep (473 runs at paper scale). */
    static ExperimentPlan paperSweep();

    /** Scenario set behind Figs. 6.1-6.4 + the headline table (the
     *  same grid as paperSweep; figures are a reporting choice). */
    static ExperimentPlan figures();

    /**
     * The ambient-temperature study: the headline policy pair
     * (P.all, R.WB(32,32)) at @p retentionUs for @p app, once per
     * ambient, plus the SRAM baseline.
     */
    static ExperimentPlan thermalStudy(const std::string &app,
                                       double retentionUs,
                                       const std::vector<double> &ambients,
                                       const SimParams &sim = {},
                                       const std::vector<MachineAxis>
                                           &machines = {});

    /** The Table 6.1 classification: no simulations of its own (the
     *  binning harness measures directly); pairs with BinningSink. */
    static ExperimentPlan binning();

    bool operator==(const ExperimentPlan &o) const;
    bool operator!=(const ExperimentPlan &o) const { return !(*this == o); }
};

/**
 * Cache-key tag for an energy-model parameterization: "" for the
 * calibrated defaults (legacy keys stay byte-identical), otherwise a
 * 16-hex-digit fingerprint over every EnergyParams field.  Keys carry
 * it as an |en= segment so results computed under different energy
 * models can never satisfy each other.
 */
std::string energyKeyTag(const EnergyParams &energy);

} // namespace refrint

#endif // REFRINT_API_EXPERIMENT_PLAN_HH
