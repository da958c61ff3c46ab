/**
 * @file
 * Corpus-wide invariant checker behind `refrint validate`.
 *
 * Streams every row out of a result corpus (a sharded store; import
 * a legacy CSV cache with `refrint cache migrate` first), rebuilds
 * each row's scenario from its key, and checks two kinds of facts:
 *
 *  - row-local invariants: finite/non-negative fields, the per-level
 *    vs. per-component decomposition identity, monotone latency
 *    percentile ladders, SRAM rows carrying no refresh, the LLC
 *    refresh count staying under the all-lines x periods ceiling of
 *    its sentry cadence, the alternate-backend tail agreeing with the
 *    primary within its envelope, and the analytic predictor's
 *    system-energy envelope (validate/analytic_model.hh);
 *  - cross-row invariants over scenario groups: P.all carrying the
 *    maximum refresh power of its group (up to the documented
 *    sentry-margin cadence factor for Refrint rows), refresh energy
 *    non-increasing from All to Valid to Dirty data policies, and
 *    energy monotone along the retention axis.
 *
 * Findings are classified into *violations* (bugs: the corpus or the
 * simulator is wrong) and *documented model limits* (expected residual
 * disagreement, e.g. small total-energy inversions along the retention
 * axis where dynamic-energy noise outweighs the refresh delta).  Exit
 * contract: 0 = clean, 1 = violations (or an unreadable corpus, via
 * fatal), 2 = usage error (CLI layer).  The optional JSON report makes
 * the same facts machine-readable for CI.
 */

#ifndef REFRINT_VALIDATE_VALIDATE_HH
#define REFRINT_VALIDATE_VALIDATE_HH

#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace refrint
{

struct ValidateOptions
{
    std::string storeDir;  ///< sharded store directory to check
    std::string jsonOut;   ///< JSON report path ("" = none)
    bool verbose = false;  ///< list every finding, not just a summary
    std::FILE *out = nullptr; ///< defaults to stdout
};

/** One finding: a key, the check that fired, and the evidence. */
struct ValidateFinding
{
    std::string key;
    std::string check;
    std::string detail;
};

struct ValidateReport
{
    std::size_t rows = 0;            ///< rows in the corpus
    std::size_t analyticChecked = 0; ///< rows with an analytic estimate
    std::size_t altChecked = 0;      ///< rows carrying the alt backend
    std::vector<ValidateFinding> violations;
    std::vector<ValidateFinding> limits; ///< documented model limits

    /** Max relative analytic error seen per scenario family
     *  ("P.all/c1", ...), for envelope calibration and the report. */
    std::map<std::string, double> analyticErr;

    /** Max primary-vs-alternate disagreement seen. */
    double maxAltDisagreement = 0;

    bool clean() const { return violations.empty(); }
};

/**
 * Run every check over the corpus named by @p opts.  Prints a summary
 * (and with verbose every finding) to opts.out, writes the JSON report
 * when requested, and returns the exit code: 0 clean, 1 violations.
 * Fatal (exit 1) when the corpus or the report path is unusable.
 * storeDir must be set (the CLI enforces this as a usage error before
 * calling).
 */
int runValidate(const ValidateOptions &opts,
                ValidateReport *reportOut = nullptr);

} // namespace refrint

#endif // REFRINT_VALIDATE_VALIDATE_HH
