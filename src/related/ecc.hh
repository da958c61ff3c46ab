/**
 * @file
 * ECC-assisted refresh-period extension (Emma et al., IEEE Micro 2008;
 * Wilkerson et al., ISCA 2010; paper §7).
 *
 * Instead of refreshing at the rate of the *weakest* cell, an
 * error-correcting code tolerates the first failures, so the global
 * refresh period can be set by a higher percentile of the retention
 * distribution.  Stronger codes buy longer periods but cost storage
 * (more leakage + larger arrays), and encode/decode energy on every
 * access.  This is an analytic transformation of the machine
 * configuration: it multiplies the L3 retention period and inflates the
 * L3 energy coefficients, which the related-work bench then feeds to
 * the ordinary runner.
 */

#ifndef REFRINT_RELATED_ECC_HH
#define REFRINT_RELATED_ECC_HH

#include <cstdint>

#include "config/machine_config.hh"
#include "energy/energy_params.hh"

namespace refrint
{

/** Code strength applied to the L3 eDRAM arrays. */
enum class EccScheme : std::uint8_t
{
    None = 0,
    /** SECDED (72,64): corrects single-bit failures. */
    Secded,
    /** Multi-bit BCH in the style of Wilkerson et al.'s Hi-ECC. */
    Strong,
};

const char *eccSchemeName(EccScheme s);

/** Analytic properties of one code choice. */
struct EccModel
{
    EccScheme scheme = EccScheme::None;

    /** Fraction of extra bits stored per line (leakage + array area). */
    double storageOverhead() const;

    /** How much longer the refresh period can be, given the code can
     *  ride through the weak-cell tail of the retention distribution. */
    double retentionMultiplier() const;

    /** Dynamic energy factor per access (encode/decode logic). */
    double accessEnergyFactor() const;
};

/**
 * Apply @p scheme to an eDRAM machine: extends cfg.retention and scales
 * the L3 coefficients of @p energy.  L1/L2 are left alone — the paper's
 * refresh problem (and the codes' payoff) live in the large shared LLC.
 */
void applyEcc(EccScheme scheme, MachineConfig &cfg, EnergyParams &energy);

} // namespace refrint

#endif // REFRINT_RELATED_ECC_HH
