#include "related/ecc.hh"

#include "common/log.hh"

namespace refrint
{

const char *
eccSchemeName(EccScheme s)
{
    switch (s) {
      case EccScheme::None:
        return "noECC";
      case EccScheme::Secded:
        return "SECDED";
      case EccScheme::Strong:
        return "HiECC";
    }
    return "?";
}

double
EccModel::storageOverhead() const
{
    switch (scheme) {
      case EccScheme::None:
        return 0.0;
      case EccScheme::Secded:
        return 8.0 / 64.0; // (72,64): 8 check bits per 64
      case EccScheme::Strong:
        // Hi-ECC stores a strong BCH code at cache-line granularity;
        // Wilkerson et al. report ~2% storage by coding over 1KB, but a
        // line-granular strong code (what a drop-in LLC needs) costs
        // on the order of a SECDED word plus the multi-bit syndrome.
        return 12.0 / 64.0;
    }
    panic("unreachable ECC scheme");
}

double
EccModel::retentionMultiplier() const
{
    // Emma et al.: tolerating the first failures moves the refresh
    // period from the weakest cell to the distribution body — roughly
    // 2x for single-error correction and 4x for multi-bit codes.
    switch (scheme) {
      case EccScheme::None:
        return 1.0;
      case EccScheme::Secded:
        return 2.0;
      case EccScheme::Strong:
        return 4.0;
    }
    panic("unreachable ECC scheme");
}

double
EccModel::accessEnergyFactor() const
{
    switch (scheme) {
      case EccScheme::None:
        return 1.0;
      case EccScheme::Secded:
        return 1.10; // XOR-tree encode/decode on every access
      case EccScheme::Strong:
        return 1.25; // multi-bit syndrome computation
    }
    panic("unreachable ECC scheme");
}

void
applyEcc(EccScheme scheme, MachineConfig &cfg, EnergyParams &energy)
{
    const EccModel m{scheme};
    panicIf(cfg.llc().tech != CellTech::Edram,
            "ECC retention extension applies to eDRAM LLCs");
    cfg.retention.cellRetention = static_cast<Tick>(
        static_cast<double>(cfg.retention.cellRetention) *
        m.retentionMultiplier());
    // Check bits leak and burn access energy alongside the data bits.
    energy.leakL3Bank *= 1.0 + m.storageOverhead();
    energy.eL3Access *= (1.0 + m.storageOverhead()) *
                        m.accessEnergyFactor();
}

} // namespace refrint
