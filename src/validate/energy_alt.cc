#include "validate/energy_alt.hh"

#include <algorithm>

namespace refrint
{

EnergyBreakdown
computeEnergyAlt(const AltEnergyParams &p, const HierarchyCounts &n,
                 const MachineConfig &cfg, Tick execTicks,
                 std::uint64_t totalInstrs)
{
    EnergyBreakdown e;
    const double sec = ticksToSeconds(execTicks);

    auto ratio = [&](CellTech t) {
        return t == CellTech::Edram ? p.edramLeakRatio : 1.0;
    };
    auto offFraction = [&](double offLineTicks, double lines) {
        if (execTicks == 0 || lines <= 0)
            return 0.0;
        const double denom = lines * static_cast<double>(execTicks);
        return std::min(1.0, offLineTicks / denom);
    };

    const CacheLevelSpec &l1Spec = cfg.il1();
    const CacheLevelSpec &l2Spec = cfg.l2();
    const CacheLevelSpec &llcSpec = cfg.llc();

    const double eL1Write = p.eL1Read * p.writeFactor;
    const double eL2Write = p.eL2Read * p.writeFactor;
    const double eL3Write = p.eL3Read * p.writeFactor;

    // Dynamic: reads and writes priced separately.
    e.l1Dyn = static_cast<double>(n.l1Reads) * p.eL1Read +
              static_cast<double>(n.l1Writes) * eL1Write;
    e.l2Dyn = static_cast<double>(n.l2Reads) * p.eL2Read +
              static_cast<double>(n.l2Writes) * eL2Write;
    e.l3Dyn = static_cast<double>(n.l3Reads) * p.eL3Read +
              static_cast<double>(n.l3Writes) * eL3Write;

    // Refresh: a read + restore, charged at the write energy.
    e.l1Ref = static_cast<double>(n.l1Refreshes) * eL1Write;
    e.l2Ref = static_cast<double>(n.l2Refreshes) * eL2Write;
    e.l3Ref = static_cast<double>(n.l3Refreshes) * eL3Write;

    // Leakage: W/KB x capacity, discounted by decay-gated OFF time
    // exactly as the primary model does.
    const double kb = 1.0 / 1024.0;
    const double l1Kb = static_cast<double>(l1Spec.geom.sizeBytes) * kb *
                        kL1sPerCore * cfg.numCores;
    const double l2Kb = static_cast<double>(l2Spec.geom.sizeBytes) * kb *
                        cfg.numCores;
    const double l3Kb = static_cast<double>(llcSpec.geom.sizeBytes) * kb *
                        cfg.numBanks();
    const double l2Lines =
        static_cast<double>(l2Spec.geom.numLines()) * cfg.numCores;
    const double l3Lines =
        static_cast<double>(llcSpec.geom.numLines()) * cfg.numBanks();

    e.l1Leak = p.leakL1PerKb * l1Kb * ratio(l1Spec.tech) * sec;
    e.l2Leak = p.leakL2PerKb * l2Kb * ratio(l2Spec.tech) * sec *
               (1.0 - offFraction(n.l2OffLineTicks, l2Lines));
    e.l3Leak = p.leakL3PerKb * l3Kb * ratio(llcSpec.tech) * sec *
               (1.0 - offFraction(n.l3OffLineTicks, l3Lines));

    e.l1 = e.l1Dyn + e.l1Ref + e.l1Leak;
    e.l2 = e.l2Dyn + e.l2Ref + e.l2Leak;
    e.l3 = e.l3Dyn + e.l3Ref + e.l3Leak;
    e.dram = static_cast<double>(n.dramAccesses) * p.eDramAccess +
             p.dramBackgroundW * sec;

    e.dynamic = e.l1Dyn + e.l2Dyn + e.l3Dyn;
    e.leakage = e.l1Leak + e.l2Leak + e.l3Leak;
    e.refresh = e.l1Ref + e.l2Ref + e.l3Ref;

    e.core = p.eCorePerInstr * static_cast<double>(totalInstrs) +
             p.coreStaticW * cfg.numCores * sec;
    // Flit-hops: total hops spread over the message mix, each message
    // paying its flit count per hop traversed.
    const double msgs = static_cast<double>(n.netDataMsgs) +
                        static_cast<double>(n.netCtrlMsgs);
    const double avgHops =
        msgs > 0 ? static_cast<double>(n.netHops) / msgs : 0.0;
    e.net = p.eNetPerFlitHop * avgHops *
            (static_cast<double>(n.netDataMsgs) * p.flitsPerDataMsg +
             static_cast<double>(n.netCtrlMsgs) * p.flitsPerCtrlMsg);
    return e;
}

} // namespace refrint
