#include "energy/energy_model.hh"

#include <algorithm>

namespace refrint
{

EnergyBreakdown
computeEnergy(const EnergyParams &p, const HierarchyCounts &n,
              const MachineConfig &cfg, Tick execTicks,
              std::uint64_t totalInstrs)
{
    EnergyBreakdown e;
    const double sec = ticksToSeconds(execTicks);

    // Leakage ratio per level: Table 5.2's quarter-leakage applies to
    // eDRAM levels only, so hybrid machines keep full SRAM leakage in
    // the levels that stay SRAM.
    auto ratio = [&](CellTech t) {
        return t == CellTech::Edram ? p.edramLeakRatio : 1.0;
    };

    // Per-level dynamic.
    const double l1Dyn =
        static_cast<double>(n.l1Reads + n.l1Writes) * p.eL1Access;
    const double l2Dyn =
        static_cast<double>(n.l2Reads + n.l2Writes) * p.eL2Access;
    const double l3Dyn =
        static_cast<double>(n.l3Reads + n.l3Writes) * p.eL3Access;

    // Refresh energy = access energy per refreshed line (Table 5.2).
    const double l1Ref = static_cast<double>(n.l1Refreshes) * p.eL1Access;
    const double l2Ref = static_cast<double>(n.l2Refreshes) * p.eL2Access;
    const double l3Ref = static_cast<double>(n.l3Refreshes) * p.eL3Access;

    // Leakage scales with instance count and wall time.  The cache-decay
    // comparator (related/decay.hh) gates idle lines off; its integrated
    // line-OFF time discounts the leakage of the decayed level.
    auto offFraction = [&](double offLineTicks, std::uint64_t lines) {
        if (execTicks == 0 || lines == 0)
            return 0.0;
        const double denom = static_cast<double>(lines) *
                             static_cast<double>(execTicks);
        return std::min(1.0, offLineTicks / denom);
    };

    // Instance counts and line totals come from the machine's shape:
    // kL1sPerCore L1 arrays and one L2 per core, one LLC bank per tile.
    const CacheLevelSpec &l1Spec = cfg.il1();
    const CacheLevelSpec &l2Spec = cfg.l2();
    const CacheLevelSpec &llcSpec = cfg.llc();
    const std::uint64_t l2Lines =
        std::uint64_t{l2Spec.geom.numLines()} * cfg.numCores;
    const std::uint64_t l3Lines =
        std::uint64_t{llcSpec.geom.numLines()} * cfg.numBanks();

    const double l1Leak = p.leakL1 * kL1sPerCore * cfg.numCores *
                          ratio(l1Spec.tech) * sec;
    const double l2Leak = p.leakL2 * cfg.numCores * ratio(l2Spec.tech) *
                          sec *
                          (1.0 - offFraction(n.l2OffLineTicks, l2Lines));
    const double l3Leak = p.leakL3Bank * cfg.numBanks() *
                          ratio(llcSpec.tech) * sec *
                          (1.0 - offFraction(n.l3OffLineTicks, l3Lines));

    e.l1 = l1Dyn + l1Ref + l1Leak;
    e.l2 = l2Dyn + l2Ref + l2Leak;
    e.l3 = l3Dyn + l3Ref + l3Leak;
    e.dram = static_cast<double>(n.dramAccesses) * p.eDramAccess;

    e.dynamic = l1Dyn + l2Dyn + l3Dyn;
    e.leakage = l1Leak + l2Leak + l3Leak;
    e.refresh = l1Ref + l2Ref + l3Ref;

    e.l1Dyn = l1Dyn, e.l1Leak = l1Leak, e.l1Ref = l1Ref;
    e.l2Dyn = l2Dyn, e.l2Leak = l2Leak, e.l2Ref = l2Ref;
    e.l3Dyn = l3Dyn, e.l3Leak = l3Leak, e.l3Ref = l3Ref;

    e.core = p.eCorePerInstr * static_cast<double>(totalInstrs) +
             p.leakCore * cfg.numCores * sec;
    e.net = p.eNetPerHop * static_cast<double>(n.netHops) +
            p.eNetPerDataMsg * static_cast<double>(n.netDataMsgs);
    return e;
}

void
reconstructEnergyMatrix(EnergyBreakdown &e, const EnergyParams &p,
                        const MachineConfig &cfg, Tick execTicks,
                        double l3Refreshes)
{
    const double sec = ticksToSeconds(execTicks);
    auto ratio = [&](CellTech t) {
        return t == CellTech::Edram ? p.edramLeakRatio : 1.0;
    };

    const CacheLevelSpec &l1Spec = cfg.il1();
    const CacheLevelSpec &l2Spec = cfg.l2();
    const CacheLevelSpec &llcSpec = cfg.llc();

    // Cache rows cannot describe decay machines (Scenario has no decay
    // axis), so the off-line leakage discount is zero and these match
    // computeEnergy bit-for-bit on any reloadable row.
    e.l1Leak = p.leakL1 * kL1sPerCore * cfg.numCores *
               ratio(l1Spec.tech) * sec;
    e.l2Leak = p.leakL2 * cfg.numCores * ratio(l2Spec.tech) * sec;
    e.l3Leak = p.leakL3Bank * cfg.numBanks() * ratio(llcSpec.tech) * sec;

    // LLC refresh is exact: the row carries the refresh count and
    // Table 5.2 charges each refresh one line access.
    e.l3Ref = llcSpec.tech == CellTech::Edram
                  ? l3Refreshes * p.eL3Access
                  : 0.0;
    e.l3Dyn = std::max(0.0, e.l3 - e.l3Leak - e.l3Ref);

    // Upper levels: the row only keeps the level total, so split the
    // non-leakage remainder by scaling the LLC's per-line refresh rate
    // to each level's line count (closure; the levels run the pinned
    // Valid data policy, so this over-estimates their refresh slightly
    // and the clamp keeps the split inside the remainder).
    const double l3Lines =
        static_cast<double>(llcSpec.geom.numLines()) * cfg.numBanks();
    const double refPerLine = l3Lines > 0 ? l3Refreshes / l3Lines : 0.0;
    auto split = [&](double total, double leak, CellTech tech,
                     double lines, double eAccess, double &dyn,
                     double &ref) {
        const double rem = std::max(0.0, total - leak);
        ref = tech == CellTech::Edram
                  ? std::min(rem, refPerLine * lines * eAccess)
                  : 0.0;
        dyn = rem - ref;
    };
    const double l1Lines = static_cast<double>(l1Spec.geom.numLines()) *
                           kL1sPerCore * cfg.numCores;
    const double l2Lines =
        static_cast<double>(l2Spec.geom.numLines()) * cfg.numCores;
    split(e.l1, e.l1Leak, l1Spec.tech, l1Lines, p.eL1Access, e.l1Dyn,
          e.l1Ref);
    split(e.l2, e.l2Leak, l2Spec.tech, l2Lines, p.eL2Access, e.l2Dyn,
          e.l2Ref);
}

double
unitEpochPower(double leakW, double eAccessJ, std::uint64_t lineEvents,
               Tick dt)
{
    if (dt == 0)
        return leakW;
    const double dynJ = eAccessJ * static_cast<double>(lineEvents);
    return leakW + dynJ / ticksToSeconds(dt);
}

} // namespace refrint
