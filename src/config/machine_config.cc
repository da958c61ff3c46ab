#include "config/machine_config.hh"

#include <cstdio>
#include <cstring>

#include "common/log.hh"

namespace refrint
{

const char *
cellTechName(CellTech t)
{
    return t == CellTech::Sram ? "SRAM" : "eDRAM";
}

const char *
levelRoleName(LevelRole r)
{
    switch (r) {
      case LevelRole::IL1:
        return "IL1";
      case LevelRole::DL1:
        return "DL1";
      case LevelRole::L2:
        return "L2";
      case LevelRole::LLC:
        return "LLC";
    }
    return "?";
}

std::uint32_t
torusDimFor(std::uint32_t tiles)
{
    std::uint32_t d = 1;
    while (d * d < tiles)
        ++d;
    return d;
}

CacheLevelSpec &
MachineConfig::level(LevelRole r)
{
    for (CacheLevelSpec &l : levels)
        if (l.role == r)
            return l;
    panic("machine has no %s level", levelRoleName(r));
}

const CacheLevelSpec &
MachineConfig::level(LevelRole r) const
{
    return const_cast<MachineConfig *>(this)->level(r);
}

std::uint64_t
MachineConfig::llcBytes() const
{
    return llc().geom.sizeBytes * numBanks;
}

bool
MachineConfig::anyEdram() const
{
    for (const CacheLevelSpec &l : levels)
        if (l.tech == CellTech::Edram)
            return true;
    return false;
}

bool
MachineConfig::hybrid() const
{
    bool sram = false, edram = false;
    for (const CacheLevelSpec &l : levels) {
        sram = sram || l.tech == CellTech::Sram;
        edram = edram || l.tech == CellTech::Edram;
    }
    return sram && edram;
}

std::string
MachineConfig::configName() const
{
    return anyEdram() ? llc().policy.name() : "SRAM";
}

std::string
MachineConfig::techSummary() const
{
    if (!hybrid())
        return cellTechName(levels.empty() ? CellTech::Sram
                                           : levels.front().tech);
    // Group consecutive same-tech levels: "SRAM(il1/dl1/l2)+eDRAM(l3)".
    std::string out;
    for (std::size_t i = 0; i < levels.size();) {
        const CellTech t = levels[i].tech;
        std::string names;
        for (; i < levels.size() && levels[i].tech == t; ++i) {
            if (!names.empty())
                names += "/";
            names += levels[i].name;
        }
        if (!out.empty())
            out += "+";
        out += std::string(cellTechName(t)) + "(" + names + ")";
    }
    return out;
}

void
MachineConfig::setLlcPolicy(const RefreshPolicy &p, DataPolicy upperData)
{
    for (CacheLevelSpec &l : levels) {
        l.policy = p;
        if (l.sharing != Sharing::BankedShared)
            l.policy.data = upperData;
    }
}

void
MachineConfig::setUpperDataPolicy(DataPolicy d)
{
    const RefreshPolicy llcPolicy = llc().policy;
    for (CacheLevelSpec &l : levels) {
        if (l.sharing == Sharing::BankedShared)
            continue;
        l.policy = llcPolicy;
        l.policy.data = d;
    }
}

void
MachineConfig::setTech(CellTech t)
{
    for (CacheLevelSpec &l : levels)
        l.tech = t;
}

void
MachineConfig::validate() const
{
    if (numCores == 0 || numCores > 64)
        panic("core count %u outside [1, 64] (the directory sharer "
              "mask is 64 bits wide)",
              numCores);
    panicIf(numBanks == 0, "machine needs at least one LLC bank");
    if (torusDim * torusDim < numBanks || torusDim * torusDim < numCores)
        panic("torus %ux%u cannot tile %u cores / %u banks", torusDim,
              torusDim, numCores, numBanks);

    int seen[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const CacheLevelSpec &l = levels[i];
        seen[static_cast<int>(l.role)]++;
        panicIf(l.name == nullptr || l.name[0] == '\0',
                "every level needs a name (it keys the stat groups)");
        for (std::size_t j = 0; j < i; ++j) {
            if (std::strcmp(levels[j].name, l.name) == 0)
                panic("duplicate level name '%s': stat groups would "
                      "silently merge",
                      l.name);
        }
        l.geom.check(l.name);
        if (l.role == LevelRole::LLC) {
            panicIf(l.sharing != Sharing::BankedShared,
                    "the LLC must be banked-shared");
            panicIf(i + 1 != levels.size(),
                    "the LLC must be the last descriptor");
        } else if (l.sharing != Sharing::Private) {
            panic("%s: only the LLC may be shared (the directory lives "
                  "there)",
                  l.name);
        }
    }
    for (int r = 0; r < 4; ++r) {
        if (seen[r] != 1)
            panic("the protocol needs role %s exactly once (found %d)",
                  levelRoleName(static_cast<LevelRole>(r)), seen[r]);
    }
    panicIf(il1().tech != dl1().tech,
            "IL1 and DL1 must share a cell technology (the energy "
            "model aggregates them as one L1 class)");
    for (const CacheLevelSpec &l : levels) {
        if (thermal.enabled && l.refreshed() &&
            l.policy.time == TimePolicy::SmartRefresh)
            panic("%s: the SmartRefresh comparator does not model "
                  "temperature-scaled retention; a thermal machine needs "
                  "a P.* or R.* policy",
                  l.name);
    }
}

MachineConfig
MachineConfig::scaledDown(std::uint32_t factor) const
{
    MachineConfig c = *this;
    for (CacheLevelSpec &l : c.levels)
        l.geom.sizeBytes /= factor;
    return c;
}

MachineConfig
MachineConfig::paper(std::uint32_t cores)
{
    if (cores < 4 || cores > 64)
        panic("paper machine scales to 4..64 cores (got %u)", cores);
    MachineConfig c;
    c.numCores = cores;
    c.numBanks = cores; // one LLC bank per tile, as in Table 5.1
    c.torusDim = torusDimFor(cores);

    // LLC bank-select bits between the line offset and the set index.
    unsigned bankBits = floorLog2(c.numBanks);
    if (!isPowerOfTwo(c.numBanks))
        ++bankBits; // modulo banking: skip past all bank-variant bits

    CacheLevelSpec il1;
    il1.name = "il1";
    il1.role = LevelRole::IL1;
    il1.geom = CacheGeometry{32 * 1024, 2, 64, 1};
    il1.engine = EngineGeometry{1, 4, 16};

    CacheLevelSpec dl1 = il1;
    dl1.name = "dl1";
    dl1.role = LevelRole::DL1;
    dl1.geom = CacheGeometry{32 * 1024, 4, 64, 1};

    CacheLevelSpec l2;
    l2.name = "l2";
    l2.role = LevelRole::L2;
    l2.geom = CacheGeometry{256 * 1024, 8, 64, 2};
    l2.engine = EngineGeometry{4, 4, 32};

    CacheLevelSpec l3;
    l3.name = "l3";
    l3.role = LevelRole::LLC;
    l3.sharing = Sharing::BankedShared;
    // hashSets: the shared LLC XOR-folds the index (cache_geometry.hh).
    l3.geom = CacheGeometry{1024 * 1024, 8, 64, 4, bankBits, true};
    l3.engine = EngineGeometry{16, 4, 64};

    c.levels = {il1, dl1, l2, l3};
    c.machineId = machineIdFor(cores, /*hybrid=*/false);
    return c;
}

MachineConfig
MachineConfig::paperSram(std::uint32_t cores)
{
    MachineConfig c = paper(cores);
    c.setTech(CellTech::Sram);
    return c;
}

MachineConfig
MachineConfig::paperSramDecay(Tick interval, std::uint32_t cores)
{
    MachineConfig c = paperSram(cores);
    c.decay.enabled = true;
    c.decay.interval = interval;
    return c;
}

MachineConfig
MachineConfig::paperEdram(const RefreshPolicy &policy, Tick retention,
                          std::uint32_t cores)
{
    MachineConfig c = paper(cores);
    c.setLlcPolicy(policy);
    c.retention.cellRetention = retention;
    return c;
}

MachineConfig
MachineConfig::paperEdramThermal(const RefreshPolicy &policy,
                                 Tick retention, double ambientC,
                                 std::uint32_t cores)
{
    MachineConfig c = paperEdram(policy, retention, cores);
    c.thermal.enabled = true;
    c.thermal.ambientC = ambientC;
    return c;
}

MachineConfig
MachineConfig::paperHybrid(const RefreshPolicy &policy, Tick retention,
                           std::uint32_t cores)
{
    MachineConfig c = paperEdram(policy, retention, cores);
    c.il1().tech = CellTech::Sram;
    c.dl1().tech = CellTech::Sram;
    c.l2().tech = CellTech::Sram;
    c.machineId = machineIdFor(cores, /*hybrid=*/true);
    return c;
}

std::string
machineIdFor(std::uint32_t cores, bool hybrid)
{
    std::string id;
    if (cores != 16) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "c%u", cores);
        id = buf;
    }
    if (hybrid)
        id += id.empty() ? "hyb" : "+hyb";
    return id;
}

} // namespace refrint
