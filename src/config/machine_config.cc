#include "config/machine_config.hh"

#include <charconv>
#include <cstdio>

#include "common/log.hh"

namespace refrint
{

const char *
cellTechName(CellTech t)
{
    return t == CellTech::Sram ? "SRAM" : "eDRAM";
}

std::uint32_t
torusDimFor(std::uint32_t tiles)
{
    std::uint32_t d = 1;
    while (d * d < tiles)
        ++d;
    return d;
}

std::uint64_t
MachineConfig::llcBytes() const
{
    return llc().geom.sizeBytes * numBanks();
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
        return cellTechName(levels.front().tech);
    // Group consecutive same-tech levels: "SRAM(il1/dl1/l2)+eDRAM(l3)".
    std::string out;
    for (std::size_t i = 0; i < kNumLevels;) {
        const CellTech t = levels[i].tech;
        std::string names;
        for (; i < kNumLevels && levels[i].tech == t; ++i) {
            if (!names.empty())
                names += "/";
            names += kLevelNames[i];
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
    llc().policy = p;
    setUpperDataPolicy(upperData);
}

void
MachineConfig::setUpperDataPolicy(DataPolicy d)
{
    for (CacheLevelSpec *l : {&il1(), &dl1(), &l2()}) {
        l->policy = llc().policy;
        l->policy.data = d;
    }
}

void
MachineConfig::setTech(CellTech t)
{
    for (CacheLevelSpec &l : levels)
        l.tech = t;
}

bool
MachineConfig::check(std::string &err) const
{
    char buf[256];
    auto fail = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        err = buf;
        return false;
    };
    if (numCores == 0 || numCores > 64)
        return fail("core count %u outside [1, 64] (the directory sharer "
                    "mask is 64 bits wide)",
                    numCores);
    for (std::size_t i = 0; i < kNumLevels; ++i) {
        if (!levels[i].geom.valid())
            return fail("bad cache geometry for %s", kLevelNames[i]);
    }
    if (il1().tech != dl1().tech)
        return fail("IL1 and DL1 must share a cell technology (the energy "
                    "model aggregates them as one L1 class)");
    const ThermalResponse &resp = retention.thermal;
    if (thermal.enabled && !(thermal.ambientC >= resp.minAmbientC() &&
                             thermal.ambientC <= resp.maxAmbientC()))
        return fail("ambient %g deg C is outside the thermal response's "
                    "resolvable range [%g, %g] deg C",
                    thermal.ambientC, resp.minAmbientC(),
                    resp.maxAmbientC());
    const double maxScale = thermal.enabled ? resp.maxFactor : 1.0;
    for (std::size_t i = 0; i < kNumLevels; ++i) {
        const CacheLevelSpec &l = levels[i];
        // The sentry bit decays one tick per line of the unit before
        // the data cells (retention.hh) and needs retention of its own.
        const Tick margin = retention.marginFor(l.geom.numLines());
        if (l.refreshed() && margin >= retention.cellRetention)
            return fail("%s: the %.3f us sentry margin leaves nothing of "
                        "the %.3f us retention",
                        kLevelNames[i], ticksToSeconds(margin) * 1e6,
                        ticksToSeconds(retention.cellRetention) * 1e6);
        // Engines multiply it by the thermal scale and by a burst or
        // group index; the product must fit half a Tick's range.
        const double top = static_cast<double>(retention.cellRetention) *
                           maxScale * l.geom.numLines();
        if (l.refreshed() && top >= 0x1p63)
            return fail("%s: the retention, scaled %gx over %u lines, "
                        "overflows the tick counter",
                        kLevelNames[i], maxScale, l.geom.numLines());
        if (thermal.enabled && l.refreshed() &&
            l.policy.time == TimePolicy::SmartRefresh)
            return fail("%s: the SmartRefresh comparator does not model "
                        "temperature-scaled retention; a thermal machine "
                        "needs a P.* or R.* policy",
                        kLevelNames[i]);
    }
    return true;
}

void
MachineConfig::validate() const
{
    std::string err;
    if (!check(err))
        panic("%s", err.c_str());
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

    // LLC bank-select bits between the line offset and the set index.
    unsigned bankBits = floorLog2(c.numBanks());
    if (!isPowerOfTwo(c.numBanks()))
        ++bankBits; // modulo banking: skip past all bank-variant bits

    c.il1().geom = CacheGeometry{32 * 1024, 2, 64, 1};
    c.dl1().geom = CacheGeometry{32 * 1024, 4, 64, 1};
    c.l2().geom = CacheGeometry{256 * 1024, 8, 64, 2};
    // hashSets: the shared LLC XOR-folds the index (cache_geometry.hh).
    c.llc().geom = CacheGeometry{1024 * 1024, 8, 64, 4, bankBits, true};
    c.il1().engine = EngineGeometry{1, 4, 16};
    c.dl1().engine = EngineGeometry{1, 4, 16};
    c.l2().engine = EngineGeometry{4, 4, 32};
    c.llc().engine = EngineGeometry{16, 4, 64};
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

bool
parseMachineId(const std::string &id, std::uint32_t &cores, bool &hybrid)
{
    // Read an optional "cN", take anything after it as the hybrid
    // suffix, and accept only the label machineIdFor() prints back.
    std::uint32_t c = 16;
    const char *p = id.c_str(), *end = p + id.size();
    if (*p == 'c')
        p = std::from_chars(p + 1, end, c).ptr;
    if (machineIdFor(c, p != end) != id)
        return false;
    cores = c;
    hybrid = p != end;
    return true;
}

} // namespace refrint
