/**
 * @file
 * The simulated CMP as data: the paper's Table 5.1 machine shape with
 * the two things this simulator varies on it.
 *
 * The shape is fixed.  Each core has a private IL1, DL1 and L2 over a
 * banked shared inclusive LLC that holds the full-map directory, one
 * bank per tile of a square torus.  MachineConfig holds these four
 * levels by role (LevelRole indexes MachineConfig::levels), derives
 * the bank count and the torus side from the core count, and keeps
 * the interconnect and DRAM timings as constants.
 *
 * What varies:
 *
 *  - the core count (4..64; the torus and LLC banking scale with it,
 *    and the directory is a 64-bit sharer mask), and
 *  - each level's cell technology, geometry, refresh policy and
 *    engine, enabling hybrid machines such as the SRAM-L1/L2 +
 *    eDRAM-L3 deployment the paper calls realistic (§8).
 *
 * The default-constructed factories reproduce the paper's evaluated
 * 16-core machine bit for bit (see DESIGN.md "Machine configuration").
 */

#ifndef REFRINT_CONFIG_MACHINE_CONFIG_HH
#define REFRINT_CONFIG_MACHINE_CONFIG_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "edram/refresh_engine.hh"
#include "edram/refresh_policy.hh"
#include "edram/retention.hh"
#include "mem/cache_geometry.hh"
#include "related/decay.hh"
#include "thermal/thermal_model.hh"

namespace refrint
{

/** Memory cell technology of one cache level (Table 5.2). */
enum class CellTech : std::uint8_t
{
    Sram = 0, ///< baseline: high leakage, no refresh
    Edram,    ///< proposed: quarter leakage, needs refresh
};

const char *cellTechName(CellTech t);

/**
 * Protocol role of a level, and its index in MachineConfig::levels.
 * The three private levels come first, in the order a tile builds
 * them; the LLC is last.
 */
enum class LevelRole : std::uint8_t
{
    IL1 = 0, ///< per-core instruction L1
    DL1,     ///< per-core data L1 (write-through, no-write-allocate)
    L2,      ///< per-core private unified L2
    LLC,     ///< banked shared last-level cache with the directory
};

constexpr std::size_t kNumLevels = 4;

/** Stat-group name of each level, indexed by LevelRole. */
constexpr const char *kLevelNames[kNumLevels] = {"il1", "dl1", "l2", "l3"};

/** L1 arrays per core (IL1 and DL1): the energy models' L1 class. */
constexpr std::uint32_t kL1sPerCore = 2;

/** Fixed Table 5.1 timings, in ticks (1 tick = 1 ns). */
constexpr Tick kHopLatency = 2;        ///< per torus router+link traversal
constexpr Tick kDataSerialization = 4; ///< extra cycles for a 64B payload
constexpr Tick kDramLatency = 40;      ///< Table 5.1: 40 ns
constexpr Tick kDramMinGap = 4;        ///< channel occupancy per access

/** Smallest torus dimension whose k x k tiling holds @p tiles. */
std::uint32_t torusDimFor(std::uint32_t tiles);

/** One level of the hierarchy, as data. */
struct CacheLevelSpec
{
    CellTech tech = CellTech::Edram;
    CacheGeometry geom;    ///< per unit (per bank for the LLC)
    EngineGeometry engine; ///< refresh-engine microarch (§5)

    /** Refresh policy effective at this level when tech == Edram.  The
     *  sweep varies the LLC's; private levels run the same timing
     *  policy with their data policy pinned (Valid in the paper). */
    RefreshPolicy policy = RefreshPolicy::refrint(DataPolicy::Valid);

    bool refreshed() const { return tech == CellTech::Edram; }
};

struct MachineConfig
{
    /** Cores, one tile each: the core's private levels and one LLC
     *  bank. */
    std::uint32_t numCores = 16;

    /** The four levels, indexed by LevelRole. */
    std::array<CacheLevelSpec, kNumLevels> levels;

    RetentionParams retention{usToTicks(50.0), kTickNever, {}, {}};

    /** Activity-driven per-bank temperatures feeding back into the
     *  retention (src/thermal/); disabled by default, which preserves
     *  the paper's isothermal evaluation bit for bit. */
    ThermalParams thermal;

    /** Cache-decay comparator settings (SRAM machines only, §7). */
    DecayConfig decay;

    /**
     * Cache-key machine label: empty for the paper's default 16-core
     * machine (legacy sweep-cache keys stay exactly as they were),
     * "c32" / "hyb" / "c32+hyb" for scaled or hybrid machines.  Set by
     * the factories; carried into every sweep-cache row key.
     */
    std::string machineId;

    CacheLevelSpec &il1() { return levels[0]; }
    CacheLevelSpec &dl1() { return levels[1]; }
    CacheLevelSpec &l2() { return levels[2]; }
    CacheLevelSpec &llc() { return levels[3]; }
    const CacheLevelSpec &il1() const { return levels[0]; }
    const CacheLevelSpec &dl1() const { return levels[1]; }
    const CacheLevelSpec &l2() const { return levels[2]; }
    const CacheLevelSpec &llc() const { return levels[3]; }

    /** LLC banks: one per tile, as in Table 5.1. */
    std::uint32_t numBanks() const { return numCores; }

    /** Side of the square torus that tiles the cores. */
    std::uint32_t torusDim() const { return torusDimFor(numCores); }

    /** Total LLC capacity (all banks), bytes. */
    std::uint64_t llcBytes() const;

    /** Any level needs refresh (drives engine/thermal construction). */
    bool anyEdram() const;

    /** True when levels mix SRAM and eDRAM. */
    bool hybrid() const;

    /** Row label of a run on this machine: "SRAM" for an all-SRAM
     *  hierarchy, else the LLC policy name (the swept axis). */
    std::string configName() const;

    /** Human summary of the cell technologies: "SRAM", "eDRAM", or
     *  "SRAM(L1/L2)+eDRAM(L3)" for hybrids. */
    std::string techSummary() const;

    /** Set the swept refresh policy: the LLC takes @p p verbatim, the
     *  private levels take p with their data policy replaced (the
     *  paper pins them at Valid — see §6.2). */
    void setLlcPolicy(const RefreshPolicy &p,
                      DataPolicy upperData = DataPolicy::Valid);

    /** Re-pin the private levels' data policy, keeping the LLC's
     *  timing policy and (n,m) parameters. */
    void setUpperDataPolicy(DataPolicy d);

    /** Set every level's cell technology. */
    void setTech(CellTech t);

    /** Whether this is a machine the simulator can run: cores in
     *  [1, 64], valid geometries, the two L1s of one cell technology,
     *  every refreshed level's sentry margin shorter than the
     *  retention and its retention small enough for the engines' tick
     *  arithmetic, and a thermal machine at a resolvable ambient
     *  without SmartRefresh.  False with the reason in @p err
     *  otherwise. */
    bool check(std::string &err) const;

    /** Panics with check()'s reason unless check() passes. */
    void validate() const;

    /** Shrink every cache by @p factor (power of two) for fast tests. */
    MachineConfig scaledDown(std::uint32_t factor) const;

    // ---- factories ----

    /**
     * The paper's Table 5.1 machine scaled to @p cores cores (4..64):
     * one LLC bank per core, torus dimension ceil(sqrt(cores)), LLC
     * bank-select bits derived from the bank count.  cores == 16 is
     * the paper machine exactly.  Cell technology defaults to eDRAM
     * everywhere.
     */
    static MachineConfig paper(std::uint32_t cores = 16);

    /** The evaluated machine with an SRAM hierarchy. */
    static MachineConfig paperSram(std::uint32_t cores = 16);

    /** The SRAM machine with cache decay enabled at L2/L3 (§7). */
    static MachineConfig paperSramDecay(Tick interval,
                                        std::uint32_t cores = 16);

    /** The paper's machine with eDRAM + the given policy/retention. */
    static MachineConfig paperEdram(const RefreshPolicy &policy,
                                    Tick retention,
                                    std::uint32_t cores = 16);

    /** The eDRAM machine with the thermal subsystem enabled at the
     *  given ambient temperature (deg C). */
    static MachineConfig paperEdramThermal(const RefreshPolicy &policy,
                                           Tick retention,
                                           double ambientC,
                                           std::uint32_t cores = 16);

    /**
     * The hybrid deployment the paper calls realistic: SRAM L1/L2
     * (fast, no refresh) over an eDRAM LLC running @p policy — the
     * refresh problem and its payoff live in the large shared cache.
     */
    static MachineConfig paperHybrid(const RefreshPolicy &policy,
                                     Tick retention,
                                     std::uint32_t cores = 16);
};

/**
 * The cache-key machine label for a paper machine scaled to @p cores
 * cores, optionally hybrid: "" for the default 16-core uniform machine,
 * "c32", "hyb", "c32+hyb", ...  Single source of truth shared by the
 * MachineConfig factories and ScenarioKey, so a key built from a
 * (cores, hybrid) pair always matches the built machine's machineId.
 */
std::string machineIdFor(std::uint32_t cores, bool hybrid);

/** Inverse of machineIdFor(); false for a label it never prints. */
bool parseMachineId(const std::string &id, std::uint32_t &cores,
                    bool &hybrid);

} // namespace refrint

#endif // REFRINT_CONFIG_MACHINE_CONFIG_HH
