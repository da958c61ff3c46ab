/**
 * @file
 * Level-descriptor-driven machine configuration.
 *
 * A MachineConfig describes the simulated CMP as data rather than as a
 * fixed struct shape: a vector of per-level CacheLevelSpec descriptors
 * (geometry, cell technology, refresh policy, engine geometry, private
 * vs. banked-shared placement) plus a scalable square-torus
 * interconnect whose dimension is derived from the core/bank count.
 * The hierarchy, refresh engines, thermal nodes and energy model are
 * all built by iterating the descriptor vector, so changing the
 * machine means changing the descriptors — not the simulator.
 *
 * Two degrees of freedom beyond the paper's Table 5.1 machine are
 * first-class:
 *
 *  - core count (4..64; the torus and L3 banking scale with it, and
 *    the directory is a 64-bit sharer mask), and
 *  - per-level cell technology, enabling hybrid machines such as the
 *    SRAM-L1/L2 + eDRAM-L3 deployment the paper calls realistic (§8).
 *
 * The default-constructed factories reproduce the paper's evaluated
 * 16-core machine bit for bit (see DESIGN.md "Machine configuration").
 *
 * The coherence protocol itself remains a three-level inclusive MESI
 * hierarchy: validate() requires exactly the four roles IL1/DL1/L2/LLC
 * with the LLC as the single banked-shared level.  What the descriptors
 * free is everything the protocol does not pin down: geometries, cell
 * technologies, refresh policies/engines per level, and the machine
 * scale.
 */

#ifndef REFRINT_CONFIG_MACHINE_CONFIG_HH
#define REFRINT_CONFIG_MACHINE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

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

/** Placement of one cache level on the tiled machine. */
enum class Sharing : std::uint8_t
{
    Private = 0,  ///< one unit per core
    BankedShared, ///< one unit per tile/bank, shared by all cores
};

/**
 * Protocol role of a level.  The MESI walk needs to know which units
 * serve fetches, which hold the directory, etc.; everything else about
 * a level is free-form descriptor data.
 */
enum class LevelRole : std::uint8_t
{
    IL1 = 0, ///< per-core instruction L1
    DL1,     ///< per-core data L1 (write-through, no-write-allocate)
    L2,      ///< per-core private unified L2
    LLC,     ///< banked shared last-level cache with the directory
};

const char *levelRoleName(LevelRole r);

/** One level of the hierarchy, as data. */
struct CacheLevelSpec
{
    const char *name = "";               ///< stat-group label
    LevelRole role = LevelRole::LLC;
    Sharing sharing = Sharing::Private;
    CellTech tech = CellTech::Edram;
    CacheGeometry geom;                  ///< per unit (per bank if shared)
    EngineGeometry engine;               ///< refresh-engine microarch (§5)

    /** Refresh policy effective at this level when tech == Edram.  The
     *  sweep varies the LLC's; private levels run the same timing
     *  policy with their data policy pinned (Valid in the paper). */
    RefreshPolicy policy = RefreshPolicy::refrint(DataPolicy::Valid);

    bool refreshed() const { return tech == CellTech::Edram; }
};

struct MachineConfig
{
    std::uint32_t numCores = 16;
    std::uint32_t numBanks = 16;
    std::uint32_t torusDim = 4;

    /**
     * The hierarchy, outermost-private first: IL1, DL1, L2, LLC for
     * the paper machine.  Build loops iterate this vector; the
     * protocol resolves its role handles out of it at construction.
     */
    std::vector<CacheLevelSpec> levels;

    Tick hopLatency = 2;        ///< per torus router+link traversal
    Tick dataSerialization = 4; ///< extra cycles for a 64B payload
    Tick dramLatency = 40;      ///< Table 5.1: 40 ns
    Tick dramMinGap = 4;        ///< channel occupancy per access

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

    // ---- level accessors (roles resolved from the vector) ----

    CacheLevelSpec &level(LevelRole r);
    const CacheLevelSpec &level(LevelRole r) const;

    CacheLevelSpec &il1() { return level(LevelRole::IL1); }
    CacheLevelSpec &dl1() { return level(LevelRole::DL1); }
    CacheLevelSpec &l2() { return level(LevelRole::L2); }
    CacheLevelSpec &llc() { return level(LevelRole::LLC); }
    const CacheLevelSpec &il1() const { return level(LevelRole::IL1); }
    const CacheLevelSpec &dl1() const { return level(LevelRole::DL1); }
    const CacheLevelSpec &l2() const { return level(LevelRole::L2); }
    const CacheLevelSpec &llc() const { return level(LevelRole::LLC); }

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

    /** Panics unless the descriptor set is a machine the protocol can
     *  run: the four roles present exactly once, the LLC last and
     *  banked-shared, cores in [1, 64], banks tiling the torus. */
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

/** Smallest torus dimension whose k x k tiling holds @p tiles. */
std::uint32_t torusDimFor(std::uint32_t tiles);

/**
 * The cache-key machine label for a paper machine scaled to @p cores
 * cores, optionally hybrid: "" for the default 16-core uniform machine,
 * "c32", "hyb", "c32+hyb", ...  Single source of truth shared by the
 * MachineConfig factories and ScenarioKey, so a key built from a
 * (cores, hybrid) pair always matches the built machine's machineId.
 */
std::string machineIdFor(std::uint32_t cores, bool hybrid);

} // namespace refrint

#endif // REFRINT_CONFIG_MACHINE_CONFIG_HH
