#include "test_util.hh"

#include <memory>
#include <utility>

#include "api/experiment_plan.hh"
#include "api/session.hh"
#include "service/store.hh"

namespace refrint::test
{

MachineConfig
tinyConfig(CellTech tech, std::uint32_t cores)
{
    // Scale the paper machine down through its levels: small
    // caches and a short retention so refresh activity shows up within
    // microseconds.  Line size and latencies match the paper config.
    MachineConfig c = MachineConfig::paper(cores);
    c.setTech(tech);
    c.il1().geom = CacheGeometry{2 * 1024, 2, 64, 1};
    c.dl1().geom = CacheGeometry{2 * 1024, 4, 64, 1};
    c.l2().geom = CacheGeometry{8 * 1024, 8, 64, 2};
    // Hashed index like the paper machine's LLC; the bank-select shift
    // is already derived from the bank count by the factory.
    c.llc().geom.sizeBytes = 32 * 1024;
    c.retention = RetentionParams{usToTicks(5.0), kTickNever, {}, {}};
    return c;
}

MachineConfig
tinyEdram(const RefreshPolicy &policy, Tick retention)
{
    MachineConfig c = tinyConfig(CellTech::Edram);
    c.setLlcPolicy(policy);
    c.retention.cellRetention = retention;
    return c;
}

RunResult
runTiny(const MachineConfig &cfg, const Workload &app,
        std::uint64_t refs, std::uint64_t seed)
{
    SimParams sim;
    sim.refsPerCore = refs;
    sim.seed = seed;
    return runOnce(cfg, app, sim);
}

SweepResult
runSpec(SweepSpec spec, const std::string &storeDir, unsigned jobs)
{
    std::unique_ptr<ResultStore> store;
    if (!storeDir.empty())
        store = std::make_unique<ShardedStore>(storeDir);
    Session session(std::move(store), jobs);
    return session.run(ExperimentPlan::fromSweepSpec(std::move(spec)));
}

} // namespace refrint::test
