/**
 * @file
 * CmpSystem assembles one machine from its MachineConfig:
 * event queue, coherent hierarchy with refresh engines, and one
 * trace-driven core per configured core replaying one workload.  One
 * CmpSystem instance is one experiment run.
 */

#ifndef REFRINT_SYSTEM_CMP_SYSTEM_HH
#define REFRINT_SYSTEM_CMP_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "coherence/hierarchy.hh"
#include "common/stats.hh"
#include "core/core.hh"
#include "sim/event_queue.hh"
#include "workload/workload.hh"

namespace refrint
{

/** Knobs of one simulation run (not of the simulated machine). */
struct SimParams
{
    std::uint64_t refsPerCore = 200'000;
    std::uint64_t seed = 1;

    /** Safety net: abort the run after this much simulated time. */
    Tick maxTicks = usToTicks(100'000.0);
};

class CmpSystem
{
  public:
    /** @p arena, when non-null, backs the event queue's bands, the
     *  cache arrays and the refresh-engine heaps so a sweep worker can
     *  recycle one allocation across scenarios (see common/arena.hh).
     *  The system must be destroyed before the arena is reset.  @p pool,
     *  when non-null, supplies the cache arrays' storage instead, and
     *  gets it back restored when the system is destroyed
     *  (mem/array_pool.hh). */
    CmpSystem(const MachineConfig &cfg, const Workload &app,
              const SimParams &params, Arena *arena = nullptr,
              ArrayPool *pool = nullptr);
    ~CmpSystem();

    CmpSystem(const CmpSystem &) = delete;
    CmpSystem &operator=(const CmpSystem &) = delete;

    /**
     * Run the workload to completion (every core issues its refs),
     * then charge the end-of-run dirty flush.
     * @return execution time in ticks (latest core completion).
     */
    Tick run();

    Tick execTicks() const { return execTicks_; }
    std::uint64_t totalInstructions() const;

    Hierarchy &hierarchy() { return *hier_; }
    const Hierarchy &hierarchy() const { return *hier_; }
    EventQueue &eventQueue() { return eq_; }
    Core &core(CoreId c) { return *cores_[c]; }
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }

  private:
    EventQueue eq_;
    std::unique_ptr<Hierarchy> hier_;
    StatGroup coreStats_{"core"};
    std::vector<std::unique_ptr<Core>> cores_;
    SimParams params_;
    std::uint32_t doneCount_ = 0;
    Tick execTicks_ = 0;
};

} // namespace refrint

#endif // REFRINT_SYSTEM_CMP_SYSTEM_HH
