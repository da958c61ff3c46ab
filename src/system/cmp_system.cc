#include "system/cmp_system.hh"

#include "common/log.hh"

namespace refrint
{

CmpSystem::CmpSystem(const MachineConfig &cfg, const Workload &app,
                     const SimParams &params, Arena *arena,
                     ArrayPool *pool)
    : eq_(arena), params_(params)
{
    hier_ = std::make_unique<Hierarchy>(cfg, eq_, arena, pool);
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        cores_.push_back(std::make_unique<Core>(
            c, *hier_, eq_, app.makeStream(c, cfg.numCores, params.seed),
            params.refsPerCore, app.codeLines(), params.seed,
            [this](CoreId) { ++doneCount_; }, coreStats_));
    }
}

CmpSystem::~CmpSystem() = default;

Tick
CmpSystem::run()
{
    hier_->start(0);
    for (auto &core : cores_)
        core->start(0);

    const std::uint32_t want =
        static_cast<std::uint32_t>(cores_.size());
    while (doneCount_ < want && eq_.step()) {
        if (eq_.now() > params_.maxTicks) {
            fatal("simulation exceeded the %llu-tick safety limit",
                  static_cast<unsigned long long>(params_.maxTicks));
        }
    }
    panicIf(doneCount_ < want, "event queue drained before completion");

    execTicks_ = 0;
    for (auto &core : cores_)
        execTicks_ = std::max(execTicks_, core->doneTick());
    hier_->finishEngines(execTicks_);
    hier_->flushDirty();
    return execTicks_;
}

std::uint64_t
CmpSystem::totalInstructions() const
{
    std::uint64_t sum = 0;
    for (const auto &core : cores_)
        sum += core->instructions();
    return sum;
}

} // namespace refrint
