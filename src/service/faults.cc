#include "service/faults.hh"

#include <cstdlib>

#include "common/env.hh"
#include "common/log.hh"

namespace refrint
{

namespace
{

const char *const kKnownPoints[] = {
    "store.torn_write",
    "store.short_write",
    "serve.drop_conn",
};

bool
knownPoint(const std::string &name)
{
    for (const char *p : kKnownPoints)
        if (name == p)
            return true;
    return false;
}

} // namespace

FaultPlan::FaultPlan(const std::string &spec)
{
    std::size_t pos = 0;
    while (pos < spec.size()) {
        auto comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string entry = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (entry.empty())
            continue;

        const auto at = entry.find('@');
        if (at == std::string::npos || at == 0)
            fatal("REFRINT_FAULTS: entry '%s' is not point@ordinal",
                  entry.c_str());
        Spec f;
        f.point = entry.substr(0, at);
        if (!knownPoint(f.point))
            fatal("REFRINT_FAULTS: unknown fault point '%s' (known: "
                  "store.torn_write, store.short_write, "
                  "serve.drop_conn)",
                  f.point.c_str());
        const std::string arg = entry.substr(at + 1);
        if (!parseU64Strict(arg.c_str(), f.arg))
            fatal("REFRINT_FAULTS: '%s' wants a decimal ordinal after "
                  "'@', got '%s'",
                  entry.c_str(), arg.c_str());
        specs_.push_back(std::move(f));
    }
}

namespace
{

FaultPlan
parseEnvPlan()
{
    const char *env = std::getenv("REFRINT_FAULTS");
    return env != nullptr ? FaultPlan(env) : FaultPlan();
}

FaultPlan &
globalPlan()
{
    static FaultPlan plan = parseEnvPlan();
    return plan;
}

} // namespace

const FaultPlan &
FaultPlan::global()
{
    return globalPlan();
}

void
FaultPlan::reloadGlobalForTest()
{
    globalPlan() = parseEnvPlan();
}

bool
FaultPlan::at(const char *point, std::uint64_t ordinal) const
{
    for (const Spec &f : specs_)
        if (f.arg == ordinal && f.point == point)
            return true;
    return false;
}

} // namespace refrint
