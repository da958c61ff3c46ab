#include "api/scenario.hh"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/env.hh"
#include "common/log.hh"
#include "workload/method.hh"

namespace refrint
{

std::string
ScenarioKey::str() const
{
    // Each numeric segment is bounded (a %.1f double is at most ~310
    // digits plus sign and fraction); the textual segments are
    // appended as strings, so the key can never truncate no matter how
    // many axes (or how long an app/config name) the plan grows.
    char buf[384];
    std::snprintf(buf, sizeof(buf), "|%.1f|%llu|%llu", retentionUs,
                  static_cast<unsigned long long>(refs),
                  static_cast<unsigned long long>(seed));
    std::string key = app + "|" + config + buf;
    if (!workload.empty())
        key += "|wl=" + workload;
    if (ambientC != 0.0) {
        std::snprintf(buf, sizeof(buf), "|amb=%.2f", ambientC);
        key += buf;
    }
    if (!machine.empty())
        key += "|mach=" + machine;
    if (!energy.empty())
        key += "|en=" + energy;
    return key;
}

bool
ScenarioKey::parse(const std::string &key, ScenarioKey &out)
{
    // Split on '|'.  No produced segment can contain the separator:
    // app specs, config names and the canonical workload parameter
    // list are all drawn from grammars without it.
    std::vector<std::string> seg;
    std::size_t start = 0;
    for (;;) {
        const std::size_t bar = key.find('|', start);
        if (bar == std::string::npos) {
            seg.push_back(key.substr(start));
            break;
        }
        seg.push_back(key.substr(start, bar - start));
        start = bar + 1;
    }
    if (seg.size() < 5)
        return false;

    ScenarioKey k;
    k.app = seg[0];
    k.config = seg[1];
    if (k.app.empty() || k.config.empty() ||
        !parseF64Strict(seg[2].c_str(), k.retentionUs) ||
        !parseU64Strict(seg[3].c_str(), k.refs) ||
        !parseU64Strict(seg[4].c_str(), k.seed))
        return false;

    // Optional tagged segments, in the order str() emits them.
    std::size_t i = 5;
    auto tagged = [&](const char *tag, std::string &v) {
        const std::size_t len = std::strlen(tag);
        if (i < seg.size() && seg[i].compare(0, len, tag) == 0) {
            v = seg[i].substr(len);
            ++i;
            return true;
        }
        return false;
    };
    std::string amb;
    tagged("wl=", k.workload);
    if (tagged("amb=", amb) && !parseF64Strict(amb.c_str(), k.ambientC))
        return false;
    tagged("mach=", k.machine);
    tagged("en=", k.energy);
    // Whatever str() would not print back is not a key: a spelling
    // such as "5e1" or "+1", a zero ambient, or a segment out of order
    // or left over.
    if (k.str() != key)
        return false;
    out = k;
    return true;
}

bool
ScenarioKey::operator==(const ScenarioKey &o) const
{
    return app == o.app && config == o.config &&
           workload == o.workload && retentionUs == o.retentionUs &&
           refs == o.refs && seed == o.seed && ambientC == o.ambientC &&
           machine == o.machine && energy == o.energy;
}

std::string
Scenario::machineLabel() const
{
    return machineIdFor(cores, !isSram() && hybrid);
}

ScenarioKey
Scenario::key() const
{
    // The key's workload identity comes from the canonical spec: a
    // held workload supplies its own (a registry instance's spec is
    // already canonical; a directly-constructed workload's is its bare
    // name, keeping legacy keys); a name-only scenario canonicalizes
    // through the registry, so "agg" and "agg:tables=shared" key
    // identically with every default made explicit.
    std::string spec = workload != nullptr ? workload->spec() : app;
    if (workload == nullptr) {
        ResolvedWorkload rw;
        std::string err;
        if (workloadRegistry().resolve(spec, rw, err))
            spec = rw.spec;
    }
    const auto colon = spec.find(':');

    ScenarioKey k;
    if (colon == std::string::npos) {
        k.app = spec;
    } else {
        k.app = spec.substr(0, colon);
        k.workload = spec.substr(colon + 1);
    }
    k.config = config;
    k.retentionUs = retentionUs;
    k.refs = sim.refsPerCore;
    k.seed = sim.seed;
    k.ambientC = ambientC;
    k.machine = machineLabel();
    return k;
}

bool
Scenario::tryMachine(const EnergyParams &energy, MachineConfig &out,
                     std::string &err) const
{
    RefreshPolicy policy;
    if (!isSram() && !parsePolicy(config, policy))
        err = "unknown config '" + config +
              "' (SRAM, or a policy such as P.all or R.WB(32,32); see "
              "'refrint_cli list')";
    else if (isSram() && (retentionUs != 0 || ambientC != 0 ||
                          std::signbit(retentionUs))) // -0.0 keys apart
        err = "an SRAM scenario takes no retention and no ambient (its "
              "cells are never refreshed)";
    else if (!isSram() && !(retentionUs > 0 && retentionUs * 1e3 < 0x1p64))
        err = "an eDRAM scenario needs a positive retention (us) that "
              "fits the tick counter";
    else if (cores < 4 || cores > 64)
        err = "cores must be an integer in [4, 64]";
    else if (isSram())
        return (out = MachineConfig::paperSram(cores)).check(err);
    else {
        const Tick retention = usToTicks(retentionUs);
        out = hybrid ? MachineConfig::paperHybrid(policy, retention, cores)
                     : MachineConfig::paperEdram(policy, retention, cores);
        if (ambientC != 0.0) {
            out.thermal.enabled = true;
            out.thermal.ambientC = ambientC;
        }
        out.thermal.energy = energy;
        return out.check(err);
    }
    return false;
}

MachineConfig
Scenario::machine(const EnergyParams &energy) const
{
    MachineConfig cfg;
    std::string err;
    if (!tryMachine(energy, cfg, err))
        panic("%s: %s", logLabel().c_str(), err.c_str());
    return cfg;
}

const Workload &
Scenario::resolveWorkload() const
{
    if (workload != nullptr)
        return *workload;
    ResolvedWorkload rw;
    std::string err;
    if (!workloadRegistry().resolve(app, rw, err))
        fatal("scenario names unknown application '%s' (%s)\n%s",
              app.c_str(), err.c_str(),
              workloadRegistry().describe().c_str());
    return *rw.workload;
}

std::string
Scenario::logLabel() const
{
    const std::string mach = machineLabel();
    char buf[64];
    std::string label = app + "/" + config;
    if (ambientC != 0.0)
        std::snprintf(buf, sizeof(buf), "@%.0fus/%.0fC", retentionUs,
                      ambientC);
    else
        std::snprintf(buf, sizeof(buf), "@%.0fus", retentionUs);
    label += buf;
    if (!mach.empty())
        label += "/" + mach;
    return label;
}

bool
Scenario::operator==(const Scenario &o) const
{
    return app == o.app && config == o.config &&
           retentionUs == o.retentionUs && ambientC == o.ambientC &&
           cores == o.cores && hybrid == o.hybrid &&
           sim.refsPerCore == o.sim.refsPerCore &&
           sim.seed == o.sim.seed && sim.maxTicks == o.sim.maxTicks;
}

} // namespace refrint
