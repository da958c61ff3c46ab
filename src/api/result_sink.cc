#include "api/result_sink.hh"

#include <cerrno>
#include <cstring>

#include "api/experiment_plan.hh"
#include "api/json.hh"
#include "common/log.hh"

namespace refrint
{

namespace
{

/** RFC-4180 field quoting: policy names like "R.WB(32,32)" carry
 *  commas and must not shift the column structure. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/** Open member @p name of the JSON object being appended to @p out,
 *  after a comma unless it is the object's first.  Member names are
 *  plain identifiers, so they need no escaping. */
void
jsonKey(std::string &out, const char *name)
{
    if (out.back() != '{')
        out += ',';
    out += '"';
    out += name;
    out += "\":";
}

void
jsonMember(std::string &out, const char *name, double v)
{
    jsonKey(out, name);
    appendJsonNumber(out, v);
}

void
jsonMember(std::string &out, const char *name, const std::string &s)
{
    jsonKey(out, name);
    appendJsonString(out, s);
}

/** The nine aggregates of an energy estimate, as a nested object. */
void
energyMember(std::string &out, const char *name, const EnergyBreakdown &e)
{
    jsonKey(out, name);
    out += '{';
    jsonMember(out, "l1", e.l1);
    jsonMember(out, "l2", e.l2);
    jsonMember(out, "l3", e.l3);
    jsonMember(out, "dram", e.dram);
    jsonMember(out, "dynamic", e.dynamic);
    jsonMember(out, "leakage", e.leakage);
    jsonMember(out, "refresh", e.refresh);
    jsonMember(out, "core", e.core);
    jsonMember(out, "net", e.net);
    out += '}';
}

} // namespace

void
CsvSink::begin(const ExperimentPlan &plan)
{
    (void)plan;
    std::fprintf(out_,
                 "app,config,machine,retentionUs,ambientC,maxTempC,"
                 "execTicks,instructions,"
                 "eL1,eL2,eL3,eDram,eDynamic,eLeakage,eRefresh,eCore,"
                 "eNet,dramAccesses,l3Misses,l3Refreshes,"
                 "refreshWritebacks,refreshInvalidations,decayedHits,"
                 "requests,reqP50Us,reqP95Us,reqP99Us,"
                 "simulated,normTime,normMemEnergy,normSysEnergy,"
                 "altMemEnergy,altSysEnergy,altDisagreement\n");
}

void
CsvSink::consume(const ExperimentPlan &plan, std::size_t index,
                 const RunResult &r, const NormalizedResult *norm,
                 bool simulated)
{
    (void)plan;
    (void)index;
    std::fprintf(out_,
                 "%s,%s,%s,%.17g,%.17g,%.17g,%llu,%llu,"
                 "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,"
                 "%.17g,%llu,%llu,%llu,%llu,%llu,%llu,"
                 "%.17g,%.17g,%.17g,%.17g,%d",
                 csvField(r.app).c_str(), csvField(r.config).c_str(),
                 csvField(r.machine).c_str(),
                 r.retentionUs, r.ambientC, r.maxTempC,
                 static_cast<unsigned long long>(r.execTicks),
                 static_cast<unsigned long long>(r.instructions),
                 r.energy.l1, r.energy.l2, r.energy.l3, r.energy.dram,
                 r.energy.dynamic, r.energy.leakage, r.energy.refresh,
                 r.energy.core, r.energy.net,
                 static_cast<unsigned long long>(r.counts.dramAccesses),
                 static_cast<unsigned long long>(r.counts.l3Misses),
                 static_cast<unsigned long long>(r.counts.l3Refreshes),
                 static_cast<unsigned long long>(
                     r.counts.refreshWritebacks),
                 static_cast<unsigned long long>(
                     r.counts.refreshInvalidations),
                 static_cast<unsigned long long>(r.counts.decayedHits),
                 r.requests, r.reqP50Us, r.reqP95Us, r.reqP99Us,
                 simulated ? 1 : 0);
    if (norm != nullptr)
        std::fprintf(out_, ",%.17g,%.17g,%.17g", norm->time,
                     norm->memEnergy, norm->sysEnergy);
    else
        std::fprintf(out_, ",,,");
    // Alternate-backend columns stay empty unless the plan selected a
    // second energy model (energy.altModel != 0).
    if (r.hasAlt)
        std::fprintf(out_, ",%.17g,%.17g,%.17g\n", r.alt.memTotal(),
                     r.alt.systemTotal(), energyDisagreement(r));
    else
        std::fprintf(out_, ",,,\n");
}

void
JsonLinesSink::begin(const ExperimentPlan &plan)
{
    energyTag_ = energyKeyTag(plan.energy);
}

void
JsonLinesSink::consume(const ExperimentPlan &plan, std::size_t index,
                       const RunResult &r, const NormalizedResult *norm,
                       bool simulated)
{
    // Appended member by member into one reused buffer.  The bytes
    // must stay those JsonValue::dump(0) gives for the row as a tree
    // (SessionTest.JsonLinesRowsMatchTheirJsonValueTree).
    std::string &o = line_;
    o.clear();
    o += '{';
    jsonMember(o, "plan", plan.name);
    // The row's actual cache identity, including the plan's energy
    // tag, so rows from different energy models never alias.
    ScenarioKey key = plan.scenarios[index].key();
    key.energy = energyTag_;
    jsonMember(o, "key", key.str());
    jsonMember(o, "app", r.app);
    jsonMember(o, "config", r.config);
    jsonMember(o, "machine", r.machine);
    jsonMember(o, "retentionUs", r.retentionUs);
    jsonMember(o, "ambientC", r.ambientC);
    jsonMember(o, "maxTempC", r.maxTempC);
    jsonMember(o, "execTicks", static_cast<double>(r.execTicks));
    jsonMember(o, "instructions", static_cast<double>(r.instructions));
    jsonKey(o, "simulated");
    o += simulated ? "true" : "false";
    jsonMember(o, "requests", r.requests);

    // Always present (zeros for request-less workloads) so consumers
    // can rely on the shape of every row.
    jsonKey(o, "latencyUs");
    o += '{';
    jsonMember(o, "p50", r.reqP50Us);
    jsonMember(o, "p95", r.reqP95Us);
    jsonMember(o, "p99", r.reqP99Us);
    o += '}';

    energyMember(o, "energy", r.energy);

    // Per-level component matrix (dyn/leak/ref per cache level).
    // Always present: exact for fresh runs, reconstructed by the
    // documented closure for cache reloads (energy_model.hh).
    jsonKey(o, "breakdown");
    o += '{';
    jsonMember(o, "l1Dyn", r.energy.l1Dyn);
    jsonMember(o, "l1Leak", r.energy.l1Leak);
    jsonMember(o, "l1Ref", r.energy.l1Ref);
    jsonMember(o, "l2Dyn", r.energy.l2Dyn);
    jsonMember(o, "l2Leak", r.energy.l2Leak);
    jsonMember(o, "l2Ref", r.energy.l2Ref);
    jsonMember(o, "l3Dyn", r.energy.l3Dyn);
    jsonMember(o, "l3Leak", r.energy.l3Leak);
    jsonMember(o, "l3Ref", r.energy.l3Ref);
    o += '}';

    // Second-opinion backend, only when the plan selected one — rows
    // of the default model keep their exact legacy shape plus the
    // breakdown above.
    if (r.hasAlt) {
        energyMember(o, "energyAlt", r.alt);
        jsonMember(o, "disagreement", energyDisagreement(r));
    }

    const HierarchyCounts &ct = r.counts;
    jsonKey(o, "counts");
    o += '{';
    jsonMember(o, "dramAccesses", static_cast<double>(ct.dramAccesses));
    jsonMember(o, "l3Misses", static_cast<double>(ct.l3Misses));
    jsonMember(o, "l3Refreshes", static_cast<double>(ct.l3Refreshes));
    jsonMember(o, "refreshWritebacks",
               static_cast<double>(ct.refreshWritebacks));
    jsonMember(o, "refreshInvalidations",
               static_cast<double>(ct.refreshInvalidations));
    jsonMember(o, "decayedHits", static_cast<double>(ct.decayedHits));
    o += '}';

    jsonKey(o, "normalized");
    if (norm != nullptr) {
        o += '{';
        jsonMember(o, "time", norm->time);
        jsonMember(o, "memEnergy", norm->memEnergy);
        jsonMember(o, "sysEnergy", norm->sysEnergy);
        jsonMember(o, "refresh", norm->refresh);
        o += '}';
    } else {
        o += "null";
    }
    o += "}\n";

    // A dropped row would leave a stream one row short that still
    // parses as complete, so any write failure — full disk, closed
    // pipe — is fatal here, not deferred.
    // Non-strict sinks (serve) tolerate it; the caller checks ferror().
    if ((std::fwrite(o.data(), 1, o.size(), out_) != o.size() ||
         std::ferror(out_)) &&
        strict_)
        fatal("JSONL row stream write failed at offset %lld "
              "(row %zu of plan %s): %s",
              static_cast<long long>(std::ftell(out_)), index,
              plan.name.c_str(), std::strerror(errno));
}

void
ProgressSink::consume(const ExperimentPlan &plan, std::size_t index,
                      const RunResult &r, const NormalizedResult *norm,
                      bool simulated)
{
    (void)r;
    (void)norm;
    std::fprintf(out_, "[%zu/%zu] %s %s\n", index + 1, plan.size(),
                 plan.scenarios[index].logLabel().c_str(),
                 simulated ? "simulated" : "cached");
}

void
ProgressSink::end(const ExperimentPlan &plan, const SweepResult &result)
{
    const RunMetrics &m = result.metrics;
    std::fprintf(out_,
                 "[%s] %zu scenarios: %zu simulated, %zu cached in "
                 "%.2fs (%u jobs, %.0f%% utilization)\n",
                 plan.name.c_str(), m.scenarios, m.simulated,
                 m.cacheHits, m.wallSeconds, m.jobs,
                 m.utilization() * 100.0);
}

} // namespace refrint
