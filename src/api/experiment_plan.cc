#include "api/experiment_plan.hh"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "api/json.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "workload/method.hh"

namespace refrint
{

namespace
{

constexpr int kPlanVersion = 1;

/** EnergyParams fields by name — the single source of truth for the
 *  plan serializer and loader, mirroring the CacheRow field table. */
constexpr struct
{
    const char *name;
    double EnergyParams::*field;
} kEnergyFields[] = {
    {"eL1Access", &EnergyParams::eL1Access},
    {"eL2Access", &EnergyParams::eL2Access},
    {"eL3Access", &EnergyParams::eL3Access},
    {"eDramAccess", &EnergyParams::eDramAccess},
    {"leakL1", &EnergyParams::leakL1},
    {"leakL2", &EnergyParams::leakL2},
    {"leakL3Bank", &EnergyParams::leakL3Bank},
    {"edramLeakRatio", &EnergyParams::edramLeakRatio},
    {"eCorePerInstr", &EnergyParams::eCorePerInstr},
    {"leakCore", &EnergyParams::leakCore},
    {"eNetPerHop", &EnergyParams::eNetPerHop},
    {"eNetPerDataMsg", &EnergyParams::eNetPerDataMsg},
};

/**
 * Parse failure inside tryFromJson: thrown by the require* helpers,
 * caught at the tryFromJson boundary and surfaced as (err, false) —
 * or as a fatal exit 1 through fromJson.  Never escapes this file.
 */
struct PlanError
{
    std::string msg;
};

template <typename... Args>
[[noreturn]] void
planError(const char *fmt, Args... args)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    throw PlanError{buf};
}

double
requireNumber(const JsonValue &obj, const char *key, const char *where)
{
    const JsonValue *v = obj.get(key);
    if (v == nullptr || !v->isNumber())
        planError("plan %s: missing numeric field \"%s\"", where, key);
    return v->asNumber();
}

std::string
requireString(const JsonValue &obj, const char *key, const char *where)
{
    const JsonValue *v = obj.get(key);
    if (v == nullptr || !v->isString())
        planError("plan %s: missing string field \"%s\"", where, key);
    return v->asString();
}

/** A non-negative integer-valued number in [minimum, maximum],
 *  range-checked before the cast so a malformed plan can never reach
 *  undefined behavior. */
std::uint64_t
requireU64(const JsonValue &obj, const char *key, const char *where,
           double minimum = 0, double maximum = 9.0e15)
{
    const double v = requireNumber(obj, key, where);
    if (!(v >= minimum && v <= maximum) ||
        v != static_cast<double>(static_cast<std::uint64_t>(v)))
        planError("plan %s: \"%s\" must be an integer in [%g, %g]",
                  where, key, minimum, maximum);
    return static_cast<std::uint64_t>(v);
}

bool
optionalBool(const JsonValue &obj, const char *key, bool dflt)
{
    const JsonValue *v = obj.get(key);
    if (v == nullptr)
        return dflt;
    if (!v->isBool())
        planError("plan field \"%s\" must be a boolean", key);
    return v->asBool();
}

} // namespace

int
ExperimentPlan::addBaseline(Scenario s)
{
    scenarios.push_back(std::move(s));
    baseline.push_back(-1);
    return static_cast<int>(scenarios.size()) - 1;
}

void
ExperimentPlan::add(Scenario s, int baselineIdx)
{
    scenarios.push_back(std::move(s));
    baseline.push_back(baselineIdx);
}

void
ExperimentPlan::validate() const
{
    panicIf(scenarios.size() != baseline.size(),
            "plan scenario/baseline lists out of sync");
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const int b = baseline[i];
        panicIf(b < -1, "plan baseline index must be -1 or an index");
        if (b < 0)
            continue;
        panicIf(static_cast<std::size_t>(b) >= i,
                "plan baseline must precede the scenarios it "
                "normalizes");
        panicIf(baseline[static_cast<std::size_t>(b)] != -1,
                "plan baseline index points at a non-baseline row");
    }
}

std::string
ExperimentPlan::toJson() const
{
    validate();
    JsonValue doc = JsonValue::object();
    doc.set("plan", JsonValue::string(name));
    doc.set("version", JsonValue::number(kPlanVersion));

    JsonValue en = JsonValue::object();
    for (const auto &f : kEnergyFields)
        en.set(f.name, JsonValue::number(energy.*f.field));
    en.set("altModel", JsonValue::number(energy.altModel));
    doc.set("energy", std::move(en));

    JsonValue list = JsonValue::array();
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &s = scenarios[i];
        JsonValue o = JsonValue::object();
        o.set("app", JsonValue::string(s.app));
        o.set("config", JsonValue::string(s.config));
        o.set("retentionUs", JsonValue::number(s.retentionUs));
        o.set("ambientC", JsonValue::number(s.ambientC));
        o.set("cores", JsonValue::number(s.cores));
        o.set("hybrid", JsonValue::boolean(s.hybrid));
        o.set("refs",
              JsonValue::number(static_cast<double>(s.sim.refsPerCore)));
        o.set("seed",
              JsonValue::number(static_cast<double>(s.sim.seed)));
        o.set("maxTicks",
              JsonValue::number(static_cast<double>(s.sim.maxTicks)));
        o.set("baseline", JsonValue::number(baseline[i]));
        list.push(std::move(o));
    }
    doc.set("scenarios", std::move(list));
    return doc.dump(2) + "\n";
}

bool
ExperimentPlan::tryFromJson(const std::string &text, ExperimentPlan &out,
                            std::string &err)
{
    JsonValue doc;
    if (!JsonValue::parse(text, doc, err)) {
        err = "cannot parse plan: " + err;
        return false;
    }
    ExperimentPlan plan;
    try {
        if (!doc.isObject())
            planError("plan document must be a JSON object");

        plan.name = requireString(doc, "plan", "document");
        const double version =
            requireNumber(doc, "version", "document");
        if (version != kPlanVersion)
            planError("unsupported plan version %g (this build reads "
                      "%d)",
                      version, kPlanVersion);

        if (const JsonValue *en = doc.get("energy")) {
            if (!en->isObject())
                planError("plan \"energy\" must be an object");
            for (const auto &f : kEnergyFields)
                plan.energy.*f.field =
                    requireNumber(*en, f.name, "energy");
            // Backend selector, not a coefficient: optional so plans
            // dumped before it existed still load (as 0 = primary
            // backend only).
            if (en->get("altModel") != nullptr)
                plan.energy.altModel =
                    requireNumber(*en, "altModel", "energy");
        }

        const JsonValue *list = doc.get("scenarios");
        if (list == nullptr || !list->isArray())
            planError("plan needs a \"scenarios\" array");
        for (const JsonValue &o : list->items()) {
            if (!o.isObject())
                planError("every scenario must be a JSON object");
            Scenario s;
            s.app = requireString(o, "app", "scenario");
            s.config = requireString(o, "config", "scenario");
            s.retentionUs = requireNumber(o, "retentionUs", "scenario");
            s.ambientC = requireNumber(o, "ambientC", "scenario");
            s.cores = static_cast<std::uint32_t>(
                requireU64(o, "cores", "scenario", 0, 4294967295.0));
            s.hybrid = optionalBool(o, "hybrid", false);
            s.sim.refsPerCore = requireU64(o, "refs", "scenario");
            s.sim.seed = requireU64(o, "seed", "scenario");
            // The tick safety net: absent keeps the SimParams default,
            // 0 would abort every run, so a given value must be
            // positive.
            if (o.get("maxTicks") != nullptr)
                s.sim.maxTicks = static_cast<Tick>(requireU64(
                    o, "maxTicks", "scenario", /*minimum=*/1));
            // Refuse a scenario that cannot run here, before any
            // simulation starts, rather than in a worker.
            std::string why;
            if (!s.check(why))
                planError("plan scenario %zu (%s): %s",
                          plan.scenarios.size(), s.logLabel().c_str(),
                          why.c_str());
            const double b = requireNumber(o, "baseline", "scenario");
            // -1 or the index of an earlier scenario; range-checked in
            // double before the cast (validate() then checks it points
            // at a baseline).
            if (b < -1 ||
                b >= static_cast<double>(plan.scenarios.size()) ||
                b != std::floor(b))
                planError("plan scenario: \"baseline\" must be -1 or "
                          "the index of an earlier baseline scenario "
                          "(got %g)",
                          b);
            // A baseline normalizes rows of its own family only: same
            // app, same machine scale.  Pointing fft rows at an lu
            // baseline — or 32-core rows at a 16-core baseline — would
            // silently produce meaningless normalized output.
            if (b >= 0) {
                const Scenario &bs =
                    plan.scenarios[static_cast<std::size_t>(b)];
                // validate() would only panic on this later; a parse
                // error keeps long-running consumers (serve) alive.
                if (plan.baseline[static_cast<std::size_t>(b)] != -1)
                    planError("plan scenario '%s': baseline %g is not "
                              "itself a baseline scenario",
                              s.app.c_str(), b);
                if (bs.app != s.app)
                    planError("plan scenario '%s': baseline %g is the "
                              "baseline of a different workload "
                              "('%s') — a scenario normalizes against "
                              "the SRAM baseline of its own app",
                              s.app.c_str(), b, bs.app.c_str());
                if (bs.cores != s.cores)
                    planError("plan scenario '%s' (%u cores): baseline "
                              "%g runs a different machine (%u "
                              "cores) — a scenario normalizes against "
                              "the SRAM baseline of its own machine "
                              "scale",
                              s.app.c_str(), s.cores, b, bs.cores);
            }
            // Resolve the workload eagerly so a bad plan fails before
            // any simulation starts.
            if (findWorkload(s.app) == nullptr)
                planError("plan scenario names unknown application "
                          "'%s'\n%s",
                          s.app.c_str(),
                          workloadRegistry().describe().c_str());
            plan.scenarios.push_back(std::move(s));
            plan.baseline.push_back(static_cast<int>(b));
        }
    } catch (const PlanError &e) {
        err = e.msg;
        return false;
    }
    plan.validate();
    out = std::move(plan);
    return true;
}

ExperimentPlan
ExperimentPlan::fromJson(const std::string &text)
{
    ExperimentPlan plan;
    std::string err;
    if (!tryFromJson(text, plan, err))
        fatal("%s", err.c_str());
    return plan;
}

ExperimentPlan
ExperimentPlan::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read plan file: %s", path.c_str());
    std::stringstream ss;
    ss << in.rdbuf();
    return fromJson(ss.str());
}

void
ExperimentPlan::saveFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        fatal("cannot write plan file: %s", path.c_str());
    out << toJson();
}

ExperimentPlan
ExperimentPlan::fromSweepSpec(SweepSpec spec)
{
    spec.finalize();

    ExperimentPlan plan;
    plan.name = "paper-sweep";
    plan.energy = spec.energy;

    // The machine axis: an empty list means the paper's default
    // machine (exact legacy behavior, legacy cache keys).
    std::vector<MachineAxis> machines = spec.machines;
    if (machines.empty())
        machines.push_back(MachineAxis{});

    const std::size_t perApp =
        spec.retentions.size() * spec.policies.size() *
        std::max<std::size_t>(1, spec.ambients.size());
    plan.scenarios.reserve(machines.size() * spec.apps.size() *
                           (1 + perApp));
    plan.baseline.reserve(plan.scenarios.capacity());

    for (const MachineAxis &m : machines) {
        for (const Workload *app : spec.apps) {
            Scenario base;
            base.app = app->name();
            base.config = "SRAM";
            base.cores = m.cores;
            base.sim = spec.sim;
            base.workload = app;
            const int baseIdx = plan.addBaseline(std::move(base));

            auto pushEdram = [&](double ambientC) {
                for (Tick ret : spec.retentions) {
                    const double retUs =
                        static_cast<double>(ret) / 1e3;
                    for (const RefreshPolicy &pol : spec.policies) {
                        Scenario s;
                        s.app = app->name();
                        s.config = pol.name();
                        s.retentionUs = retUs;
                        s.ambientC = ambientC;
                        s.cores = m.cores;
                        s.hybrid = m.hybrid;
                        s.sim = spec.sim;
                        s.workload = app;
                        plan.add(std::move(s), baseIdx);
                    }
                }
            };
            if (spec.ambients.empty()) {
                pushEdram(0.0);
            } else {
                for (double amb : spec.ambients)
                    pushEdram(amb);
            }
        }
    }
    return plan;
}

ExperimentPlan
ExperimentPlan::paperSweep()
{
    return fromSweepSpec(SweepSpec{});
}

ExperimentPlan
ExperimentPlan::thermalStudy(const std::string &app, double retentionUs,
                             const std::vector<double> &ambients,
                             const SimParams &sim,
                             const std::vector<MachineAxis> &machines)
{
    const Workload *w = findWorkload(app);
    if (w == nullptr)
        fatal("thermal study names unknown application '%s'\n%s",
              app.c_str(), workloadRegistry().describe().c_str());
    SweepSpec spec;
    spec.apps = {w};
    spec.retentions = {usToTicks(retentionUs)};
    spec.policies = {RefreshPolicy::periodic(DataPolicy::All),
                     RefreshPolicy::refrint(DataPolicy::WB, 32, 32)};
    spec.ambients = ambients;
    spec.sim = sim;
    spec.machines = machines;
    ExperimentPlan plan = fromSweepSpec(std::move(spec));
    plan.name = "thermal-study";
    return plan;
}

std::string
energyKeyTag(const EnergyParams &energy)
{
    const EnergyParams calibrated = EnergyParams::calibrated();
    bool isDefault = energy.altModel == calibrated.altModel;
    for (const auto &f : kEnergyFields)
        isDefault = isDefault && energy.*f.field == calibrated.*f.field;
    if (isDefault)
        return "";
    // FNV-1a over the exact serialized field values, so the tag is
    // stable across platforms and identical for identical models.
    std::uint64_t h = kFnv64Basis;
    char buf[40];
    for (const auto &f : kEnergyFields) {
        std::snprintf(buf, sizeof(buf), "%.17g", energy.*f.field);
        h = fnv64Mix(buf, std::strlen(buf), h);
    }
    // The alt-backend selector joins the hash only when set, so every
    // tag minted before it existed — and every cached |en= row keyed
    // by one — is preserved byte for byte.
    if (energy.altModel != 0) {
        std::snprintf(buf, sizeof(buf), "alt=%.17g", energy.altModel);
        h = fnv64Mix(buf, std::strlen(buf), h);
    }
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

bool
ExperimentPlan::operator==(const ExperimentPlan &o) const
{
    if (name != o.name || scenarios.size() != o.scenarios.size() ||
        baseline != o.baseline)
        return false;
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        if (scenarios[i] != o.scenarios[i])
            return false;
    for (const auto &f : kEnergyFields)
        if (energy.*f.field != o.energy.*f.field)
            return false;
    return energy.altModel == o.energy.altModel;
}

} // namespace refrint
