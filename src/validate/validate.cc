#include "validate/validate.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "api/json.hh"
#include "api/scenario.hh"
#include "common/log.hh"
#include "service/store.hh"
#include "validate/analytic_model.hh"
#include "workload/workload.hh"

namespace refrint
{

namespace
{

// ---------------------------------------------------------------------
// Check thresholds.  Grouped here so every tolerance the checker
// applies is visible in one place; the rationale for each lives in
// DESIGN.md "Cross-model validation".
// ---------------------------------------------------------------------

/** Relative tolerance of the per-level vs. per-component identity
 *  (pure floating-point summation noise). */
constexpr double kIdentityTol = 1e-9;

/** Slack on the refresh ordering All >= Valid >= Dirty within one
 *  time-policy family (refresh *power*, so runtime differences between
 *  the configs cancel). */
constexpr double kOrderSlack = 1.05;

/** Slack on P.all dominating every other config's refresh power, after
 *  allowing Refrint rows the sentry-cadence factor (cell retention /
 *  sentry retention — the canary leads the data cells, so a sentry-
 *  paced engine may visit lines more often than the periodic one). */
constexpr double kDominanceSlack = 1.15;

/** Slack on refresh energy falling as retention grows (".all"
 *  policies, whose refreshed population is the whole cache). */
constexpr double kRetentionSlack = 1.05;

/** Selective data policies (valid/dirty/WB) refresh a *population*
 *  that itself grows with retention — longer-lived lines accumulate —
 *  so their refresh energy may legitimately rise along the retention
 *  axis.  Rises up to this factor are documented limits; beyond it,
 *  violations (the population cannot grow without bound). */
constexpr double kSelectiveSlack = 2.0;

/** Total-memory-energy inversions along the retention axis below this
 *  band are a documented model limit (dynamic-energy noise between
 *  runs can outweigh a small refresh delta); above it, a violation. */
constexpr double kMemLimitBand = 0.03;

/** Envelope on the primary-vs-alternate backend disagreement. */
constexpr double kAltEnvelope = 0.35;

/** Slack on the LLC refresh-count ceiling (all lines refreshed every
 *  effective sentry period for the whole run, plus two boundary
 *  visits per line). */
constexpr double kCeilingSlack = 1.10;

/** How many findings a non-verbose run prints per class. */
constexpr std::size_t kPrintCap = 10;

// ---------------------------------------------------------------------

/** Inverse of machineIdFor(): "" / "hyb" / "cN" / "cN+hyb". */
bool
parseMachineLabel(const std::string &m, std::uint32_t &cores,
                  bool &hybrid)
{
    cores = 16;
    hybrid = false;
    if (m.empty())
        return true;
    std::string rest = m;
    if (rest == "hyb") {
        hybrid = true;
        return true;
    }
    if (rest.size() > 4 &&
        rest.compare(rest.size() - 4, 4, "+hyb") == 0) {
        hybrid = true;
        rest.resize(rest.size() - 4);
    }
    if (rest.size() < 2 || rest[0] != 'c')
        return false;
    char *end = nullptr;
    const long v = std::strtol(rest.c_str() + 1, &end, 10);
    if (end == rest.c_str() + 1 || *end != '\0' || v < 1 || v > 1024)
        return false;
    cores = static_cast<std::uint32_t>(v);
    return true;
}

/** Non-fatal mirror of parsePolicy()'s grammar. */
bool
knownConfig(const std::string &s)
{
    if (s == "SRAM")
        return true;
    if (s.size() < 3 ||
        (s[0] != 'P' && s[0] != 'R' && s[0] != 'S') || s[1] != '.')
        return false;
    const std::string body = s.substr(2);
    if (body == "all" || body == "valid" || body == "dirty")
        return true;
    unsigned n = 0, mm = 0;
    char close = 0;
    return std::sscanf(body.c_str(), "WB(%u,%u%c", &n, &mm, &close) ==
               3 &&
           close == ')';
}

/** Scenario family label for the calibration table: "SRAM", "P.all",
 *  "R.WB", ... (WB tuples collapsed). */
std::string
familyOf(const std::string &config)
{
    const std::size_t wb = config.find(".WB(");
    if (wb != std::string::npos)
        return config.substr(0, wb) + ".WB";
    return config;
}

struct PolicyEntry
{
    std::string config;
    std::string key;
    double refreshE = 0;
    double execTicks = 0;
    double cellOverSentry = 1.0;
};

struct RetEntry
{
    double retentionUs = 0;
    std::string key;
    double refreshE = 0;
    double memE = 0;
    bool allPolicy = false; ///< ".all": fixed refresh population
};

double
fdiv(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

} // namespace

int
runValidate(const ValidateOptions &opts, ValidateReport *reportOut)
{
    std::FILE *out = opts.out != nullptr ? opts.out : stdout;
    panicIf(opts.storeDir.empty(), "runValidate wants a storeDir");

    // ---- load the corpus -------------------------------------------
    if (!std::ifstream(opts.storeDir + "/store.json"))
        fatal("validate: no result store at %s (missing store.json)",
              opts.storeDir.c_str());
    const std::map<std::string, CacheRow> rows =
        ShardedStore(opts.storeDir).snapshot();
    const std::string corpus = "store " + opts.storeDir;

    ValidateReport rep;
    rep.rows = rows.size();

    auto addV = [&](const std::string &key, const char *check,
                    std::string detail) {
        rep.violations.push_back({key, check, std::move(detail)});
    };
    auto addL = [&](const std::string &key, const char *check,
                    std::string detail) {
        rep.limits.push_back({key, check, std::move(detail)});
    };
    char buf[256];

    // Memoized machine configs and workload resolutions: a corpus has
    // few distinct machines and apps relative to rows.
    std::map<std::string, MachineConfig> machines;
    std::map<std::string, const Workload *> workloads;

    // Cross-row groups.
    std::map<std::string, std::vector<PolicyEntry>> policyGroups;
    std::map<std::string, std::vector<RetEntry>> retGroups;

    for (const auto &[key, row] : rows) {
        ScenarioKey k;
        if (!ScenarioKey::parse(key, k)) {
            addV(key, "key-parse", "cannot rebuild a scenario from "
                                   "this cache key");
            continue;
        }

        // ---- field sanity ------------------------------------------
        const struct
        {
            const char *name;
            double v;
            bool wantNonNeg;
        } fields[] = {
            {"execTicks", row.execTicks, true},
            {"instructions", row.instructions, true},
            {"l1", row.l1, true},
            {"l2", row.l2, true},
            {"l3", row.l3, true},
            {"dram", row.dram, true},
            {"dynamic", row.dynamic, true},
            {"leakage", row.leakage, true},
            {"refresh", row.refresh, true},
            {"core", row.core, true},
            {"net", row.net, true},
            {"dramAccesses", row.dramAccesses, true},
            {"l3Misses", row.l3Misses, true},
            {"refreshes3", row.refreshes3, true},
            {"refWbs", row.refWbs, true},
            {"refInvals", row.refInvals, true},
            {"decayed", row.decayed, true},
            {"ambientC", row.ambientC, false},
            {"maxTempC", row.maxTempC, false},
            {"requests", row.requests, true},
            {"reqP50Us", row.reqP50Us, true},
            {"reqP95Us", row.reqP95Us, true},
            {"reqP99Us", row.reqP99Us, true},
        };
        bool fieldsOk = true;
        for (const auto &f : fields) {
            if (!std::isfinite(f.v) || (f.wantNonNeg && f.v < 0)) {
                std::snprintf(buf, sizeof(buf), "%s = %g", f.name,
                              f.v);
                addV(key, "field-sane", buf);
                fieldsOk = false;
            }
        }
        if (!fieldsOk)
            continue;

        // ---- decomposition identity --------------------------------
        const double byLevel = row.l1 + row.l2 + row.l3;
        const double byComponent =
            row.dynamic + row.leakage + row.refresh;
        if (std::abs(byLevel - byComponent) >
            kIdentityTol * std::max(byLevel, 1e-30)) {
            std::snprintf(buf, sizeof(buf),
                          "l1+l2+l3 = %.17g but dyn+leak+ref = %.17g",
                          byLevel, byComponent);
            addV(key, "decomposition-identity", buf);
        }

        // ---- latency percentile ladder -----------------------------
        if (row.reqP50Us > row.reqP95Us || row.reqP95Us > row.reqP99Us)
            addV(key, "latency-ladder",
                 "p50 <= p95 <= p99 does not hold");
        if (row.requests == 0 &&
            (row.reqP50Us != 0 || row.reqP95Us != 0 ||
             row.reqP99Us != 0))
            addV(key, "latency-ladder",
                 "latency percentiles without requests");

        // ---- key/row consistency -----------------------------------
        if (std::abs(row.ambientC - k.ambientC) > 0.005 + 1e-12)
            addV(key, "key-row-consistency",
                 "row ambientC differs from the key's |amb= segment");

        // ---- SRAM rows carry no refresh ----------------------------
        if (k.config == "SRAM") {
            if (row.refresh != 0 || row.refreshes3 != 0 ||
                row.refWbs != 0 || row.refInvals != 0)
                addV(key, "sram-no-refresh",
                     "SRAM baseline row carries refresh activity");
            if (k.retentionUs != 0)
                addV(key, "sram-no-refresh",
                     "SRAM baseline row keyed with a retention");
        }

        // ---- machine + workload resolution -------------------------
        std::uint32_t cores = 16;
        bool hybrid = false;
        if (!parseMachineLabel(k.machine, cores, hybrid)) {
            addV(key, "key-parse",
                 "unknown machine label '" + k.machine + "'");
            continue;
        }
        MachineConfig *cfg = nullptr;
        if (knownConfig(k.config)) {
            std::snprintf(buf, sizeof(buf), "%s|%.17g|%.17g|%u|%d",
                          k.config.c_str(), k.retentionUs, k.ambientC,
                          cores, hybrid ? 1 : 0);
            auto [it, inserted] = machines.try_emplace(buf);
            if (inserted) {
                Scenario sc;
                sc.app = k.app;
                sc.config = k.config;
                sc.retentionUs = k.retentionUs;
                sc.ambientC = k.ambientC;
                sc.cores = cores;
                sc.hybrid = hybrid;
                it->second = sc.machine(EnergyParams::calibrated());
            }
            cfg = &it->second;
        } else {
            addV(key, "key-parse",
                 "unknown config '" + k.config + "'");
            continue;
        }

        double cellOverSentry = 1.0;
        if (cfg != nullptr && k.config != "SRAM" &&
            cfg->llc().tech == CellTech::Edram) {
            const std::uint32_t bankLines = cfg->llc().geom.numLines();
            const double cell =
                static_cast<double>(cfg->retention.cellRetention);
            const double sentry = static_cast<double>(
                cfg->retention.sentryRetention(bankLines));
            cellOverSentry = fdiv(cell, sentry);

            // ---- LLC refresh ceiling -------------------------------
            // No engine can refresh more than every line once per
            // effective sentry period; at peak temperature the period
            // shrinks by the thermal factor.
            double eff = sentry;
            if (row.maxTempC > 0)
                eff *= cfg->retention.thermal.factorAt(row.maxTempC);
            const double l3Total = static_cast<double>(bankLines) *
                                   cfg->numBanks;
            const double ceiling =
                l3Total * (fdiv(row.execTicks, eff) + 2.0) *
                kCeilingSlack;
            if (row.refreshes3 > ceiling) {
                std::snprintf(buf, sizeof(buf),
                              "refreshes3 = %.0f exceeds the "
                              "all-lines ceiling %.0f",
                              row.refreshes3, ceiling);
                addV(key, "refresh-ceiling", buf);
            }
        }

        // ---- alternate-backend tail --------------------------------
        const double sysPrimary = row.l1 + row.l2 + row.l3 + row.dram +
                                  row.core + row.net;
        if (row.altPresent != 0) {
            ++rep.altChecked;
            const double altLevel = row.altL1 + row.altL2 + row.altL3;
            const double altComp =
                row.altDynamic + row.altLeakage + row.altRefresh;
            if (std::abs(altLevel - altComp) >
                kIdentityTol * std::max(altLevel, 1e-30))
                addV(key, "alt-decomposition-identity",
                     "alternate-backend level sums disagree with its "
                     "component sums");
            const double sysAlt = altLevel + row.altDram + row.altCore +
                                  row.altNet;
            const double hi = std::max(sysPrimary, sysAlt);
            const double dis =
                hi > 0 ? std::abs(sysPrimary - sysAlt) / hi : 0.0;
            rep.maxAltDisagreement =
                std::max(rep.maxAltDisagreement, dis);
            if (dis > kAltEnvelope) {
                std::snprintf(buf, sizeof(buf),
                              "backends disagree by %.1f%% "
                              "(envelope %.0f%%)",
                              dis * 100, kAltEnvelope * 100);
                addV(key, "alt-envelope", buf);
            }
        }

        // ---- analytic envelope -------------------------------------
        if (!k.energy.empty()) {
            addL(key, "analytic-skip",
                 "re-parameterized energy model (|en= tag); the "
                 "analytic model only knows the calibrated defaults");
        } else {
            const std::string spec =
                k.workload.empty() ? k.app : k.app + ":" + k.workload;
            auto [wit, winserted] = workloads.try_emplace(spec);
            if (winserted)
                wit->second = findWorkload(spec);
            const Workload *wl = wit->second;
            WorkloadFootprint fp;
            if (wl == nullptr) {
                addL(key, "analytic-skip",
                     "unknown workload '" + spec + "'");
            } else if (!wl->footprint(fp)) {
                addL(key, "analytic-skip",
                     "workload declares no footprint");
            } else {
                AnalyticInput in;
                in.fp = fp;
                in.execTicks = row.execTicks;
                in.instructions = row.instructions;
                in.dramAccesses = row.dramAccesses;
                in.l3Misses = row.l3Misses;
                in.ambientC = row.ambientC;
                in.maxTempC = row.maxTempC;
                const AnalyticPrediction pred =
                    analyticPredict(in, *cfg,
                                    EnergyParams::calibrated());
                const double predSys = pred.systemTotal();
                const double err =
                    predSys > 0
                        ? std::abs(sysPrimary - predSys) / predSys
                        : 1.0;
                const int cls = wl->paperClass();
                std::snprintf(buf, sizeof(buf), "%s/c%d",
                              familyOf(k.config).c_str(), cls);
                double &worst = rep.analyticErr[buf];
                worst = std::max(worst, err);
                ++rep.analyticChecked;
                const double env = analyticEnvelope(k.config, cls);
                if (err > env) {
                    std::snprintf(
                        buf, sizeof(buf),
                        "analytic model off by %.1f%% (envelope "
                        "%.0f%%, predicted %.3g J, simulated %.3g J)",
                        err * 100, env * 100, predSys, sysPrimary);
                    addV(key, "analytic-envelope", buf);
                }
            }
        }

        // ---- collect cross-row groups ------------------------------
        if (k.config != "SRAM") {
            ScenarioKey g = k;
            g.config = "*";
            policyGroups[g.str()].push_back({k.config, key,
                                             row.refresh,
                                             row.execTicks,
                                             cellOverSentry});
            g = k;
            g.retentionUs = 0;
            retGroups[g.str()].push_back(
                {k.retentionUs, key, row.refresh,
                 row.l1 + row.l2 + row.l3 + row.dram,
                 k.config.size() >= 4 &&
                     k.config.compare(k.config.size() - 4, 4,
                                      ".all") == 0});
        }
    }

    // ---- cross-row: P.all dominance and data-policy ordering -------
    for (const auto &[gid, members] : policyGroups) {
        (void)gid;
        auto find = [&](const char *cfg) -> const PolicyEntry * {
            for (const PolicyEntry &e : members)
                if (e.config == cfg)
                    return &e;
            return nullptr;
        };
        const PolicyEntry *pall = find("P.all");
        if (pall != nullptr) {
            const double pallPower =
                fdiv(pall->refreshE, pall->execTicks);
            for (const PolicyEntry &e : members) {
                if (e.config == "P.all")
                    continue;
                // Refrint configs may out-refresh P.all by up to the
                // sentry-cadence factor; periodic ones may not.
                const double allow =
                    e.config[0] == 'P' ? 1.0 : e.cellOverSentry;
                const double power = fdiv(e.refreshE, e.execTicks);
                if (power > pallPower * allow * kDominanceSlack) {
                    std::snprintf(
                        buf, sizeof(buf),
                        "%s refresh power %.3g W exceeds P.all's "
                        "%.3g W x %.2f allowance",
                        e.config.c_str(), power, pallPower,
                        allow * kDominanceSlack);
                    addV(e.key, "refresh-dominance", buf);
                }
            }
        }
        for (const char prefix : {'P', 'R'}) {
            const std::string pre(1, prefix);
            const PolicyEntry *all = find((pre + ".all").c_str());
            const PolicyEntry *valid = find((pre + ".valid").c_str());
            const PolicyEntry *dirty = find((pre + ".dirty").c_str());
            auto ordered = [&](const PolicyEntry *hi,
                              const PolicyEntry *lo) {
                if (hi == nullptr || lo == nullptr)
                    return;
                const double hiP = fdiv(hi->refreshE, hi->execTicks);
                const double loP = fdiv(lo->refreshE, lo->execTicks);
                if (loP > hiP * kOrderSlack) {
                    std::snprintf(buf, sizeof(buf),
                                  "%s refresh power %.3g W exceeds "
                                  "%s's %.3g W",
                                  lo->config.c_str(), loP,
                                  hi->config.c_str(), hiP);
                    addV(lo->key, "data-policy-order", buf);
                }
            };
            ordered(all, valid);
            ordered(valid, dirty);
        }
    }

    // ---- cross-row: monotone along the retention axis --------------
    for (auto &[gid, members] : retGroups) {
        (void)gid;
        if (members.size() < 2)
            continue;
        std::sort(members.begin(), members.end(),
                  [](const RetEntry &a, const RetEntry &b) {
                      return a.retentionUs < b.retentionUs;
                  });
        for (std::size_t i = 1; i < members.size(); ++i) {
            const RetEntry &shorter = members[i - 1];
            const RetEntry &longer = members[i];
            // ".all" refreshes a fixed population, so halving the rate
            // must cut the energy; selective policies refresh a
            // population that grows with retention, so a bounded rise
            // is expected behavior, not corruption.
            const double slack =
                longer.allPolicy ? kRetentionSlack : kSelectiveSlack;
            if (longer.refreshE >
                shorter.refreshE * slack + 1e-12) {
                std::snprintf(buf, sizeof(buf),
                              "refresh energy rose from %.3g J "
                              "(%.0f us) to %.3g J (%.0f us)",
                              shorter.refreshE, shorter.retentionUs,
                              longer.refreshE, longer.retentionUs);
                addV(longer.key, "retention-refresh-monotone", buf);
            } else if (!longer.allPolicy &&
                       longer.refreshE >
                           shorter.refreshE * kRetentionSlack + 1e-12) {
                std::snprintf(
                    buf, sizeof(buf),
                    "selective-policy refresh energy rose from %.3g J "
                    "(%.0f us) to %.3g J (%.0f us): the refreshed "
                    "population grows with retention",
                    shorter.refreshE, shorter.retentionUs,
                    longer.refreshE, longer.retentionUs);
                addL(longer.key, "retention-selective-population", buf);
            }
            if (longer.memE > shorter.memE * (1.0 + kMemLimitBand)) {
                std::snprintf(buf, sizeof(buf),
                              "memory energy rose %.1f%% from %.0f us "
                              "to %.0f us retention",
                              (fdiv(longer.memE, shorter.memE) - 1.0) *
                                  100,
                              shorter.retentionUs, longer.retentionUs);
                addV(longer.key, "retention-energy-monotone", buf);
            } else if (longer.memE > shorter.memE * (1.0 + 1e-9)) {
                std::snprintf(
                    buf, sizeof(buf),
                    "memory energy rose %.2f%% from %.0f us to "
                    "%.0f us retention (within the %.0f%% "
                    "dynamic-noise band)",
                    (fdiv(longer.memE, shorter.memE) - 1.0) * 100,
                    shorter.retentionUs, longer.retentionUs,
                    kMemLimitBand * 100);
                addL(longer.key, "retention-energy-noise", buf);
            }
        }
    }

    // ---- report ----------------------------------------------------
    std::fprintf(out,
                 "validate: %zu row(s) from %s: %zu violation(s), "
                 "%zu documented limit(s)\n",
                 rep.rows, corpus.c_str(), rep.violations.size(),
                 rep.limits.size());
    std::fprintf(out,
                 "  analytic model: %zu row(s) inside their envelope"
                 "%s\n",
                 rep.analyticChecked,
                 rep.analyticChecked > 0 ? "" : " (none applicable)");
    if (opts.verbose) {
        for (const auto &[fam, err] : rep.analyticErr)
            std::fprintf(out, "    %-16s worst %.1f%%\n", fam.c_str(),
                         err * 100);
    }
    if (rep.altChecked > 0)
        std::fprintf(out,
                     "  alternate backend: %zu row(s), max "
                     "disagreement %.1f%% (envelope %.0f%%)\n",
                     rep.altChecked, rep.maxAltDisagreement * 100,
                     kAltEnvelope * 100);
    auto printFindings = [&](const char *label,
                             const std::vector<ValidateFinding> &v) {
        if (v.empty())
            return;
        const std::size_t cap =
            opts.verbose ? v.size() : std::min(v.size(), kPrintCap);
        std::fprintf(out, "  %s:\n", label);
        for (std::size_t i = 0; i < cap; ++i)
            std::fprintf(out, "    [%s] %s\n      %s\n",
                         v[i].check.c_str(), v[i].key.c_str(),
                         v[i].detail.c_str());
        if (cap < v.size())
            std::fprintf(out, "    ... and %zu more (--verbose)\n",
                         v.size() - cap);
    };
    printFindings("violations", rep.violations);
    if (opts.verbose)
        printFindings("documented limits", rep.limits);

    // ---- JSON report -----------------------------------------------
    if (!opts.jsonOut.empty()) {
        JsonValue root = JsonValue::object();
        root.set("rows", JsonValue::number(
                             static_cast<double>(rep.rows)));
        root.set("analyticChecked",
                 JsonValue::number(
                     static_cast<double>(rep.analyticChecked)));
        root.set("altChecked",
                 JsonValue::number(
                     static_cast<double>(rep.altChecked)));
        root.set("maxAltDisagreement",
                 JsonValue::number(rep.maxAltDisagreement));
        root.set("clean", JsonValue::boolean(rep.clean()));
        auto findingArray =
            [](const std::vector<ValidateFinding> &v) {
                JsonValue arr = JsonValue::array();
                for (const ValidateFinding &f : v) {
                    JsonValue o = JsonValue::object();
                    o.set("key", JsonValue::string(f.key));
                    o.set("check", JsonValue::string(f.check));
                    o.set("detail", JsonValue::string(f.detail));
                    arr.push(std::move(o));
                }
                return arr;
            };
        root.set("violations", findingArray(rep.violations));
        root.set("limits", findingArray(rep.limits));
        JsonValue errs = JsonValue::object();
        for (const auto &[fam, err] : rep.analyticErr)
            errs.set(fam, JsonValue::number(err));
        root.set("analyticErr", std::move(errs));

        std::ofstream jf(opts.jsonOut, std::ios::trunc);
        if (!jf)
            fatal("validate: cannot write JSON report to %s",
                  opts.jsonOut.c_str());
        jf << root.dump(2) << "\n";
        if (!jf.good())
            fatal("validate: short write to %s", opts.jsonOut.c_str());
    }

    if (reportOut != nullptr)
        *reportOut = std::move(rep);
    return reportOut != nullptr
               ? (reportOut->clean() ? 0 : 1)
               : (rep.clean() ? 0 : 1);
}

} // namespace refrint
