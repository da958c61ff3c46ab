/**
 * @file
 * Tests for the experiment API (src/api/): ScenarioKey canonical form
 * and byte-exact legacy (v5/v6) cache-key compatibility, collision
 * freedom across the machine/ambient axes, JSON plan round-trips
 * (load -> dump -> load identity), plan builders reproducing the
 * legacy sweep order, the Session streaming-sink protocol, the exact
 * bytes of numbers, JSON Lines rows and store rows, and the
 * full-identity SweepResult::find()/average() semantics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "api/experiment_plan.hh"
#include "api/json.hh"
#include "api/scenario.hh"
#include "api/session.hh"
#include "harness/report.hh"
#include "service/store.hh"
#include "workload/method.hh"
#include "workload/micro.hh"

namespace refrint::test
{
namespace
{

Scenario
edramScenario(const char *app, const char *config, double retUs,
              double ambientC = 0.0, std::uint32_t cores = 16,
              bool hybrid = false)
{
    Scenario s;
    s.app = app;
    s.config = config;
    s.retentionUs = retUs;
    s.ambientC = ambientC;
    s.cores = cores;
    s.hybrid = hybrid;
    s.sim.refsPerCore = 4000;
    s.sim.seed = 1;
    return s;
}

/** The pre-PR-5 key builder, verbatim (sweep.cc's runKey), as the
 *  executable specification of the legacy v5/v6 key format. */
std::string
legacyRunKey(const std::string &app, const std::string &config,
             double retentionUs, const SimParams &sim, double ambientC,
             const std::string &machine)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s|%s|%.1f|%llu|%llu", app.c_str(),
                  config.c_str(), retentionUs,
                  static_cast<unsigned long long>(sim.refsPerCore),
                  static_cast<unsigned long long>(sim.seed));
    std::string key = buf;
    if (ambientC != 0.0) {
        std::snprintf(buf, sizeof(buf), "|amb=%.2f", ambientC);
        key += buf;
    }
    if (!machine.empty())
        key += "|mach=" + machine;
    return key;
}

// ---------------------------------------------------------------------
// ScenarioKey: canonical form and legacy compatibility
// ---------------------------------------------------------------------

TEST(ScenarioKeyTest, CanonicalLegacyV5Forms)
{
    // Literal keys as they appear in a pre-PR-5 cache file.
    EXPECT_EQ(edramScenario("fft", "P.all", 50.0).key().str(),
              "fft|P.all|50.0|4000|1");
    EXPECT_EQ(edramScenario("lu", "R.WB(32,32)", 200.0).key().str(),
              "lu|R.WB(32,32)|200.0|4000|1");

    Scenario sram;
    sram.app = "fft";
    sram.config = "SRAM";
    sram.sim.refsPerCore = 4000;
    sram.sim.seed = 1;
    EXPECT_EQ(sram.key().str(), "fft|SRAM|0.0|4000|1");

    // Thermal rows: the |amb= suffix, %.2f.
    EXPECT_EQ(edramScenario("fft", "P.all", 50.0, 65.0).key().str(),
              "fft|P.all|50.0|4000|1|amb=65.00");
}

TEST(ScenarioKeyTest, CanonicalV6MachineForms)
{
    EXPECT_EQ(edramScenario("fft", "P.all", 50.0, 0.0, 32).key().str(),
              "fft|P.all|50.0|4000|1|mach=c32");
    EXPECT_EQ(
        edramScenario("fft", "P.all", 50.0, 0.0, 16, true).key().str(),
        "fft|P.all|50.0|4000|1|mach=hyb");
    EXPECT_EQ(
        edramScenario("fft", "P.all", 50.0, 0.0, 32, true).key().str(),
        "fft|P.all|50.0|4000|1|mach=c32+hyb");
    // Ambient and machine segments compose in that order.
    EXPECT_EQ(
        edramScenario("fft", "P.all", 50.0, 85.0, 32).key().str(),
        "fft|P.all|50.0|4000|1|amb=85.00|mach=c32");
}

TEST(ScenarioKeyTest, MethodInstancesAlwaysCarryTheWlSegment)
{
    // A parameterized spec keys under its full canonical parameter
    // list: schema order, every default explicit.
    EXPECT_EQ(
        edramScenario("agg:groups=1024,tables=part", "P.all", 50.0)
            .key()
            .str(),
        "agg|P.all|50.0|4000|1"
        "|wl=tables=part,groups=1024,in=1048576,skew=0.8,gap=3");

    // Even an all-defaults bare method spec keys the explicit list, so
    // a method row can never alias a legacy-named row.
    EXPECT_EQ(
        edramScenario("agg", "P.all", 50.0).key().str(),
        "agg|P.all|50.0|4000|1"
        "|wl=tables=shared,groups=4096,in=1048576,skew=0.8,gap=3");

    // Numeric spellings canonicalize: 2e6 -> 2000000, 64k -> 65536.
    EXPECT_EQ(
        edramScenario("serve:rps=2e6,ws=64k", "P.all", 50.0).key().str(),
        "serve|P.all|50.0|4000|1"
        "|wl=rps=2000000,ws=65536,data=1048576,wf=0.25,gap=3");
}

TEST(ScenarioKeyTest, WlSegmentComposesBeforeAmbientAndMachine)
{
    EXPECT_EQ(
        edramScenario("agg", "P.all", 50.0, 65.0, 32).key().str(),
        "agg|P.all|50.0|4000|1"
        "|wl=tables=shared,groups=4096,in=1048576,skew=0.8,gap=3"
        "|amb=65.00|mach=c32");
}

TEST(ScenarioKeyTest, LegacyNamesNeverGainAWlSegment)
{
    for (const Workload *w : paperWorkloads()) {
        const ScenarioKey k =
            edramScenario(w->name(), "P.all", 50.0).key();
        EXPECT_EQ(k.workload, "") << w->name();
        EXPECT_EQ(k.str().find("|wl="), std::string::npos) << w->name();
    }
}

TEST(ScenarioKeyTest, EveryLegacyKeyRegeneratesExactly)
{
    // Sweep the full legacy key space shape: apps x configs x
    // retentions x ambients x machines, including fractional ambients
    // and retentions that stress the fixed-precision formatting.
    const char *apps[] = {"fft", "lu", "streamcluster"};
    const char *configs[] = {"SRAM", "P.all", "R.WB(32,32)", "P.dirty"};
    const double rets[] = {0.0, 50.0, 100.0, 200.0, 33.25};
    const double ambients[] = {0.0, 45.0, 65.0, 85.0, 47.25};
    const struct
    {
        std::uint32_t cores;
        bool hybrid;
    } machines[] = {{16, false}, {32, false}, {16, true}, {48, true}};

    for (const char *app : apps) {
        for (const char *config : configs) {
            for (double ret : rets) {
                for (double amb : ambients) {
                    for (const auto &m : machines) {
                        const Scenario s = edramScenario(
                            app, config, ret, amb, m.cores, m.hybrid);
                        EXPECT_EQ(s.key().str(),
                                  legacyRunKey(app, config, ret, s.sim,
                                               amb, s.machineLabel()))
                            << s.key().str();
                    }
                }
            }
        }
    }
}

TEST(ScenarioKeyTest, AxesNeverCollide)
{
    // The same (app, config, retention, refs, seed) point along every
    // machine/ambient combination must produce pairwise-distinct keys,
    // and no machine-keyed key may ever equal a legacy one.
    std::set<std::string> keys;
    std::size_t produced = 0;
    for (double amb : {0.0, 45.0, 65.0, 85.0}) {
        for (std::uint32_t cores : {16u, 32u, 64u}) {
            for (bool hybrid : {false, true}) {
                const Scenario s = edramScenario("fft", "P.all", 50.0,
                                                 amb, cores, hybrid);
                keys.insert(s.key().str());
                ++produced;
            }
        }
    }
    EXPECT_EQ(keys.size(), produced);
    // Legacy (default machine, isothermal) keys carry no axis markers.
    for (const std::string &k : keys) {
        const bool marked = k.find("|amb=") != std::string::npos ||
                            k.find("|mach=") != std::string::npos;
        const bool isLegacy = k == "fft|P.all|50.0|4000|1";
        EXPECT_NE(marked, isLegacy) << k;
    }
}

TEST(ScenarioKeyTest, LongNamesDoNotTruncate)
{
    // The legacy 256-byte snprintf buffer truncated pathological keys;
    // ScenarioKey must not.
    Scenario s = edramScenario("fft", "P.all", 50.0);
    s.app = std::string(300, 'a');
    const std::string key = s.key().str();
    EXPECT_EQ(key.substr(0, 300), std::string(300, 'a'));
    EXPECT_NE(key.find("|P.all|50.0|4000|1"), std::string::npos);

    // An absurd retention renders ~310 digits in %.1f; the refs/seed
    // segments must survive it (keys differing only in seed may never
    // alias).
    Scenario wide = edramScenario("fft", "P.all", 1e300);
    const std::string wideKey = wide.key().str();
    EXPECT_NE(wideKey.find("|4000|1"), std::string::npos);
    wide.sim.seed = 2;
    EXPECT_NE(wide.key().str(), wideKey);
}

TEST(ScenarioKeyTest, MachineLabelMatchesBuiltMachine)
{
    // The key's machine label and the built MachineConfig's machineId
    // come from one helper; prove they agree end to end.
    const EnergyParams energy = EnergyParams::calibrated();
    for (std::uint32_t cores : {16u, 32u, 48u}) {
        for (bool hybrid : {false, true}) {
            const Scenario s = edramScenario("fft", "R.WB(32,32)", 50.0,
                                             0.0, cores, hybrid);
            EXPECT_EQ(s.machine(energy).machineId, s.key().machine);
        }
    }
    Scenario sram;
    sram.app = "fft";
    sram.cores = 32;
    EXPECT_EQ(sram.machine(energy).machineId, "c32");
    EXPECT_EQ(sram.key().machine, "c32");
}

TEST(ScenarioKeyTest, EnergyModelKeysItsOwnRows)
{
    // The calibrated defaults keep legacy keys byte-identical...
    EXPECT_EQ(energyKeyTag(EnergyParams::calibrated()), "");
    // ...while any re-parameterized model tags its rows.
    EnergyParams tweaked = EnergyParams::calibrated();
    tweaked.eL3Access *= 100.0;
    const std::string tag = energyKeyTag(tweaked);
    ASSERT_EQ(tag.size(), 16u);

    ScenarioKey k = edramScenario("fft", "P.all", 50.0).key();
    EXPECT_EQ(k.str(), "fft|P.all|50.0|4000|1");
    k.energy = tag;
    EXPECT_EQ(k.str(), "fft|P.all|50.0|4000|1|en=" + tag);

    // Distinct models get distinct tags.
    EnergyParams other = tweaked;
    other.leakCore *= 2.0;
    EXPECT_NE(energyKeyTag(other), tag);
    EXPECT_EQ(energyKeyTag(tweaked), tag); // and tags are stable
}

// ---------------------------------------------------------------------
// JSON plans
// ---------------------------------------------------------------------

TEST(JsonTest, ParsesAndDumpsRoundTrip)
{
    const std::string text =
        "{\"a\": [1, 2.5, true, false, null], \"s\": \"x\\n\\\"y\\\"\","
        " \"nested\": {\"k\": -3e-2}}";
    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(text, v, err)) << err;
    EXPECT_EQ(v.get("a")->items().size(), 5u);
    EXPECT_EQ(v.get("a")->items()[1].asNumber(), 2.5);
    EXPECT_EQ(v.get("s")->asString(), "x\n\"y\"");
    EXPECT_EQ(v.get("nested")->get("k")->asNumber(), -0.03);

    // dump -> parse -> dump is a fixed point.
    const std::string once = v.dump(2);
    JsonValue v2;
    ASSERT_TRUE(JsonValue::parse(once, v2, err)) << err;
    EXPECT_EQ(v2.dump(2), once);
}

TEST(JsonTest, RejectsMalformedDocuments)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(JsonValue::parse("{\"a\": }", v, err));
    EXPECT_FALSE(JsonValue::parse("[1, 2", v, err));
    EXPECT_FALSE(JsonValue::parse("\"unterminated", v, err));
    EXPECT_FALSE(JsonValue::parse("{} trailing", v, err));
    EXPECT_FALSE(JsonValue::parse("", v, err));

    // A \u escape is exactly four hex digits: no sign, no spaces, no
    // 0x prefix (each of these once decoded to a character).
    EXPECT_FALSE(JsonValue::parse("\"\\u+041\"", v, err));
    EXPECT_FALSE(JsonValue::parse("\"\\u -1a\"", v, err));
    EXPECT_FALSE(JsonValue::parse("\"\\u0x41\"", v, err));
    EXPECT_FALSE(JsonValue::parse("\"\\u004\"", v, err));

    // Well-formed escapes still decode, to UTF-8 above ASCII.
    ASSERT_TRUE(JsonValue::parse("\"\\u0041\"", v, err)) << err;
    EXPECT_EQ(v.asString(), "A");
    ASSERT_TRUE(JsonValue::parse("\"\\u00e9\\u00E9\"", v, err)) << err;
    EXPECT_EQ(v.asString(), "\xC3\xA9\xC3\xA9");
}

std::string
printf17g(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
fromBits(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

TEST(JsonTest, NumbersPrintExactlyAsPrintf17g)
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 2.5, -0.03, 1e-5, 1e-4,
        8999999999999999.0, 9e15, 9007199254740992.0,
        9007199254740994.0, 1e16, 99999999999999999.0, 1e17, 1e17 + 16,
        1e21, 1e22, 1e300, -1e-300,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        fromBits(0x000fffffffffffffULL), // largest denormal
        inf, -inf};
    // Row-like values: tick counts, energies in joules, latencies.
    for (int i = 0; i < 64; ++i) {
        values.push_back(std::ldexp(1.0, i));
        values.push_back(std::pow(10.0, i - 32));
        values.push_back(std::nextafter(std::pow(10.0, i - 32), inf));
    }
    std::mt19937_64 rng(20231);
    for (int i = 0; i < 1000000; ++i)
        values.push_back(fromBits(rng()));
    for (int i = 0; i < 20000; ++i) // integral, some past 2^53
        values.push_back(static_cast<double>(rng() >> (rng() % 64)));

    std::size_t mismatches = 0;
    std::string out;
    for (const double v : values) {
        const std::string want = printf17g(v);
        out.assign("x");
        appendJsonNumber(out, v);
        if (out != "x" + want || jsonNumber(v) != want) {
            if (++mismatches <= 5)
                ADD_FAILURE() << want << " printed as " << out;
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";

    // The tree dumps numbers through the same formatter.
    EXPECT_EQ(JsonValue::number(8999999999999999.0).dump(),
              "8999999999999999");
    EXPECT_EQ(JsonValue::number(-0.0).dump(), "-0");
    EXPECT_EQ(JsonValue::number(1e17).dump(), "1e+17");
    EXPECT_EQ(JsonValue::number(0.1).dump(), "0.10000000000000001");
}

// ---------------------------------------------------------------------
// Store row codec
// ---------------------------------------------------------------------

/** The codec's specification: every field in its documented order,
 *  each printed with %.17g, the alternate-backend tail only when
 *  present. */
std::string
printfJoin(const CacheRow &c)
{
    const std::vector<double> base = {
        c.execTicks, c.instructions, c.l1, c.l2, c.l3, c.dram,
        c.dynamic, c.leakage, c.refresh, c.core, c.net, c.dramAccesses,
        c.l3Misses, c.refreshes3, c.refWbs, c.refInvals, c.decayed,
        c.ambientC, c.maxTempC, c.requests, c.reqP50Us, c.reqP95Us,
        c.reqP99Us};
    const std::vector<double> alt = {
        c.altPresent, c.altL1, c.altL2, c.altL3, c.altDram,
        c.altDynamic, c.altLeakage, c.altRefresh, c.altCore, c.altNet};
    std::string out;
    for (const double v : base)
        out += (out.empty() ? "" : ",") + printf17g(v);
    if (c.altPresent != 0)
        for (const double v : alt)
            out += "," + printf17g(v);
    return out;
}

/** A finite double of any magnitude, or an integral count. */
double
randomField(std::mt19937_64 &rng)
{
    for (;;) {
        const std::uint64_t bits = rng();
        if (bits % 3 == 0)
            return static_cast<double>(bits >> 20);
        const double v = fromBits(bits);
        if (std::isfinite(v))
            return v;
    }
}

TEST(CacheRowCodecTest, EncodesAsAPrintfJoinAndRoundTrips)
{
    // The decoder refuses a count outside [0, 2^64): runFromCacheRow
    // casts the eight counts to integers.
    constexpr double CacheRow::*counts[] = {
        &CacheRow::execTicks,  &CacheRow::instructions,
        &CacheRow::dramAccesses, &CacheRow::l3Misses,
        &CacheRow::refreshes3, &CacheRow::refWbs,
        &CacheRow::refInvals,  &CacheRow::decayed};
    std::mt19937_64 rng(7);
    for (int i = 0; i < 2000; ++i) {
        CacheRow c{};
        double *fields = &c.execTicks;
        const std::size_t n = sizeof(CacheRow) / sizeof(double);
        const bool alt = i % 2 == 1;
        for (std::size_t f = 0; f < n; ++f)
            fields[f] = randomField(rng);
        for (double CacheRow::*f : counts)
            c.*f = std::fmod(std::fabs(c.*f), 0x1p64);
        c.altPresent = alt ? 1 : 0;
        if (!alt)
            c.altL1 = c.altL2 = c.altL3 = c.altDram = c.altDynamic =
                c.altLeakage = c.altRefresh = c.altCore = c.altNet = 0;

        const std::string text = encodeCacheRow(c);
        ASSERT_EQ(text, printfJoin(c)) << "row " << i;
        CacheRow back{};
        ASSERT_TRUE(decodeCacheRow(text, back)) << text;
        EXPECT_EQ(std::memcmp(&back, &c, sizeof(c)), 0) << text;
    }
}

TEST(ExperimentPlanTest, JsonRoundTripIsIdentity)
{
    SweepSpec spec;
    spec.apps = {findWorkload("fft"), findWorkload("lu")};
    spec.sim.refsPerCore = 4000;
    spec.ambients = {45.0, 85.0};
    spec.machines = {MachineAxis{16, false}, MachineAxis{32, true}};
    const ExperimentPlan plan =
        ExperimentPlan::fromSweepSpec(std::move(spec));

    const std::string dumped = plan.toJson();
    const ExperimentPlan reloaded = ExperimentPlan::fromJson(dumped);
    EXPECT_EQ(reloaded, plan);
    // The loader keeps the workload it resolved.
    for (const Scenario &sc : reloaded.scenarios)
        EXPECT_EQ(sc.workload, findWorkload(sc.app)) << sc.app;

    // load -> dump -> load: the dump of the reloaded plan is
    // byte-identical, and parsing it again yields the same plan.
    const std::string dumpedAgain = reloaded.toJson();
    EXPECT_EQ(dumpedAgain, dumped);
    EXPECT_EQ(ExperimentPlan::fromJson(dumpedAgain), plan);
}

TEST(ExperimentPlanTest, FromSweepSpecReproducesLegacyOrder)
{
    SweepSpec spec;
    spec.apps = {findWorkload("fft")};
    spec.retentions = {usToTicks(50.0), usToTicks(100.0)};
    spec.policies = {RefreshPolicy::periodic(DataPolicy::All),
                     RefreshPolicy::refrint(DataPolicy::WB, 32, 32)};
    spec.sim.refsPerCore = 4000;
    spec.machines = {MachineAxis{16, false}, MachineAxis{32, false}};
    const ExperimentPlan plan =
        ExperimentPlan::fromSweepSpec(std::move(spec));

    // Per machine: baseline, then retention x policy.
    ASSERT_EQ(plan.size(), 2u * (1u + 2u * 2u));
    EXPECT_EQ(plan.scenarios[0].config, "SRAM");
    EXPECT_EQ(plan.baseline[0], -1);
    EXPECT_EQ(plan.scenarios[1].config, "P.all");
    EXPECT_EQ(plan.scenarios[1].retentionUs, 50.0);
    EXPECT_EQ(plan.scenarios[2].config, "R.WB(32,32)");
    EXPECT_EQ(plan.scenarios[3].retentionUs, 100.0);
    for (int i = 1; i <= 4; ++i)
        EXPECT_EQ(plan.baseline[static_cast<std::size_t>(i)], 0);

    // Second machine group: its own baseline at index 5.
    EXPECT_EQ(plan.scenarios[5].config, "SRAM");
    EXPECT_EQ(plan.scenarios[5].cores, 32u);
    EXPECT_EQ(plan.baseline[5], -1);
    for (int i = 6; i <= 9; ++i) {
        EXPECT_EQ(plan.baseline[static_cast<std::size_t>(i)], 5);
        EXPECT_EQ(plan.scenarios[static_cast<std::size_t>(i)].cores,
                  32u);
    }
}

TEST(ExperimentPlanTest, EnvironmentNeverOverridesTheSpec)
{
    // Regression: the library once let $REFRINT_REFS and $REFRINT_APPS
    // replace a spec's explicit refs and apps, so a developer's shell
    // silently changed `sweep --app fft --refs 1000`.
    setenv("REFRINT_REFS", "300", 1);
    setenv("REFRINT_APPS", "lu", 1);
    SweepSpec spec;
    spec.apps = {findWorkload("fft")};
    spec.sim.refsPerCore = 1000;
    const ExperimentPlan plan =
        ExperimentPlan::fromSweepSpec(std::move(spec));
    unsetenv("REFRINT_REFS");
    unsetenv("REFRINT_APPS");

    ASSERT_EQ(plan.size(), 43u); // SRAM + 3 retentions x 14 policies
    for (const Scenario &sc : plan.scenarios) {
        EXPECT_EQ(sc.app, "fft");
        EXPECT_EQ(sc.sim.refsPerCore, 1000u);
    }
}

TEST(ExperimentPlanTest, LoaderRejectsBrokenPlans)
{
    EXPECT_EXIT(ExperimentPlan::fromJson("not json"),
                ::testing::ExitedWithCode(1), "cannot parse plan");
    EXPECT_EXIT(ExperimentPlan::fromJson("{\"plan\": \"x\"}"),
                ::testing::ExitedWithCode(1), "version");
    EXPECT_EXIT(
        ExperimentPlan::fromJson(
            "{\"plan\": \"x\", \"version\": 1, \"scenarios\": "
            "[{\"app\": \"nosuchapp\", \"config\": \"SRAM\", "
            "\"retentionUs\": 0, \"ambientC\": 0, \"cores\": 16, "
            "\"refs\": 100, \"seed\": 1, \"maxTicks\": 1000, "
            "\"baseline\": -1}]}"),
        ::testing::ExitedWithCode(1), "unknown application");
    EXPECT_EXIT(ExperimentPlan::loadFile("/nonexistent/plan.json"),
                ::testing::ExitedWithCode(1), "cannot read plan");

    // Numeric sanity: every malformed value dies cleanly at load time
    // (never mid-run, never via an undefined double->int cast).
    auto scenarioWith = [](const char *field, const char *value) {
        std::string s =
            "{\"plan\": \"x\", \"version\": 1, \"scenarios\": "
            "[{\"app\": \"fft\", \"config\": \"SRAM\", "
            "\"retentionUs\": 0, \"ambientC\": 0, \"cores\": 16, "
            "\"refs\": 100, \"seed\": 1, \"baseline\": -1}]}";
        const std::string key = std::string("\"") + field + "\": ";
        const auto at = s.find(key);
        const auto end = s.find_first_of(",}", at);
        return s.substr(0, at + key.size()) + value + s.substr(end);
    };
    EXPECT_EXIT(ExperimentPlan::fromJson(scenarioWith("cores", "2")),
                ::testing::ExitedWithCode(1), "4, 64");
    EXPECT_EXIT(ExperimentPlan::fromJson(scenarioWith("refs", "-1")),
                ::testing::ExitedWithCode(1), "integer");
    EXPECT_EXIT(ExperimentPlan::fromJson(scenarioWith("seed", "1.5")),
                ::testing::ExitedWithCode(1), "integer");
    EXPECT_EXIT(
        ExperimentPlan::fromJson(scenarioWith("baseline", "-7")),
        ::testing::ExitedWithCode(1), "baseline");
    EXPECT_EXIT(
        ExperimentPlan::fromJson(scenarioWith("baseline", "1e300")),
        ::testing::ExitedWithCode(1), "baseline");
    EXPECT_EXIT(ExperimentPlan::fromJson(scenarioWith("refs", "nan")),
                ::testing::ExitedWithCode(1), "cannot parse plan");

    // The SmartRefresh comparator does not model temperature-scaled
    // retention: a thermal S.* scenario dies at load time, and the
    // serve path sees the same rule as a recoverable error.  The same
    // scenario without an ambient loads.
    auto smartAt = [](const char *ambientC) {
        return std::string("{\"plan\": \"x\", \"version\": 1, "
                           "\"scenarios\": [{\"app\": \"fft\", "
                           "\"config\": \"S.all\", \"retentionUs\": 50, "
                           "\"ambientC\": ") +
               ambientC +
               ", \"cores\": 16, \"refs\": 100, \"seed\": 1, "
               "\"baseline\": -1}]}";
    };
    EXPECT_EXIT(ExperimentPlan::fromJson(smartAt("85")),
                ::testing::ExitedWithCode(1), "SmartRefresh");
    ExperimentPlan plan;
    std::string err;
    EXPECT_FALSE(ExperimentPlan::tryFromJson(smartAt("85"), plan, err));
    EXPECT_NE(err.find("P.* or R.*"), std::string::npos) << err;
    EXPECT_TRUE(ExperimentPlan::tryFromJson(smartAt("0"), plan, err))
        << err;

    // Every scenario field goes through Scenario::check: a config that
    // is no canonical policy name, an eDRAM retention that is not
    // positive, does not fit a Tick, overflows the engines' tick
    // arithmetic or leaves the sentry nothing, and an SRAM scenario
    // with a retention are load errors, so nothing is simulated under
    // a key no canonical scenario has.
    auto scenarioOf = [](const char *config, const char *retentionUs,
                         const char *ambientC) {
        return std::string("{\"plan\": \"x\", \"version\": 1, "
                           "\"scenarios\": [{\"app\": \"fft\", "
                           "\"config\": \"") +
               config + "\", \"retentionUs\": " + retentionUs +
               ", \"ambientC\": " + ambientC +
               ", \"cores\": 16, \"refs\": 100, "
               "\"seed\": 1, \"baseline\": -1}]}";
    };
    const struct
    {
        const char *config, *retentionUs, *message;
        const char *ambientC = "0";
    } rejected[] = {
        {"Q.all", "50", "unknown config 'Q.all'"},
        {"p.all", "50", "unknown config 'p.all'"},
        {"P.WB(4,4", "50", "unknown config"},
        {"P.WB(4,4)xyz", "50", "unknown config"},
        {"P.WB(-1,4)", "50", "unknown config"},
        {"P.all", "0", "positive retention"},
        {"P.all", "1e300", "positive retention"},
        {"P.all", "-5", "positive retention"},
        {"P.all", "16", "sentry margin"},
        {"P.all", "1e15", "overflows the tick counter"},
        {"P.all", "1e15", "overflows the tick counter", "35"},
        {"SRAM", "50", "SRAM scenario takes no retention"},
    };
    for (const auto &r : rejected) {
        const std::string text =
            scenarioOf(r.config, r.retentionUs, r.ambientC);
        EXPECT_FALSE(ExperimentPlan::tryFromJson(text, plan, err)) << text;
        EXPECT_NE(err.find(r.message), std::string::npos) << err;
    }
    EXPECT_EXIT(ExperimentPlan::fromJson(scenarioOf("Q.all", "50", "0")),
                ::testing::ExitedWithCode(1), "unknown config 'Q.all'");
    EXPECT_TRUE(ExperimentPlan::tryFromJson(
        scenarioOf("P.WB(4,4)", "50", "0"), plan, err))
        << err;
    EXPECT_TRUE(
        ExperimentPlan::tryFromJson(scenarioOf("P.all", "1e10", "35"), plan,
                                    err))
        << err;
    // A core count past 32 bits is an integer range error, not a
    // truncation to 16 cores.
    EXPECT_EXIT(
        ExperimentPlan::fromJson(scenarioWith("cores", "4294967312")),
        ::testing::ExitedWithCode(1), "integer");
}

TEST(ExperimentPlanTest, LoaderRejectsCrossFamilyBaselines)
{
    // A baseline scenario for fft at 16 cores, plus one measured
    // scenario pointing at it — with a configurable app and machine.
    auto planWith = [](const char *app2, const char *cores2) {
        return std::string(
                   "{\"plan\": \"x\", \"version\": 1, \"scenarios\": ["
                   "{\"app\": \"fft\", \"config\": \"SRAM\", "
                   "\"retentionUs\": 0, \"ambientC\": 0, \"cores\": 16, "
                   "\"refs\": 100, \"seed\": 1, \"baseline\": -1}, "
                   "{\"app\": \"") +
               app2 +
               "\", \"config\": \"P.all\", \"retentionUs\": 50, "
               "\"ambientC\": 0, \"cores\": " +
               cores2 + ", \"refs\": 100, \"seed\": 1, \"baseline\": 0}]}";
    };

    // Control: the same-family plan parses.
    ExperimentPlan plan;
    std::string err;
    EXPECT_TRUE(
        ExperimentPlan::tryFromJson(planWith("fft", "16"), plan, err))
        << err;

    // Normalizing fft rows against an lu baseline, or 32-core rows
    // against a 16-core baseline, dies cleanly at load time.
    EXPECT_EXIT(ExperimentPlan::fromJson(planWith("lu", "16")),
                ::testing::ExitedWithCode(1), "different workload");
    EXPECT_EXIT(ExperimentPlan::fromJson(planWith("fft", "32")),
                ::testing::ExitedWithCode(1), "different machine");

    // The serve path sees the same rule as a recoverable error.
    EXPECT_FALSE(
        ExperimentPlan::tryFromJson(planWith("lu", "16"), plan, err));
    EXPECT_NE(err.find("different workload"), std::string::npos);
    EXPECT_FALSE(
        ExperimentPlan::tryFromJson(planWith("fft", "32"), plan, err));
    EXPECT_NE(err.find("different machine"), std::string::npos);

    // A baseline index naming a non-baseline scenario is a parse
    // error too (not a validate() abort — serve must survive it).
    const std::string chained =
        "{\"plan\": \"x\", \"version\": 1, \"scenarios\": ["
        "{\"app\": \"fft\", \"config\": \"SRAM\", \"retentionUs\": 0, "
        "\"ambientC\": 0, \"cores\": 16, \"refs\": 100, \"seed\": 1, "
        "\"baseline\": -1}, "
        "{\"app\": \"fft\", \"config\": \"P.all\", \"retentionUs\": 50, "
        "\"ambientC\": 0, \"cores\": 16, \"refs\": 100, \"seed\": 1, "
        "\"baseline\": 0}, "
        "{\"app\": \"fft\", \"config\": \"P.dirty\", \"retentionUs\": "
        "50, \"ambientC\": 0, \"cores\": 16, \"refs\": 100, \"seed\": "
        "1, \"baseline\": 1}]}";
    EXPECT_FALSE(ExperimentPlan::tryFromJson(chained, plan, err));
    EXPECT_NE(err.find("not itself a baseline"), std::string::npos);
}

TEST(ExperimentPlanTest, MaxTicksIsOptionalButMustBePositive)
{
    const char *noTicks =
        "{\"plan\": \"x\", \"version\": 1, \"scenarios\": "
        "[{\"app\": \"fft\", \"config\": \"SRAM\", \"retentionUs\": 0, "
        "\"ambientC\": 0, \"cores\": 16, \"refs\": 100, \"seed\": 1, "
        "\"baseline\": -1}]}";
    const ExperimentPlan plan = ExperimentPlan::fromJson(noTicks);
    EXPECT_EQ(plan.scenarios[0].sim.maxTicks, SimParams{}.maxTicks);

    const std::string zeroTicks = std::string(noTicks).insert(
        std::string(noTicks).find("\"baseline\""), "\"maxTicks\": 0, ");
    EXPECT_EXIT(ExperimentPlan::fromJson(zeroTicks),
                ::testing::ExitedWithCode(1), "maxTicks");
}

TEST(ExperimentPlanTest, ThermalStudyBuilderMatchesCliShape)
{
    const ExperimentPlan plan = ExperimentPlan::thermalStudy(
        "fft", 50.0, {45.0, 65.0, 85.0});
    // 1 baseline + 3 ambients x 1 retention x 2 policies.
    ASSERT_EQ(plan.size(), 7u);
    EXPECT_EQ(plan.name, "thermal-study");
    EXPECT_EQ(plan.scenarios[0].config, "SRAM");
    EXPECT_EQ(plan.scenarios[1].config, "P.all");
    EXPECT_EQ(plan.scenarios[1].ambientC, 45.0);
    EXPECT_EQ(plan.scenarios[2].config, "R.WB(32,32)");
    EXPECT_EQ(plan.scenarios[6].ambientC, 85.0);
}

// ---------------------------------------------------------------------
// Session + sinks
// ---------------------------------------------------------------------

/** Records the sink protocol for inspection. */
class RecordingSink : public ResultSink
{
  public:
    int begins = 0, ends = 0;
    std::vector<std::size_t> order;
    std::vector<bool> hadNorm;

    void
    begin(const ExperimentPlan &) override
    {
        ++begins;
    }
    void
    consume(const ExperimentPlan &, std::size_t index,
            const RunResult &, const NormalizedResult *norm,
            bool) override
    {
        order.push_back(index);
        hadNorm.push_back(norm != nullptr);
    }
    void
    end(const ExperimentPlan &, const SweepResult &) override
    {
        ++ends;
    }
};

ExperimentPlan
microPlan(const Workload &w)
{
    SweepSpec spec;
    spec.apps = {&w};
    spec.retentions = {usToTicks(50.0)};
    spec.policies = {RefreshPolicy::periodic(DataPolicy::All),
                     RefreshPolicy::refrint(DataPolicy::WB, 32, 32)};
    spec.sim.refsPerCore = 1200;
    return ExperimentPlan::fromSweepSpec(std::move(spec));
}

TEST(SessionTest, StreamsRowsInPlanOrderToEverySink)
{
    UniformWorkload u(8 * 1024, 0.3);
    const ExperimentPlan plan = microPlan(u);

    RecordingSink rec;
    Session session(nullptr, 4);
    const SweepResult res = session.run(plan, {&rec});

    EXPECT_EQ(rec.begins, 1);
    EXPECT_EQ(rec.ends, 1);
    ASSERT_EQ(rec.order.size(), plan.size());
    for (std::size_t i = 0; i < rec.order.size(); ++i)
        EXPECT_EQ(rec.order[i], i);
    EXPECT_FALSE(rec.hadNorm[0]); // the SRAM baseline
    EXPECT_TRUE(rec.hadNorm[1]);
    EXPECT_TRUE(rec.hadNorm[2]);
    EXPECT_EQ(res.raw.size(), 3u);
    EXPECT_EQ(res.normalized.size(), 2u);
    EXPECT_EQ(res.metrics.simulated, 3u);
}

TEST(SessionTest, JsonLinesSinkEmitsOneValidObjectPerRow)
{
    UniformWorkload u(8 * 1024, 0.3);
    const ExperimentPlan plan = microPlan(u);

    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    JsonLinesSink sink(tmp);
    Session session(nullptr, 1);
    session.run(plan, {&sink});

    std::rewind(tmp);
    char line[4096];
    std::size_t rows = 0;
    while (std::fgets(line, sizeof(line), tmp) != nullptr) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(JsonValue::parse(line, v, err)) << err;
        EXPECT_TRUE(v.get("key")->isString());
        EXPECT_TRUE(v.get("energy")->isObject());
        ++rows;
    }
    std::fclose(tmp);
    EXPECT_EQ(rows, plan.size());
}

/** A JSON Lines row as a JsonValue tree, built field by field: the
 *  specification JsonLinesSink's direct writer must match byte for
 *  byte. */
JsonValue
referenceRow(const ExperimentPlan &plan, std::size_t index,
             const RunResult &r, const NormalizedResult *norm,
             bool simulated)
{
    auto num = [](double v) { return JsonValue::number(v); };
    JsonValue o = JsonValue::object();
    o.set("plan", JsonValue::string(plan.name));
    ScenarioKey key = plan.scenarios[index].key();
    key.energy = energyKeyTag(plan.energy);
    o.set("key", JsonValue::string(key.str()));
    o.set("app", JsonValue::string(r.app));
    o.set("config", JsonValue::string(r.config));
    o.set("machine", JsonValue::string(r.machine));
    o.set("retentionUs", num(r.retentionUs));
    o.set("ambientC", num(r.ambientC));
    o.set("maxTempC", num(r.maxTempC));
    o.set("execTicks", num(static_cast<double>(r.execTicks)));
    o.set("instructions", num(static_cast<double>(r.instructions)));
    o.set("simulated", JsonValue::boolean(simulated));
    o.set("requests", num(r.requests));

    JsonValue lat = JsonValue::object();
    lat.set("p50", num(r.reqP50Us));
    lat.set("p95", num(r.reqP95Us));
    lat.set("p99", num(r.reqP99Us));
    o.set("latencyUs", std::move(lat));

    auto energy = [&](const EnergyBreakdown &e) {
        JsonValue en = JsonValue::object();
        en.set("l1", num(e.l1));
        en.set("l2", num(e.l2));
        en.set("l3", num(e.l3));
        en.set("dram", num(e.dram));
        en.set("dynamic", num(e.dynamic));
        en.set("leakage", num(e.leakage));
        en.set("refresh", num(e.refresh));
        en.set("core", num(e.core));
        en.set("net", num(e.net));
        return en;
    };
    o.set("energy", energy(r.energy));

    JsonValue bd = JsonValue::object();
    bd.set("l1Dyn", num(r.energy.l1Dyn));
    bd.set("l1Leak", num(r.energy.l1Leak));
    bd.set("l1Ref", num(r.energy.l1Ref));
    bd.set("l2Dyn", num(r.energy.l2Dyn));
    bd.set("l2Leak", num(r.energy.l2Leak));
    bd.set("l2Ref", num(r.energy.l2Ref));
    bd.set("l3Dyn", num(r.energy.l3Dyn));
    bd.set("l3Leak", num(r.energy.l3Leak));
    bd.set("l3Ref", num(r.energy.l3Ref));
    o.set("breakdown", std::move(bd));

    if (r.hasAlt) {
        o.set("energyAlt", energy(r.alt));
        o.set("disagreement", num(energyDisagreement(r)));
    }

    JsonValue ct = JsonValue::object();
    ct.set("dramAccesses", num(static_cast<double>(r.counts.dramAccesses)));
    ct.set("l3Misses", num(static_cast<double>(r.counts.l3Misses)));
    ct.set("l3Refreshes", num(static_cast<double>(r.counts.l3Refreshes)));
    ct.set("refreshWritebacks",
           num(static_cast<double>(r.counts.refreshWritebacks)));
    ct.set("refreshInvalidations",
           num(static_cast<double>(r.counts.refreshInvalidations)));
    ct.set("decayedHits", num(static_cast<double>(r.counts.decayedHits)));
    o.set("counts", std::move(ct));

    if (norm != nullptr) {
        JsonValue nv = JsonValue::object();
        nv.set("time", num(norm->time));
        nv.set("memEnergy", num(norm->memEnergy));
        nv.set("sysEnergy", num(norm->sysEnergy));
        nv.set("refresh", num(norm->refresh));
        o.set("normalized", std::move(nv));
    } else {
        o.set("normalized", JsonValue::null());
    }
    return o;
}

TEST(SessionTest, JsonLinesRowsMatchTheirJsonValueTree)
{
    // Strings with quotes, backslashes and control bytes, everywhere a
    // row carries text.
    const std::string odd = "a\"b\\c\x01\x1f\t\n\x7f\xC3\xA9";
    std::mt19937_64 rng(42);
    auto number = [&]() {
        const std::uint64_t bits = rng();
        switch (bits % 4) {
          case 0: // a count
            return static_cast<double>(bits >> 24);
          case 1: // an energy in joules, full 53-bit mantissa
            return std::ldexp(static_cast<double>(bits >> 11),
                              -53 - static_cast<int>(bits % 40));
          case 2:
            return 0.0;
          default:
            return static_cast<double>(bits % 1000) + 0.125;
        }
    };

    for (const bool defaultEnergy : {true, false}) {
        ExperimentPlan plan;
        plan.name = "rows " + odd;
        if (!defaultEnergy)
            plan.energy.eL3Access *= 100.0; // a non-default |en= tag
        const int b = plan.addBaseline(edramScenario("fft", "SRAM", 0.0));
        plan.add(edramScenario("fft", "P.all", 50.0), b);
        plan.add(edramScenario(odd.c_str(), "R.WB(32,32)", 50.0, 85.0, 32),
                 b);
        plan.add(edramScenario("lu", "P.dirty", 50.0, 0.0, 16, true), b);
        ASSERT_EQ(defaultEnergy, energyKeyTag(plan.energy).empty());

        std::FILE *tmp = std::tmpfile();
        ASSERT_NE(tmp, nullptr);
        JsonLinesSink sink(tmp);
        sink.begin(plan);
        std::vector<std::string> want;
        for (int round = 0; round < 50; ++round) {
            for (std::size_t i = 0; i < plan.size(); ++i) {
                RunResult r;
                r.app = round % 2 ? odd : plan.scenarios[i].app;
                r.config = round % 3 ? plan.scenarios[i].config : odd;
                r.machine = round % 5 ? "" : odd;
                r.retentionUs = number();
                r.ambientC = number();
                r.maxTempC = number();
                r.execTicks = static_cast<Tick>(rng() >> 12);
                r.instructions = rng() >> 12;
                r.requests = number();
                r.reqP50Us = number();
                r.reqP95Us = number();
                r.reqP99Us = number();
                for (EnergyBreakdown *e : {&r.energy, &r.alt}) {
                    e->l1 = number();
                    e->l2 = number();
                    e->l3 = number();
                    e->dram = number();
                    e->dynamic = number();
                    e->leakage = number();
                    e->refresh = number();
                    e->core = number();
                    e->net = number();
                    e->l1Dyn = number();
                    e->l1Leak = number();
                    e->l1Ref = number();
                    e->l2Dyn = number();
                    e->l2Leak = number();
                    e->l2Ref = number();
                    e->l3Dyn = number();
                    e->l3Leak = number();
                    e->l3Ref = number();
                }
                r.hasAlt = (round + i) % 2 == 1;
                r.counts.dramAccesses = rng() >> 20;
                r.counts.l3Misses = rng() >> 20;
                r.counts.l3Refreshes = rng() >> 20;
                r.counts.refreshWritebacks = rng() >> 20;
                r.counts.refreshInvalidations = rng() >> 20;
                r.counts.decayedHits = rng() % 3;
                NormalizedResult n;
                n.time = number();
                n.memEnergy = number();
                n.sysEnergy = number();
                n.refresh = number();
                const NormalizedResult *norm =
                    plan.baseline[i] < 0 || round % 7 == 0 ? nullptr : &n;
                const bool simulated = round % 2 == 0;

                sink.consume(plan, i, r, norm, simulated);
                want.push_back(
                    referenceRow(plan, i, r, norm, simulated).dump(0) +
                    "\n");
            }
        }

        std::rewind(tmp);
        std::string got;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), tmp)) > 0)
            got.append(buf, n);
        std::fclose(tmp);

        std::size_t pos = 0;
        for (std::size_t k = 0; k < want.size(); ++k) {
            ASSERT_EQ(got.compare(pos, want[k].size(), want[k]), 0)
                << "row " << k << "\nwant " << want[k] << "got  "
                << got.substr(pos, want[k].size());
            pos += want[k].size();
        }
        EXPECT_EQ(pos, got.size());
    }
}

TEST(SessionTest, CsvSinkQuotesCommaBearingConfigNames)
{
    UniformWorkload u(8 * 1024, 0.3);
    const ExperimentPlan plan = microPlan(u); // includes R.WB(32,32)

    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    CsvSink sink(tmp);
    Session session(nullptr, 1);
    session.run(plan, {&sink});

    std::rewind(tmp);
    char line[4096];
    ASSERT_NE(std::fgets(line, sizeof(line), tmp), nullptr);
    std::size_t columns = 1;
    for (const char *p = line; *p != '\0'; ++p)
        columns += *p == ',';
    bool sawQuoted = false;
    while (std::fgets(line, sizeof(line), tmp) != nullptr) {
        // Unquoted commas per row must match the header's count.
        std::size_t fields = 1;
        bool inQuotes = false;
        for (const char *p = line; *p != '\0'; ++p) {
            if (*p == '"')
                inQuotes = !inQuotes;
            else if (*p == ',' && !inQuotes)
                ++fields;
        }
        EXPECT_EQ(fields, columns) << line;
        sawQuoted =
            sawQuoted ||
            std::string(line).find("\"R.WB(32,32)\"") != std::string::npos;
    }
    std::fclose(tmp);
    EXPECT_TRUE(sawQuoted);
}

TEST(SessionTest, ModifiedEnergyModelNeverReusesDefaultRows)
{
    UniformWorkload u(8 * 1024, 0.3);
    const std::string dir = ::testing::TempDir() + "/api_energy";
    std::filesystem::remove_all(dir);

    Session session(std::make_unique<ShardedStore>(dir), 1);
    const SweepResult calibrated = session.run(microPlan(u));
    EXPECT_EQ(calibrated.metrics.simulated, 3u);

    // Same scenarios, different energy model: the warm store must NOT
    // satisfy them (the legacy engine silently reused such rows).
    ExperimentPlan tweaked = microPlan(u);
    tweaked.energy.eL3Access *= 100.0;
    const SweepResult rerun = session.run(tweaked);
    EXPECT_EQ(rerun.metrics.simulated, 3u);
    EXPECT_NE(rerun.raw[1].energy.l3, calibrated.raw[1].energy.l3);

    // And the tweaked rows are themselves stored under their tag.
    const SweepResult warm = session.run(tweaked);
    EXPECT_EQ(warm.metrics.simulated, 0u);
    std::filesystem::remove_all(dir);
}

TEST(SessionTest, SharesWarmCacheRowsAcrossRuns)
{
    UniformWorkload u(8 * 1024, 0.3);
    const std::string dir = ::testing::TempDir() + "/api_session";
    std::filesystem::remove_all(dir);

    Session session(std::make_unique<ShardedStore>(dir), 2);
    const SweepResult first = session.run(microPlan(u));
    EXPECT_EQ(first.metrics.simulated, 3u);
    // Same session, same plan: everything is already in the store.
    const SweepResult again = session.run(microPlan(u));
    EXPECT_EQ(again.metrics.simulated, 0u);
    ASSERT_EQ(again.raw.size(), first.raw.size());
    EXPECT_EQ(again.raw[1].execTicks, first.raw[1].execTicks);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Workload-method scenarios through the full Session stack
// ---------------------------------------------------------------------

/** SRAM baseline + one P.all run of a registry-resolved spec. */
ExperimentPlan
specPlan(const char *spec, std::uint64_t refs = 1500)
{
    const Workload *w = workloadRegistry().find(spec);
    EXPECT_NE(w, nullptr) << spec;
    SweepSpec sp;
    sp.apps = {w};
    sp.retentions = {usToTicks(50.0)};
    sp.policies = {RefreshPolicy::periodic(DataPolicy::All)};
    sp.sim.refsPerCore = refs;
    return ExperimentPlan::fromSweepSpec(std::move(sp));
}

TEST(SessionTest, MethodWorkloadsRoundTripPlanJsonAndCache)
{
    const std::string dir = ::testing::TempDir() + "/api_methods";
    std::filesystem::remove_all(dir);
    Session session(std::make_unique<ShardedStore>(dir), 2);

    for (const char *spec : {"agg:tables=part,groups=1024,in=65536",
                             "serve:rps=2e6,ws=4096,data=65536"}) {
        const ExperimentPlan plan = specPlan(spec);
        // The scenario's app is the canonical spec and survives the
        // JSON round trip identically (the loader resolves it through
        // the registry and keeps the instance).
        const ExperimentPlan reloaded =
            ExperimentPlan::fromJson(plan.toJson());
        EXPECT_EQ(reloaded, plan) << spec;
        EXPECT_EQ(reloaded.toJson(), plan.toJson()) << spec;

        const SweepResult cold = session.run(plan);
        EXPECT_EQ(cold.metrics.simulated, 2u) << spec;
        // The reloaded plan must hit the very same store rows.
        const SweepResult warm = session.run(reloaded);
        EXPECT_EQ(warm.metrics.simulated, 0u) << spec;
        ASSERT_EQ(warm.raw.size(), cold.raw.size());
        EXPECT_EQ(warm.raw[1].execTicks, cold.raw[1].execTicks);
        // The latency block replays through the store bit-exactly.
        EXPECT_EQ(warm.raw[1].requests, cold.raw[1].requests);
        EXPECT_EQ(warm.raw[1].reqP50Us, cold.raw[1].reqP50Us);
        EXPECT_EQ(warm.raw[1].reqP95Us, cold.raw[1].reqP95Us);
        EXPECT_EQ(warm.raw[1].reqP99Us, cold.raw[1].reqP99Us);
    }
    std::filesystem::remove_all(dir);
}

TEST(SessionTest, ServeRowsCarryLatencyPercentilesThroughJsonl)
{
    const ExperimentPlan plan =
        specPlan("serve:rps=2e6,ws=4096,data=65536", 3000);

    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    JsonLinesSink sink(tmp);
    Session session(nullptr, 1);
    const SweepResult res = session.run(plan, {&sink});

    // Every run of a request-serving workload completes requests and
    // measures a monotone percentile ladder.
    for (const RunResult &r : res.raw) {
        EXPECT_GT(r.requests, 0.0) << r.config;
        EXPECT_GT(r.reqP50Us, 0.0) << r.config;
        EXPECT_LE(r.reqP50Us, r.reqP95Us) << r.config;
        EXPECT_LE(r.reqP95Us, r.reqP99Us) << r.config;
    }

    // ...and the JSONL rows expose them as a latencyUs object.
    std::rewind(tmp);
    char line[8192];
    std::size_t rows = 0;
    while (std::fgets(line, sizeof(line), tmp) != nullptr) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(JsonValue::parse(line, v, err)) << err;
        EXPECT_GT(v.get("requests")->asNumber(), 0.0);
        const JsonValue *lat = v.get("latencyUs");
        ASSERT_NE(lat, nullptr);
        const double p50 = lat->get("p50")->asNumber();
        const double p95 = lat->get("p95")->asNumber();
        const double p99 = lat->get("p99")->asNumber();
        EXPECT_GT(p50, 0.0);
        EXPECT_LE(p50, p95);
        EXPECT_LE(p95, p99);
        ++rows;
    }
    std::fclose(tmp);
    EXPECT_EQ(rows, plan.size());
}

// ---------------------------------------------------------------------
// SweepResult identity semantics
// ---------------------------------------------------------------------

NormalizedResult
row(const char *app, const char *config, double retUs,
    const char *machine, double ambientC, double memEnergy)
{
    NormalizedResult n;
    n.app = app;
    n.config = config;
    n.retentionUs = retUs;
    n.machine = machine;
    n.ambientC = ambientC;
    n.memEnergy = memEnergy;
    return n;
}

TEST(SweepResultIdentityTest, FindResolvesFullScenarioIdentity)
{
    SweepResult s;
    s.normalized = {
        row("fft", "P.all", 50.0, "", 0.0, 0.50),
        row("fft", "P.all", 50.0, "c32", 0.0, 0.60),
        row("fft", "P.all", 50.0, "", 65.0, 0.70),
    };

    EXPECT_EQ(s.find("fft", 50.0, "P.all", "")->memEnergy, 0.50);
    EXPECT_EQ(s.find("fft", 50.0, "P.all", "c32")->memEnergy, 0.60);
    EXPECT_EQ(s.find("fft", 50.0, "P.all", "", 65.0)->memEnergy, 0.70);
    EXPECT_EQ(s.find("fft", 50.0, "P.all", "c64"), nullptr);
    EXPECT_EQ(s.find("fft", 100.0, "P.all", ""), nullptr);

    // The short form is fatal when rows from several machines (or
    // ambients) match — the pre-PR-5 code silently returned the first.
    EXPECT_EXIT(s.find("fft", 50.0, "P.all"),
                ::testing::ExitedWithCode(1), "ambiguous");
}

TEST(SweepResultIdentityTest, FindShortFormStillWorksWhenUnambiguous)
{
    SweepResult s;
    s.normalized = {
        row("fft", "P.all", 50.0, "", 0.0, 0.50),
        row("fft", "R.WB(32,32)", 50.0, "", 0.0, 0.36),
        row("fft", "P.all", 100.0, "", 0.0, 0.45),
    };
    EXPECT_EQ(s.find("fft", 50.0, "P.all")->memEnergy, 0.50);
    // Retention wildcard across rows of one scenario axis is fine.
    EXPECT_NE(s.find("fft", 0.0, "P.all"), nullptr);
    EXPECT_EQ(s.find("fft", 50.0, "R.dirty"), nullptr);
}

TEST(SweepResultIdentityTest, AverageRefusesSilentCrossMachinePooling)
{
    SweepResult s;
    s.normalized = {
        row("fft", "P.all", 50.0, "", 0.0, 0.40),
        row("lu", "P.all", 50.0, "", 0.0, 0.60),
        row("fft", "P.all", 50.0, "c32", 0.0, 1.00),
    };
    const std::vector<std::string> all;

    // Per-machine queries are exact.
    EXPECT_DOUBLE_EQ(
        s.average(50.0, "P.all", all, &NormalizedResult::memEnergy, ""),
        0.50);
    EXPECT_DOUBLE_EQ(s.average(50.0, "P.all", all,
                               &NormalizedResult::memEnergy, "c32"),
                     1.00);
    // Pooling across machines is never an accident.
    EXPECT_EXIT(
        s.average(50.0, "P.all", all, &NormalizedResult::memEnergy),
        ::testing::ExitedWithCode(1), "several machines");
}

TEST(SweepResultIdentityTest, AverageUnchangedOnSingleMachineSweeps)
{
    SweepResult s;
    s.normalized = {
        row("fft", "P.all", 50.0, "", 0.0, 0.40),
        row("lu", "P.all", 50.0, "", 0.0, 0.60),
        row("fft", "R.WB(32,32)", 50.0, "", 0.0, 0.36),
    };
    const std::vector<std::string> all;
    EXPECT_DOUBLE_EQ(
        s.average(50.0, "P.all", all, &NormalizedResult::memEnergy),
        0.50);
    EXPECT_DOUBLE_EQ(s.average(50.0, "P.all", {"lu"},
                               &NormalizedResult::memEnergy),
                     0.60);
}

} // namespace
} // namespace refrint::test
