/**
 * @file
 * The cross-model validation subsystem: scenario-key parsing, the v8
 * cache-row codec with the alternate-backend tail, the physical
 * invariants both energy backends must satisfy, and the corpus checker
 * behind `refrint_cli validate` (including its exit contract).
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/experiment_plan.hh"
#include "api/result_store.hh"
#include "api/scenario.hh"
#include "api/session.hh"
#include "edram/refresh_policy.hh"
#include "edram/retention.hh"
#include "harness/runner.hh"
#include "service/store.hh"
#include "test_util.hh"
#include "validate/analytic_model.hh"
#include "validate/energy_alt.hh"
#include "validate/validate.hh"
#include "workload/micro.hh"
#include "workload/workload.hh"

namespace refrint
{
namespace
{

using test::runTiny;
using test::tinyEdram;

std::size_t
fieldCount(const std::string &payload)
{
    std::size_t n = payload.empty() ? 0 : 1;
    for (const char c : payload)
        n += c == ',';
    return n;
}

// ---------------------------------------------------------------------
// ScenarioKey::parse — the inverse the corpus checker stands on
// ---------------------------------------------------------------------

TEST(ScenarioKeyParseTest, RoundTripsEveryOptionalSegment)
{
    ScenarioKey k;
    k.app = "fft";
    k.config = "R.WB(32,32)";
    k.retentionUs = 50.0;
    k.refs = 120000;
    k.seed = 1;

    ScenarioKey variants[] = {k, k, k, k, k};
    variants[1].workload = "tables=shared,skew=0.8";
    variants[2].ambientC = 65.0;
    variants[3].machine = "c32+hyb";
    variants[4].workload = "rps=2e6";
    variants[4].ambientC = 45.0;
    variants[4].machine = "hyb";
    variants[4].energy = "deadbeefcafe0123";

    for (const ScenarioKey &v : variants) {
        ScenarioKey back;
        ASSERT_TRUE(ScenarioKey::parse(v.str(), back)) << v.str();
        EXPECT_EQ(back, v) << v.str();
        // And parsing is exact, not just equality-preserving.
        EXPECT_EQ(back.str(), v.str());
    }
}

TEST(ScenarioKeyParseTest, ParsesTheCanonicalLegacyForm)
{
    ScenarioKey k;
    ASSERT_TRUE(ScenarioKey::parse("fft|P.all|50.0|120000|1", k));
    EXPECT_EQ(k.app, "fft");
    EXPECT_EQ(k.config, "P.all");
    EXPECT_DOUBLE_EQ(k.retentionUs, 50.0);
    EXPECT_EQ(k.refs, 120000u);
    EXPECT_EQ(k.seed, 1u);
    EXPECT_TRUE(k.workload.empty());
    EXPECT_EQ(k.ambientC, 0.0);
    EXPECT_TRUE(k.machine.empty());
    EXPECT_TRUE(k.energy.empty());
}

TEST(ScenarioKeyParseTest, RejectsWhatStrCannotEmit)
{
    ScenarioKey k;
    EXPECT_FALSE(ScenarioKey::parse("", k));
    EXPECT_FALSE(ScenarioKey::parse("fft|P.all|50.0|120000", k));
    EXPECT_FALSE(ScenarioKey::parse("|P.all|50.0|120000|1", k));
    EXPECT_FALSE(ScenarioKey::parse("fft||50.0|120000|1", k));
    EXPECT_FALSE(ScenarioKey::parse("fft|P.all|zz|120000|1", k));
    EXPECT_FALSE(ScenarioKey::parse("fft|P.all|50.0|-3|1", k));
    // Unknown tagged segment.
    EXPECT_FALSE(
        ScenarioKey::parse("fft|P.all|50.0|120000|1|bogus=3", k));
    // Tagged segments out of canonical wl/amb/mach/en order.
    EXPECT_FALSE(ScenarioKey::parse(
        "fft|P.all|50.0|120000|1|mach=c32|amb=45.00", k));
    // Trailing garbage after the last recognized segment.
    EXPECT_FALSE(ScenarioKey::parse(
        "fft|P.all|50.0|120000|1|mach=c32|extra", k));
}

// ---------------------------------------------------------------------
// CacheRow codec: the suppressed v8 alternate-backend tail
// ---------------------------------------------------------------------

CacheRow
sampleRow()
{
    CacheRow c{};
    c.execTicks = 12345;
    c.instructions = 6789;
    c.l1 = 1e-7;
    c.l2 = 2e-7;
    c.l3 = 3e-7;
    c.dram = 4e-7;
    c.dynamic = 1.5e-7;
    c.leakage = 3.0e-7;
    c.refresh = 1.5e-7;
    c.core = 5e-7;
    c.net = 6e-8;
    c.dramAccesses = 100;
    c.l3Misses = 90;
    c.refreshes3 = 42;
    c.ambientC = 45;
    c.maxTempC = 52.5;
    c.requests = 10;
    c.reqP50Us = 1;
    c.reqP95Us = 2;
    c.reqP99Us = 3;
    return c;
}

TEST(CacheRowCodecTest, DefaultBackendRowsStaySuppressedAndV7Sized)
{
    const CacheRow c = sampleRow();
    const std::string payload = encodeCacheRow(c);
    EXPECT_EQ(fieldCount(payload), 23u);

    CacheRow back{};
    ASSERT_TRUE(decodeCacheRow(payload, back));
    EXPECT_EQ(back.execTicks, c.execTicks);
    EXPECT_EQ(back.refreshes3, c.refreshes3);
    EXPECT_EQ(back.reqP99Us, c.reqP99Us);
    EXPECT_EQ(back.altPresent, 0.0);
    EXPECT_EQ(back.altL3, 0.0);
}

TEST(CacheRowCodecTest, AltTailRoundTripsWhenPresent)
{
    CacheRow c = sampleRow();
    c.altPresent = 1;
    c.altL1 = 1.1e-7;
    c.altL2 = 2.1e-7;
    c.altL3 = 3.1e-7;
    c.altDram = 4.1e-7;
    c.altDynamic = 1.6e-7;
    c.altLeakage = 3.2e-7;
    c.altRefresh = 1.7e-7;
    c.altCore = 5.1e-7;
    c.altNet = 6.1e-8;
    const std::string payload = encodeCacheRow(c);
    EXPECT_EQ(fieldCount(payload), 33u);

    CacheRow back{};
    ASSERT_TRUE(decodeCacheRow(payload, back));
    EXPECT_EQ(back.altPresent, 1.0);
    EXPECT_EQ(back.altL1, c.altL1);
    EXPECT_EQ(back.altNet, c.altNet);
    EXPECT_EQ(back.reqP99Us, c.reqP99Us);
}

TEST(CacheRowCodecTest, LegacyPrefixLengthsStillDecode)
{
    // A v5/v6 row is the first 19 fields; later fields read as zero.
    std::string payload = encodeCacheRow(sampleRow());
    std::size_t cut = payload.size();
    for (std::size_t i = 0, commas = 0; i < payload.size(); ++i) {
        if (payload[i] == ',' && ++commas == 19) {
            cut = i;
            break;
        }
    }
    ASSERT_LT(cut, payload.size());
    CacheRow back{};
    ASSERT_TRUE(decodeCacheRow(payload.substr(0, cut), back));
    EXPECT_EQ(back.execTicks, 12345.0);
    EXPECT_EQ(back.requests, 0.0);
    EXPECT_EQ(back.altPresent, 0.0);

    // Any other field count is a framing error, not a row.
    CacheRow junk{};
    EXPECT_FALSE(decodeCacheRow("1,2,3", junk));
    EXPECT_FALSE(decodeCacheRow("", junk));
    EXPECT_FALSE(
        decodeCacheRow(payload.substr(0, cut) + ",7", junk));
}

// ---------------------------------------------------------------------
// Physical invariants both energy backends must satisfy
// ---------------------------------------------------------------------

RunResult
runTinyAlt(const MachineConfig &cfg, const Workload &app)
{
    SimParams sim;
    sim.refsPerCore = 1500;
    sim.seed = 7;
    EnergyParams energy = EnergyParams::calibrated();
    energy.altModel = 1;
    return runOnce(cfg, app, sim, energy);
}

TEST(EnergyInvariantTest, RefreshEnergyFallsAsRetentionGrows)
{
    UniformWorkload u(8 * 1024, 0.3);
    const RefreshPolicy pall = RefreshPolicy::periodic(DataPolicy::All);
    const RunResult r5 = runTinyAlt(tinyEdram(pall, usToTicks(5.0)), u);
    const RunResult r10 =
        runTinyAlt(tinyEdram(pall, usToTicks(10.0)), u);
    const RunResult r20 =
        runTinyAlt(tinyEdram(pall, usToTicks(20.0)), u);

    // Primary backend: strictly ordered for a periodic-all engine.
    EXPECT_GT(r5.energy.refresh, r10.energy.refresh);
    EXPECT_GT(r10.energy.refresh, r20.energy.refresh);

    // Alternate backend: same counts, its own coefficients — the
    // ordering must survive the re-parameterization.
    ASSERT_TRUE(r5.hasAlt && r10.hasAlt && r20.hasAlt);
    EXPECT_GT(r5.alt.refresh, r10.alt.refresh);
    EXPECT_GT(r10.alt.refresh, r20.alt.refresh);
}

TEST(EnergyInvariantTest, DataPolicyOrderHoldsInBothBackends)
{
    UniformWorkload u(8 * 1024, 0.3);
    const Tick ret = usToTicks(5.0);
    const RunResult all =
        runTinyAlt(tinyEdram(RefreshPolicy::periodic(DataPolicy::All),
                             ret),
                   u);
    const RunResult valid = runTinyAlt(
        tinyEdram(RefreshPolicy::periodic(DataPolicy::Valid), ret), u);
    const RunResult dirty = runTinyAlt(
        tinyEdram(RefreshPolicy::periodic(DataPolicy::Dirty), ret), u);

    // Refreshing all lines can never cost less than refreshing the
    // valid subset, nor valid less than dirty (small slack for the
    // runs' slightly different execution lengths).
    const double slack = 1.05;
    EXPECT_GE(all.energy.refresh * slack, valid.energy.refresh);
    EXPECT_GE(valid.energy.refresh * slack, dirty.energy.refresh);
    ASSERT_TRUE(all.hasAlt && valid.hasAlt && dirty.hasAlt);
    EXPECT_GE(all.alt.refresh * slack, valid.alt.refresh);
    EXPECT_GE(valid.alt.refresh * slack, dirty.alt.refresh);
}

TEST(EnergyInvariantTest, BothBackendsKeepTheDecompositionIdentity)
{
    UniformWorkload u(8 * 1024, 0.3);
    const RunResult r = runTinyAlt(
        tinyEdram(RefreshPolicy::refrint(DataPolicy::WB, 32, 32),
                  usToTicks(5.0)),
        u);
    const double lvl = r.energy.l1 + r.energy.l2 + r.energy.l3;
    const double cmp =
        r.energy.dynamic + r.energy.leakage + r.energy.refresh;
    EXPECT_NEAR(lvl, cmp, 1e-9 * lvl);
    ASSERT_TRUE(r.hasAlt);
    const double altLvl = r.alt.l1 + r.alt.l2 + r.alt.l3;
    const double altCmp =
        r.alt.dynamic + r.alt.leakage + r.alt.refresh;
    EXPECT_NEAR(altLvl, altCmp, 1e-9 * altLvl);
    EXPECT_GT(r.alt.systemTotal(), 0.0);
    EXPECT_GE(energyDisagreement(r), 0.0);
    EXPECT_LT(energyDisagreement(r), 1.0);
}

// ---------------------------------------------------------------------
// Plan loader: ambient temperatures must be thermally resolvable
// ---------------------------------------------------------------------

TEST(PlanAmbientRangeTest, LoaderRejectsUnresolvableAmbients)
{
    auto planWithAmbient = [](const char *amb) {
        return std::string("{\"plan\": \"x\", \"version\": 1, "
                           "\"scenarios\": [{\"app\": \"fft\", "
                           "\"config\": \"P.all\", \"retentionUs\": 50, "
                           "\"ambientC\": ") +
               amb +
               ", \"cores\": 16, \"refs\": 100, \"seed\": 1, "
               "\"baseline\": -1}]}";
    };
    EXPECT_EXIT(ExperimentPlan::fromJson(planWithAmbient("200")),
                ::testing::ExitedWithCode(1), "resolvable range");
    EXPECT_EXIT(ExperimentPlan::fromJson(planWithAmbient("20")),
                ::testing::ExitedWithCode(1), "resolvable range");

    // The boundary temperatures themselves are fine.
    const ThermalResponse resp{};
    char lo[32], hi[32];
    std::snprintf(lo, sizeof(lo), "%g", resp.minAmbientC());
    std::snprintf(hi, sizeof(hi), "%g", resp.maxAmbientC());
    EXPECT_EQ(ExperimentPlan::fromJson(planWithAmbient(lo)).size(), 1u);
    EXPECT_EQ(ExperimentPlan::fromJson(planWithAmbient(hi)).size(), 1u);
}

// ---------------------------------------------------------------------
// The corpus checker end to end
// ---------------------------------------------------------------------

/** SRAM baseline + a policy/retention grid of one micro workload. */
ExperimentPlan
validationPlan(const Workload &w)
{
    SweepSpec spec;
    spec.apps = {&w};
    spec.retentions = {usToTicks(50.0), usToTicks(100.0)};
    spec.policies = {RefreshPolicy::periodic(DataPolicy::All),
                     RefreshPolicy::periodic(DataPolicy::Valid),
                     RefreshPolicy::periodic(DataPolicy::Dirty),
                     RefreshPolicy::refrint(DataPolicy::WB, 32, 32)};
    spec.sim.refsPerCore = 1200;
    return ExperimentPlan::fromSweepSpec(std::move(spec));
}

TEST(ValidateTest, PassesACorpusTheSimulatorProduced)
{
    UniformWorkload u(8 * 1024, 0.3);
    const std::string dir = ::testing::TempDir() + "/validate_clean";
    std::filesystem::remove_all(dir);
    {
        Session session(std::make_unique<ShardedStore>(dir), 2);
        session.run(validationPlan(u));
    }

    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    ValidateOptions opts;
    opts.storeDir = dir;
    opts.out = sink;
    ValidateReport rep;
    EXPECT_EQ(runValidate(opts, &rep), 0);
    std::stringstream why;
    for (const ValidateFinding &f : rep.violations)
        why << "[" << f.check << "] " << f.key << ": " << f.detail
            << "\n";
    EXPECT_TRUE(rep.clean()) << why.str();
    EXPECT_EQ(rep.rows, 9u); // 1 SRAM baseline + 4 policies x 2 rets
    // The micro workload is not registry-resolvable, so the analytic
    // model steps aside as a documented limit, never a violation.
    EXPECT_EQ(rep.analyticChecked, 0u);
    EXPECT_FALSE(rep.limits.empty());
    std::fclose(sink);
    std::filesystem::remove_all(dir);
}

TEST(ValidateTest, FlagsACorruptedRowAndWritesTheJsonReport)
{
    const std::string dir = ::testing::TempDir() + "/validate_bad";
    const std::string json =
        ::testing::TempDir() + "/validate_bad.json";
    std::filesystem::remove_all(dir);
    {
        ShardedStore store(dir);
        CacheRow bad = sampleRow();
        bad.requests = 0;
        bad.reqP50Us = bad.reqP95Us = bad.reqP99Us = 0;
        bad.l1 = -1e-7; // negative energy: impossible
        store.insert("micro.uniform|P.all|50.0|100|1", bad);
        store.flush();
    }

    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    ValidateOptions opts;
    opts.storeDir = dir;
    opts.jsonOut = json;
    opts.out = sink;
    ValidateReport rep;
    EXPECT_EQ(runValidate(opts, &rep), 1);
    ASSERT_EQ(rep.violations.size(), 1u);
    EXPECT_EQ(rep.violations[0].check, "field-sane");

    // The JSON report carries the same verdict for CI.
    std::ifstream jf(json);
    ASSERT_TRUE(jf.good());
    std::stringstream ss;
    ss << jf.rdbuf();
    EXPECT_NE(ss.str().find("\"clean\": false"), std::string::npos);
    EXPECT_NE(ss.str().find("field-sane"), std::string::npos);
    std::fclose(sink);
    std::filesystem::remove_all(dir);
    std::remove(json.c_str());
}

TEST(ValidateTest, DiesCleanlyOnAMissingCorpus)
{
    ValidateOptions store;
    store.storeDir = ::testing::TempDir() + "/no_such_store_dir";
    EXPECT_EXIT(runValidate(store), ::testing::ExitedWithCode(1),
                "no result store");
}

// ---------------------------------------------------------------------
// Analytic predictor sanity (unit level; corpus envelopes are checked
// by the validate CI job over a real sweep)
// ---------------------------------------------------------------------

TEST(AnalyticModelTest, PredictsTheExactTermsExactly)
{
    const Workload *fft = findWorkload("fft");
    ASSERT_NE(fft, nullptr);
    WorkloadFootprint fp;
    ASSERT_TRUE(fft->footprint(fp));
    EXPECT_GT(fp.privateBytes + fp.sharedBytes, 0.0);

    // Hybrid: only the LLC is eDRAM, so P.all leaves no occupancy
    // estimate in the refresh term (upper levels of the uniform-eDRAM
    // machine run with data pinned Valid, which is occupancy-modeled).
    const MachineConfig cfg = MachineConfig::paperHybrid(
        RefreshPolicy::periodic(DataPolicy::All), usToTicks(50.0), 16);
    AnalyticInput in;
    in.fp = fp;
    in.execTicks = 1'000'000; // 1 ms
    in.instructions = 400'000;
    in.dramAccesses = 1'000;
    in.l3Misses = 900;
    const EnergyParams p = EnergyParams::calibrated();
    const AnalyticPrediction pred = analyticPredict(in, cfg, p);

    // DRAM and core are closed-form shared with the simulator.
    EXPECT_DOUBLE_EQ(pred.dram, 1'000 * p.eDramAccess);
    EXPECT_DOUBLE_EQ(pred.core,
                     p.eCorePerInstr * 400'000 +
                         p.leakCore * 16 * 1e-3);
    EXPECT_GT(pred.leakage, 0.0);
    EXPECT_GT(pred.refresh, 0.0);
    EXPECT_FALSE(pred.refreshIsCoarse); // P.all needs no occupancy
    EXPECT_GT(pred.systemTotal(), pred.memTotal());
}

TEST(AnalyticModelTest, EnvelopesWidenWithModelCoarseness)
{
    // SRAM (no refresh term) is the tightest; .all beats the
    // occupancy-modeled policies; unknown classes get extra slack.
    EXPECT_LT(analyticEnvelope("SRAM", 1),
              analyticEnvelope("P.all", 1));
    EXPECT_LT(analyticEnvelope("P.all", 1),
              analyticEnvelope("P.dirty", 1));
    EXPECT_LT(analyticEnvelope("R.WB(32,32)", 1),
              analyticEnvelope("R.WB(32,32)", 0));
}

} // namespace
} // namespace refrint
