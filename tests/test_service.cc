/**
 * @file
 * Tests for the experiment service (src/service/): record framing,
 * the sharded result store (concurrent writers, torn records), scrub
 * & repair, resuming a killed sweep from its store under injected
 * faults ($REFRINT_FAULTS), and the serve loop's overload control
 * (queue shedding, idle timeout, SIGTERM drain) and its answer to a
 * rejected plan.
 * The multi-process tests fork real children that open the store,
 * run sessions and crash exactly as separate processes do.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "api/experiment_plan.hh"
#include "api/result_sink.hh"
#include "api/session.hh"
#include "service/faults.hh"
#include "service/framing.hh"
#include "service/serve.hh"
#include "service/store.hh"

namespace refrint::test
{
namespace
{

/** Self-deleting temp directory for store/plan files. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tpl[] = "/tmp/refrint_svc_XXXXXX";
        path = ::mkdtemp(tpl);
        EXPECT_FALSE(path.empty());
    }

    ~TempDir() { std::filesystem::remove_all(path); }

    std::string
    file(const std::string &name) const
    {
        return path + "/" + name;
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A deterministic, distinguishable row per seed. */
CacheRow
makeRow(double seed)
{
    CacheRow c{};
    double *fields = &c.execTicks;
    const std::size_t n = sizeof(CacheRow) / sizeof(double);
    for (std::size_t i = 0; i < n; ++i)
        fields[i] = seed * 1000.0 + static_cast<double>(i) + 0.125;
    return c;
}

bool
sameRow(const CacheRow &a, const CacheRow &b)
{
    return encodeCacheRow(a) == encodeCacheRow(b);
}

/**
 * A two-group plan (fft and lu, each an SRAM baseline plus three
 * policies) small enough to simulate in milliseconds.
 */
ExperimentPlan
smallPlan()
{
    ExperimentPlan plan;
    plan.name = "svc-test";
    for (const char *app : {"fft", "lu"}) {
        Scenario base;
        base.app = app;
        base.config = "SRAM";
        base.retentionUs = 0.0;
        base.cores = 4;
        base.sim.refsPerCore = 300;
        base.sim.seed = 1;
        const int b = plan.addBaseline(base);
        for (const char *pol : {"P.all", "R.WB(32,32)", "P.dirty"}) {
            Scenario s = base;
            s.config = pol;
            s.retentionUs = 50.0;
            plan.add(s, b);
        }
    }
    return plan;
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

TEST(FramingTest, RoundTripsPayloads)
{
    for (const std::string &payload :
         {std::string("k;1,2,3"), std::string(""),
          std::string(1000, 'x')}) {
        const std::string rec = frameRecord(payload);
        ASSERT_GE(rec.size(), 2u);
        EXPECT_EQ(rec.front(), '\n');
        EXPECT_EQ(rec.back(), '\n');
        // Strip the framing newlines and validate the line itself.
        std::string out;
        EXPECT_TRUE(
            unframeRecord(rec.substr(1, rec.size() - 2), out));
        EXPECT_EQ(out, payload);
    }

    std::string out;
    EXPECT_FALSE(unframeRecord("", out));
    EXPECT_FALSE(unframeRecord("garbage", out));
    EXPECT_FALSE(unframeRecord("R 3 0000000000000000 abc", out)); // sum
    EXPECT_FALSE(unframeRecord("R 4 0 abc", out));                // len
}

TEST(FramingTest, EveryTruncationRecoversExactlyTheCommittedPrefix)
{
    std::vector<std::string> payloads;
    std::string file;
    for (int i = 0; i < 5; ++i) {
        payloads.push_back("key" + std::to_string(i) + ";" +
                           std::string(static_cast<std::size_t>(i) * 7,
                                       'a' + static_cast<char>(i)));
        file += frameRecord(payloads.back());
    }

    // However the tail is torn, every record the scan yields is a
    // clean prefix of what was committed — never garbage, never a
    // record glued to torn bytes.
    for (std::size_t cut = 0; cut <= file.size(); ++cut) {
        std::vector<std::string> got;
        scanRecords(file.substr(0, cut),
                    [&](const std::string &p) { got.push_back(p); });
        ASSERT_LE(got.size(), payloads.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], payloads[i]) << "cut at " << cut;
    }

    // The untruncated file scans completely, with nothing torn.
    const ScanStats full =
        scanRecords(file, [](const std::string &) {});
    EXPECT_EQ(full.committed, payloads.size());
    EXPECT_EQ(full.torn, 0u);
}

// ---------------------------------------------------------------------
// ShardedStore
// ---------------------------------------------------------------------

TEST(ShardedStoreTest, InsertLookupAndReopen)
{
    TempDir dir;
    const std::string storeDir = dir.file("store");
    {
        ShardedStore store(storeDir, 3);
        EXPECT_EQ(store.shards(), 3u);
        for (int i = 0; i < 40; ++i)
            store.insert("key-" + std::to_string(i),
                         makeRow(static_cast<double>(i)));
        store.flush();
        EXPECT_EQ(store.rowCount(), 40u);
    }
    // Reopen: the manifest fixes the shard count (the explicit arg is
    // ignored), and every row survives with exact values.
    ShardedStore store(storeDir, 16);
    EXPECT_EQ(store.shards(), 3u);
    EXPECT_EQ(store.rowCount(), 40u);
    EXPECT_EQ(store.tornRecords(), 0u);
    for (int i = 0; i < 40; ++i) {
        CacheRow c{};
        ASSERT_TRUE(store.lookup("key-" + std::to_string(i), c));
        EXPECT_TRUE(sameRow(c, makeRow(static_cast<double>(i))));
    }
    CacheRow c{};
    EXPECT_FALSE(store.lookup("no-such-key", c));

    // A re-simulated key is appended again; the last row wins, in
    // memory and when the shard is read back.
    store.insert("key-7", makeRow(107.0));
    store.insert("key-7", makeRow(207.0));
    EXPECT_EQ(store.rowCount(), 40u);
    ASSERT_TRUE(store.lookup("key-7", c));
    EXPECT_TRUE(sameRow(c, makeRow(207.0)));
    ShardedStore reopened(storeDir);
    EXPECT_EQ(reopened.rowCount(), 40u);
    ASSERT_TRUE(reopened.lookup("key-7", c));
    EXPECT_TRUE(sameRow(c, makeRow(207.0)));

    // snapshot() lists every key once, in ascending order, whatever
    // the index's own order.
    std::vector<std::string> keys;
    for (const auto &[key, row] : reopened.snapshot()) {
        keys.push_back(key);
        ASSERT_TRUE(reopened.lookup(key, c));
        EXPECT_TRUE(sameRow(c, row)) << key;
    }
    ASSERT_EQ(keys.size(), 40u);
    for (std::size_t i = 1; i < keys.size(); ++i)
        EXPECT_LT(keys[i - 1], keys[i]);
}

TEST(ShardedStoreTest, TornTailIsIgnoredCommittedRowsSurvive)
{
    TempDir dir;
    const std::string storeDir = dir.file("store");
    std::string shardFile;
    {
        ShardedStore store(storeDir, 2);
        for (int i = 0; i < 10; ++i)
            store.insert("key-" + std::to_string(i),
                         makeRow(static_cast<double>(i)));
        store.flush();
        shardFile = store.shardPath(store.shardOf("key-3"));
    }
    // Simulate a crash mid-append: a torn half-record at the tail.
    {
        std::ofstream out(shardFile, std::ios::app | std::ios::binary);
        out << "\nR 57 01234abc key-99;1,2";
    }
    ShardedStore store(storeDir);
    EXPECT_EQ(store.rowCount(), 10u);
    EXPECT_GE(store.tornRecords(), 1u);
    CacheRow c{};
    EXPECT_FALSE(store.lookup("key-99", c));
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(store.lookup("key-" + std::to_string(i), c));
        EXPECT_TRUE(sameRow(c, makeRow(static_cast<double>(i))));
    }
}

TEST(ShardedStoreTest, TwoProcessesAppendToTheSameStore)
{
    TempDir dir;
    const std::string storeDir = dir.file("store");
    const int perChild = 150;
    // Create the store (and its manifest) before forking so the
    // children race only on the shard appends, which is the contract.
    { ShardedStore store(storeDir); }

    std::vector<pid_t> children;
    for (int child = 0; child < 2; ++child) {
        std::fflush(nullptr);
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ShardedStore store(storeDir);
            for (int i = 0; i < perChild; ++i)
                store.insert("p" + std::to_string(child) + "-" +
                                 std::to_string(i),
                             makeRow(child * 1000.0 + i));
            store.flush();
            ::_exit(0);
        }
        children.push_back(pid);
    }
    for (const pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        ASSERT_EQ(WEXITSTATUS(status), 0);
    }

    // Every row from both processes is committed and intact.
    ShardedStore store(storeDir);
    EXPECT_EQ(store.rowCount(), 2u * perChild);
    EXPECT_EQ(store.tornRecords(), 0u);
    for (int child = 0; child < 2; ++child)
        for (int i = 0; i < perChild; ++i) {
            CacheRow c{};
            const std::string key = "p" + std::to_string(child) + "-" +
                                    std::to_string(i);
            ASSERT_TRUE(store.lookup(key, c)) << key;
            EXPECT_TRUE(sameRow(c, makeRow(child * 1000.0 + i)));
        }
}

TEST(ShardedStoreTest, ProcessesCreatingOneStoreAtOnceAgreeOnItsManifest)
{
    // Concurrent sweeps may all create a fresh store at once.
    // Each must open it (none may read a half-written manifest), and
    // all must use the shard count of the one manifest that won, even
    // when they asked for different counts.
    for (int round = 0; round < 20; ++round) {
        TempDir dir;
        const std::string storeDir = dir.file("store");
        int gate[2];
        ASSERT_EQ(::pipe(gate), 0);
        std::vector<pid_t> children;
        for (int child = 0; child < 6; ++child) {
            std::fflush(nullptr);
            const pid_t pid = ::fork();
            ASSERT_GE(pid, 0);
            if (pid == 0) {
                ::close(gate[1]);
                char c;
                while (::read(gate[0], &c, 1) > 0) {
                } // released when the parent closes the pipe
                ShardedStore store(storeDir, child % 2 == 0 ? 8 : 4);
                ::_exit(static_cast<int>(store.shards()));
            }
            children.push_back(pid);
        }
        ::close(gate[0]);
        ::close(gate[1]); // start every child at once
        std::vector<unsigned> used;
        for (const pid_t pid : children) {
            int status = 0;
            ASSERT_EQ(::waitpid(pid, &status, 0), pid);
            ASSERT_TRUE(WIFEXITED(status)) << "round " << round;
            used.push_back(static_cast<unsigned>(WEXITSTATUS(status)));
        }
        const unsigned want = ShardedStore(storeDir).shards();
        for (const unsigned u : used)
            EXPECT_EQ(u, want) << "round " << round;
    }
}

// ---------------------------------------------------------------------
// Session metrics
// ---------------------------------------------------------------------

TEST(SessionMetricsTest, CountsSimulatedThenWarmRuns)
{
    TempDir dir;
    const ExperimentPlan plan = smallPlan();
    {
        Session session(
            std::make_unique<ShardedStore>(dir.file("store")), 2);
        const SweepResult r = session.run(plan);
        EXPECT_EQ(r.metrics.scenarios, plan.size());
        EXPECT_EQ(r.metrics.simulated, plan.size());
        EXPECT_EQ(r.metrics.cacheHits, 0u);
        EXPECT_GT(r.metrics.wallSeconds, 0.0);
        EXPECT_GT(r.metrics.busySeconds, 0.0);
        EXPECT_EQ(r.metrics.jobs, 2u);
        EXPECT_GT(r.metrics.utilization(), 0.0);
    }
    // A fresh session over the same store answers everything warm.
    Session session(std::make_unique<ShardedStore>(dir.file("store")),
                    1);
    const SweepResult r = session.run(plan);
    EXPECT_EQ(r.metrics.simulated, 0u);
    EXPECT_EQ(r.metrics.cacheHits, plan.size());
}

// ---------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------

TEST(FaultPlanTest, ParsesSchedulesAndAnswersPointQueries)
{
    const FaultPlan plan(
        "store.torn_write@7,store.short_write@0,serve.drop_conn@3");
    EXPECT_FALSE(plan.empty());
    EXPECT_TRUE(plan.at("store.torn_write", 7));
    EXPECT_FALSE(plan.at("store.torn_write", 6));
    EXPECT_TRUE(plan.at("store.short_write", 0));
    EXPECT_FALSE(plan.at("store.short_write", 7));
    EXPECT_TRUE(plan.at("serve.drop_conn", 3));
    EXPECT_FALSE(plan.at("serve.drop_conn", 7));
    EXPECT_TRUE(FaultPlan().empty());
    EXPECT_TRUE(FaultPlan("").empty());
}

TEST(FaultPlanTest, RejectsMalformedSchedules)
{
    EXPECT_EXIT(FaultPlan("store.torn_write"),
                ::testing::ExitedWithCode(1), "point@ordinal");
    EXPECT_EXIT(FaultPlan("bogus.point@3"),
                ::testing::ExitedWithCode(1), "unknown fault point");
    EXPECT_EXIT(FaultPlan("worker.crash@5"),
                ::testing::ExitedWithCode(1), "unknown fault point");
    EXPECT_EXIT(FaultPlan("store.torn_write@x"),
                ::testing::ExitedWithCode(1), "decimal ordinal");
    EXPECT_EXIT(FaultPlan("store.torn_write@1:5"),
                ::testing::ExitedWithCode(1), "decimal ordinal");
}

// ---------------------------------------------------------------------
// Store fault injection & scrub
// ---------------------------------------------------------------------

TEST(StoreFaultTest, ShortWriteIsACleanFatalNotASilentDrop)
{
    TempDir dir;
    EXPECT_EXIT(
        {
            ::setenv("REFRINT_FAULTS", "store.short_write@0", 1);
            FaultPlan::reloadGlobalForTest();
            ShardedStore store(dir.file("store"));
            store.insert("k", makeRow(1.0));
        },
        ::testing::ExitedWithCode(1), "short append");
}

TEST(StoreFaultTest, TornWriteCrashLeavesScrubRepairableDamage)
{
    TempDir dir;
    const std::string storeDir = dir.file("store");
    {
        ShardedStore store(storeDir, 2);
        for (int i = 0; i < 10; ++i)
            store.insert("key-" + std::to_string(i),
                         makeRow(static_cast<double>(i)));
        store.flush();
    }

    // A child process crashes mid-append: the fault writes half the
    // framed record, then SIGKILLs — exactly what power loss or an OOM
    // kill between write(2) and completion leaves behind.
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::setenv("REFRINT_FAULTS", "store.torn_write@0", 1);
        FaultPlan::reloadGlobalForTest();
        ShardedStore store(storeDir);
        store.insert("victim", makeRow(99.0));
        ::_exit(0); // unreachable: the fault kills us first
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // A rerun appends after the half-written record: the victim again,
    // into the shard that holds the torn bytes, and two new keys.
    {
        ShardedStore store(storeDir);
        EXPECT_EQ(store.tornRecords(), 1u);
        store.insert("victim", makeRow(99.0));
        for (int i = 10; i < 12; ++i)
            store.insert("key-" + std::to_string(i),
                         makeRow(static_cast<double>(i)));
        store.flush();
    }

    // Scrub sees one torn record (a crash artifact, not corruption),
    // though good records now follow it.
    ScrubReport rep = scrubStore(storeDir, /*repair=*/false);
    EXPECT_EQ(rep.torn, 1u);
    EXPECT_EQ(rep.corrupt, 0u);
    EXPECT_EQ(rep.committed, 13u);
    EXPECT_FALSE(rep.clean());

    // Repair quarantines it; the store then loads clean and warm.
    rep = scrubStore(storeDir, /*repair=*/true);
    EXPECT_EQ(rep.quarantined, 1u);
    EXPECT_TRUE(scrubStore(storeDir, false).clean());
    ShardedStore store(storeDir);
    EXPECT_EQ(store.tornRecords(), 0u);
    EXPECT_EQ(store.rowCount(), 13u);
    for (int i = 0; i < 12; ++i) {
        CacheRow c{};
        ASSERT_TRUE(store.lookup("key-" + std::to_string(i), c));
        EXPECT_TRUE(sameRow(c, makeRow(static_cast<double>(i))));
    }
    CacheRow c{};
    ASSERT_TRUE(store.lookup("victim", c));
    EXPECT_TRUE(sameRow(c, makeRow(99.0)));
}

TEST(StoreResumeTest, KilledSweepRerunSimulatesOnlyTheMissingRows)
{
    TempDir dir;
    const std::string storeDir = dir.file("store");
    const ExperimentPlan plan = smallPlan();

    // A sweep is killed mid-append of its sixth row: rows 0..4 are
    // committed, row 5 is a torn record, rows 6..7 never ran.
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::setenv("REFRINT_FAULTS", "store.torn_write@5", 1);
        FaultPlan::reloadGlobalForTest();
        Session(std::make_unique<ShardedStore>(storeDir), 1).run(plan);
        ::_exit(0); // unreachable: the fault kills us first
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // A plain rerun over the same store, with no scrub, answers the
    // committed rows warm and simulates only the missing ones.
    std::FILE *out = std::fopen(dir.file("resumed.jsonl").c_str(), "w");
    ASSERT_NE(out, nullptr);
    JsonLinesSink resumedRows(out);
    const SweepResult r =
        Session(std::make_unique<ShardedStore>(storeDir), 1)
            .run(plan, {&resumedRows});
    std::fclose(out);
    EXPECT_EQ(r.metrics.simulated, 3u);
    EXPECT_EQ(r.metrics.cacheHits, 5u);

    // A warm reload is byte-identical to the run that wrote the row:
    // the resumed rows equal an uninterrupted storeless run except
    // for the "simulated" flag of the five reloaded rows.
    out = std::fopen(dir.file("reference.jsonl").c_str(), "w");
    ASSERT_NE(out, nullptr);
    JsonLinesSink referenceRows(out);
    Session(nullptr, 1).run(plan, {&referenceRows});
    std::fclose(out);
    std::string resumed = readFile(dir.file("resumed.jsonl"));
    const std::string warm = "\"simulated\":false";
    std::size_t reloaded = 0;
    for (auto at = resumed.find(warm); at != std::string::npos;
         at = resumed.find(warm, at)) {
        resumed.replace(at, warm.size(), "\"simulated\":true");
        ++reloaded;
    }
    EXPECT_EQ(reloaded, 5u);
    EXPECT_EQ(resumed, readFile(dir.file("reference.jsonl")));
}

TEST(ScrubTest, ClassifiesTornTailVsMidFileCorruption)
{
    TempDir dir;
    const std::string storeDir = dir.file("store");
    std::string shardFile;
    {
        ShardedStore store(storeDir, 1);
        for (int i = 0; i < 6; ++i)
            store.insert("key-" + std::to_string(i),
                         makeRow(static_cast<double>(i)));
        store.flush();
        shardFile = store.shardPath(0);
    }
    const std::string pristine = readFile(shardFile);
    ASSERT_TRUE(scrubStore(storeDir, false).clean());

    // A record cut short after its header: torn.
    {
        std::ofstream out(shardFile, std::ios::app | std::ios::binary);
        out << "\nR 57 01234abc key-99;1,2";
    }
    ScrubReport rep = scrubStore(storeDir, false);
    EXPECT_GE(rep.torn, 1u);
    EXPECT_EQ(rep.corrupt, 0u);

    // A flipped byte inside the first record leaves a full-length line
    // that fails its checksum: corruption, which no crash can produce.
    {
        std::string damaged = pristine;
        damaged[10] ^= 0x01;
        std::ofstream out(shardFile,
                          std::ios::trunc | std::ios::binary);
        out << damaged;
    }
    rep = scrubStore(storeDir, false);
    EXPECT_EQ(rep.torn, 0u);
    EXPECT_GE(rep.corrupt, 1u);
}

TEST(ScrubTest, RandomSingleByteCorruptionIsAlwaysDetectedAndRepaired)
{
    TempDir dir;
    const std::string storeDir = dir.file("store");
    const int nKeys = 12;
    // Every key is appended twice back to back, so one damaged line
    // can never take a key's only copy — repair must keep every key
    // answerable.
    {
        ShardedStore store(storeDir, 2);
        for (int i = 0; i < nKeys; ++i)
            for (int copy = 0; copy < 2; ++copy)
                store.insert("key-" + std::to_string(i),
                             makeRow(static_cast<double>(i)));
        store.flush();
    }
    std::vector<std::pair<std::string, std::string>> pristine;
    {
        ShardedStore store(storeDir);
        for (unsigned s = 0; s < store.shards(); ++s)
            pristine.emplace_back(store.shardPath(s),
                                  readFile(store.shardPath(s)));
    }
    ASSERT_TRUE(scrubStore(storeDir, false).clean());

    std::mt19937 rng(42);
    for (int iter = 0; iter < 12; ++iter) {
        // Restore the pristine store, then flip one random byte of one
        // random non-empty shard.
        for (const auto &[path, data] : pristine) {
            std::ofstream out(path,
                              std::ios::trunc | std::ios::binary);
            out << data;
        }
        const auto &victim =
            pristine[rng() % pristine.size()];
        if (victim.second.empty())
            continue;
        const std::size_t pos = rng() % victim.second.size();
        {
            std::string damaged = victim.second;
            damaged[pos] ^= 0x01;
            std::ofstream out(victim.first,
                              std::ios::trunc | std::ios::binary);
            out << damaged;
        }

        // Detected: a framing checksum never lets a flipped bit pass.
        const ScrubReport found = scrubStore(storeDir, false);
        EXPECT_FALSE(found.clean())
            << "flip at byte " << pos << " of " << victim.first
            << " went undetected";

        // Repaired: damage quarantined, every key still answers warm.
        scrubStore(storeDir, /*repair=*/true);
        EXPECT_TRUE(scrubStore(storeDir, false).clean());
        ShardedStore store(storeDir);
        EXPECT_EQ(store.tornRecords(), 0u);
        for (int i = 0; i < nKeys; ++i) {
            CacheRow c{};
            const std::string key = "key-" + std::to_string(i);
            ASSERT_TRUE(store.lookup(key, c))
                << key << " lost after repairing a flip at byte "
                << pos << " of " << victim.first;
            EXPECT_TRUE(sameRow(c, makeRow(static_cast<double>(i))));
        }
    }
}

// ---------------------------------------------------------------------
// Session deadline (serve overload control)
// ---------------------------------------------------------------------

TEST(SessionDeadlineTest, SkipsUnstartedScenariosPastTheDeadline)
{
    Session session(nullptr, 1);
    const ExperimentPlan plan = smallPlan();
    const SweepResult r = session.run(plan, {}, 1e-6);
    EXPECT_GT(r.metrics.skipped, 0u);
    EXPECT_EQ(r.raw.size(), plan.size() - r.metrics.skipped);
    EXPECT_EQ(r.metrics.scenarios, plan.size());

    // No deadline, or one past the clock's range: nothing is ever
    // skipped.
    for (const double deadline : {0.0, 1e10}) {
        Session fresh(nullptr, 1);
        const SweepResult full = fresh.run(plan, {}, deadline);
        EXPECT_EQ(full.metrics.skipped, 0u) << deadline;
        EXPECT_EQ(full.raw.size(), plan.size()) << deadline;
    }
}

// ---------------------------------------------------------------------
// Serve: overload control, timeouts, graceful drain
// ---------------------------------------------------------------------

/** A forked server pid that is SIGKILLed on scope exit, so a failed
 *  assertion can never leak a child holding the test's pipes open. */
struct ServerGuard
{
    pid_t pid = -1;

    ~ServerGuard()
    {
        if (pid <= 0)
            return;
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
    }
};

/** Fork a child running runServe (with an optional fault schedule). */
pid_t
forkServe(const ServeOptions &opts, const char *faults = nullptr)
{
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    if (faults != nullptr)
        ::setenv("REFRINT_FAULTS", faults, 1);
    else
        ::unsetenv("REFRINT_FAULTS");
    FaultPlan::reloadGlobalForTest();
    ::_exit(runServe(opts));
}

/** Connect to a unix socket, retrying for ~5 s while the forked
 *  server binds. */
int
connectUnix(const std::string &path)
{
    for (int attempt = 0; attempt < 100; ++attempt) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd >= 0 &&
            ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        if (fd >= 0)
            ::close(fd);
        timespec ts{0, 50 * 1000 * 1000};
        ::nanosleep(&ts, nullptr);
    }
    return -1;
}

/** Write one request line; false when the peer already hung up
 *  (MSG_NOSIGNAL: a closed peer must fail the send, not SIGPIPE the
 *  test binary). */
bool
sendLine(int fd, const std::string &s)
{
    const std::string msg = s + "\n";
    std::size_t off = 0;
    while (off < msg.size()) {
        const ssize_t n = ::send(fd, msg.data() + off,
                                 msg.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** One '\n'-terminated line, or "" on EOF. */
std::string
readLine(int fd)
{
    std::string out;
    char c = 0;
    while (::read(fd, &c, 1) == 1) {
        if (c == '\n')
            return out;
        out += c;
    }
    return out;
}

/** waitpid with a 15 s guard so a wedged server fails the test
 *  instead of hanging the suite. */
int
waitExit(ServerGuard &server)
{
    const pid_t pid = server.pid;
    server.pid = -1;
    for (int waitedMs = 0; waitedMs < 15000; waitedMs += 20) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return status;
        timespec ts{0, 20 * 1000 * 1000};
        ::nanosleep(&ts, nullptr);
    }
    ADD_FAILURE() << "server pid " << pid << " did not exit in time";
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
}

TEST(ServeTest, SigtermDrainsInFlightWorkAndExitsZero)
{
    TempDir dir;
    ServeOptions opts;
    opts.socketPath = dir.file("s.sock");
    opts.storeDir = dir.file("store");
    opts.jobs = 1;
    ServerGuard server{forkServe(opts)};
    ASSERT_GE(server.pid, 0);

    const int fd = connectUnix(opts.socketPath);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(sendLine(fd, "{\"op\":\"stats\"}"));
    EXPECT_NE(readLine(fd).find("\"stats\":true"), std::string::npos);

    // SIGTERM while our connection is still open: the server must
    // finish with it (we close), flush, and exit 0 — not die mid-work.
    ASSERT_EQ(::kill(server.pid, SIGTERM), 0);
    ::close(fd);
    const int status = waitExit(server);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeTest, FullQueueShedsNewConnectionsWithAnOverloadError)
{
    TempDir dir;
    ServeOptions opts;
    opts.socketPath = dir.file("s.sock");
    opts.maxQueue = 1;
    opts.jobs = 1;
    ServerGuard server{forkServe(opts)};
    ASSERT_GE(server.pid, 0);

    // A is being served (its stats reply proves it was dequeued); B
    // fills the one-slot queue; C must be shed immediately.
    const int fdA = connectUnix(opts.socketPath);
    ASSERT_GE(fdA, 0);
    ASSERT_TRUE(sendLine(fdA, "{\"op\":\"stats\"}"));
    ASSERT_NE(readLine(fdA).find("\"stats\":true"), std::string::npos);

    const int fdB = connectUnix(opts.socketPath);
    ASSERT_GE(fdB, 0);
    const int fdC = connectUnix(opts.socketPath);
    ASSERT_GE(fdC, 0);
    EXPECT_EQ(readLine(fdC), "{\"error\":\"overloaded\"}");
    ::close(fdC);
    ::close(fdB);
    ::close(fdA);

    // A later connection sees the shed counted — but it races the
    // queue drain (B is still pending until the server reaps it), so
    // retry while we are shed ourselves; extra sheds only grow the
    // counter we then read.
    int fdD = -1;
    std::string stats;
    for (int attempt = 0; attempt < 100; ++attempt) {
        fdD = connectUnix(opts.socketPath);
        ASSERT_GE(fdD, 0);
        sendLine(fdD, "{\"op\":\"stats\"}");
        stats = readLine(fdD);
        if (stats.find("\"stats\":true") != std::string::npos)
            break;
        ::close(fdD);
        fdD = -1;
        timespec ts{0, 20 * 1000 * 1000};
        ::nanosleep(&ts, nullptr);
    }
    ASSERT_GE(fdD, 0);
    EXPECT_NE(stats.find("\"shed\":"), std::string::npos);
    EXPECT_EQ(stats.find("\"shed\":0"), std::string::npos)
        << "shed connections were not counted: " << stats;
    EXPECT_TRUE(sendLine(fdD, "{\"op\":\"shutdown\"}"));
    EXPECT_EQ(readLine(fdD), "{\"bye\":true}");
    ::close(fdD);
    const int status = waitExit(server);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeTest, IdleClientIsDisconnectedAfterTheTimeout)
{
    TempDir dir;
    ServeOptions opts;
    opts.socketPath = dir.file("s.sock");
    opts.idleTimeoutSec = 0.2;
    opts.jobs = 1;
    ServerGuard server{forkServe(opts)};
    ASSERT_GE(server.pid, 0);

    // Send nothing: the server must hang up on us, not wait forever.
    const int fdIdle = connectUnix(opts.socketPath);
    ASSERT_GE(fdIdle, 0);
    EXPECT_EQ(readLine(fdIdle), ""); // EOF
    ::close(fdIdle);

    // The service survived the idle client and still answers.
    const int fd = connectUnix(opts.socketPath);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(sendLine(fd, "{\"op\":\"shutdown\"}"));
    EXPECT_EQ(readLine(fd), "{\"bye\":true}");
    ::close(fd);
    const int status = waitExit(server);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeTest, TimeoutsTooLongForTheClockMeanNoTimeout)
{
    TempDir dir;
    ServeOptions opts;
    opts.socketPath = dir.file("s.sock");
    opts.requestTimeoutSec = 1e10;
    opts.idleTimeoutSec = 1e300;
    opts.jobs = 1;
    ServerGuard server{forkServe(opts)};
    ASSERT_GE(server.pid, 0);

    // An SRAM baseline and one eDRAM scenario of fft both run.
    const int fd = connectUnix(opts.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendLine(
        fd, "{\"plan\": \"x\", \"version\": 1, \"scenarios\": ["
            "{\"app\": \"fft\", \"config\": \"SRAM\", "
            "\"retentionUs\": 0, \"ambientC\": 0, \"cores\": 4, "
            "\"refs\": 100, \"seed\": 1, \"baseline\": -1}, "
            "{\"app\": \"fft\", \"config\": \"P.all\", "
            "\"retentionUs\": 50, \"ambientC\": 0, \"cores\": 4, "
            "\"refs\": 100, \"seed\": 1, \"baseline\": 0}]}"));
    // Rows, then the terminator: the done summary, not a deadline
    // error.
    std::string line = readLine(fd);
    while (line.rfind("{\"plan\"", 0) == 0)
        line = readLine(fd);
    EXPECT_EQ(line.rfind("{\"done\":true", 0), 0u) << line;
    EXPECT_TRUE(sendLine(fd, "{\"op\":\"shutdown\"}"));
    EXPECT_EQ(readLine(fd), "{\"bye\":true}");
    ::close(fd);
    const int status = waitExit(server);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeTest, DropConnFaultSeversTheConversationNotTheService)
{
    TempDir dir;
    ServeOptions opts;
    opts.socketPath = dir.file("s.sock");
    opts.jobs = 1;
    ServerGuard server{forkServe(opts, "serve.drop_conn@1")};
    ASSERT_GE(server.pid, 0);

    const int fd = connectUnix(opts.socketPath);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(sendLine(fd, "{\"op\":\"stats\"}")); // request 0: served
    EXPECT_NE(readLine(fd).find("\"stats\":true"), std::string::npos);
    sendLine(fd, "{\"op\":\"stats\"}"); // request 1: dropped
    EXPECT_EQ(readLine(fd), "");        // abrupt EOF, no reply
    ::close(fd);

    // The service itself is fine; a fresh connection still works.
    const int fd2 = connectUnix(opts.socketPath);
    ASSERT_GE(fd2, 0);
    EXPECT_TRUE(sendLine(fd2, "{\"op\":\"shutdown\"}"));
    EXPECT_EQ(readLine(fd2), "{\"bye\":true}");
    ::close(fd2);
    const int status = waitExit(server);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeTest, RejectedPlanAnswersAnErrorAndTheServiceStaysUp)
{
    TempDir dir;
    ServeOptions opts;
    opts.socketPath = dir.file("s.sock");
    opts.storeDir = dir.file("store");
    opts.jobs = 1;
    ServerGuard server{forkServe(opts)};
    ASSERT_GE(server.pid, 0);

    // An SRAM baseline and one eDRAM scenario of fft.
    auto plan = [](const char *config, const char *retentionUs) {
        return std::string(
                   "{\"plan\": \"x\", \"version\": 1, \"scenarios\": ["
                   "{\"app\": \"fft\", \"config\": \"SRAM\", "
                   "\"retentionUs\": 0, \"ambientC\": 0, \"cores\": 16, "
                   "\"refs\": 100, \"seed\": 1, \"baseline\": -1}, "
                   "{\"app\": \"fft\", \"config\": \"") +
               config + "\", \"retentionUs\": " + retentionUs +
               ", \"ambientC\": 0, \"cores\": 16, \"refs\": 100, "
               "\"seed\": 1, \"baseline\": 0}]}";
    };
    // An unknown policy and a zero retention are each refused at load
    // time with an error line, before anything is simulated, and the
    // service goes on answering.
    const int fd = connectUnix(opts.socketPath);
    ASSERT_GE(fd, 0);
    for (const std::string &p : {plan("Q.all", "50"), plan("P.all", "0")}) {
        ASSERT_TRUE(sendLine(fd, p));
        const std::string reply = readLine(fd);
        EXPECT_EQ(reply.rfind("{\"error\"", 0), 0u) << reply;
    }
    ASSERT_TRUE(sendLine(fd, "{\"op\":\"stats\"}"));
    const std::string stats = readLine(fd);
    EXPECT_NE(stats.find("\"stats\":true"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"errors\":2,"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"scenarios\":0,"), std::string::npos) << stats;
    EXPECT_TRUE(sendLine(fd, "{\"op\":\"shutdown\"}"));
    EXPECT_EQ(readLine(fd), "{\"bye\":true}");
    ::close(fd);
    const int status = waitExit(server);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

} // namespace
} // namespace refrint::test
