/**
 * @file
 * Tests for the experiment service (src/service/): record framing,
 * the sharded result store (concurrent writers, torn tails, legacy
 * migration), scrub & repair, the range worker, the coordinator's
 * retry/deadline/salvage contract under injected faults
 * ($REFRINT_FAULTS), and the serve loop's overload control (queue
 * shedding, idle timeout, SIGTERM drain).  The multi-process tests
 * fork real children — the same mechanics production uses — with a
 * spawner that calls runWorkerRange() directly instead of exec'ing
 * the CLI binary.
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
#include "api/session.hh"
#include "service/coordinator.hh"
#include "service/faults.hh"
#include "service/framing.hh"
#include "service/serve.hh"
#include "service/store.hh"
#include "service/worker.hh"

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

/** The single-process reference: the whole plan through one worker. */
std::string
referenceRows(const std::string &planPath, std::size_t n,
              const std::string &outPath)
{
    std::FILE *f = std::fopen(outPath.c_str(), "w");
    EXPECT_NE(f, nullptr);
    WorkerRangeOptions opts;
    opts.planPath = planPath;
    opts.begin = 0;
    opts.end = n;
    opts.out = f;
    EXPECT_EQ(runWorkerRange(opts), 0);
    std::fclose(f);
    return readFile(outPath);
}

/** Fork a child that runs @p task via runWorkerRange into its temp
 *  file — the in-process stand-in for fork+exec of the CLI. */
pid_t
forkWorker(const std::string &planPath, const std::string &storeDir,
           const WorkerTask &task)
{
    std::fflush(nullptr); // no buffered bytes duplicated into the child
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    char attempt[16];
    std::snprintf(attempt, sizeof(attempt), "%u", task.attempt);
    ::setenv("REFRINT_WORKER_ATTEMPT", attempt, 1);
    // The gtest parent touched the cached global fault plan (store
    // inserts query it) before the test setenv'd $REFRINT_FAULTS; a
    // real worker is a fresh exec and parses it on first use.
    FaultPlan::reloadGlobalForTest();
    std::FILE *f = std::fopen(task.outPath.c_str(), "w");
    if (f == nullptr)
        ::_exit(127);
    WorkerRangeOptions opts;
    opts.planPath = planPath;
    opts.begin = task.begin;
    opts.end = task.end;
    opts.storeDir = storeDir;
    opts.out = f;
    const int rc = runWorkerRange(opts);
    std::fclose(f);
    ::_exit(rc);
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
    // A coordinator's workers may all create a fresh store at once.
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

TEST(ShardedStoreTest, MigratesLegacyCacheRowsExactly)
{
    TempDir dir;
    const std::string cachePath = dir.file("legacy.csv");
    {
        // A legacy CSV cache: version header, then "key;row" lines.
        // A repeated key keeps its last row.
        std::ofstream legacy(cachePath);
        legacy << "v8\n"
               << "legacy-7;" << encodeCacheRow(makeRow(99.0)) << "\n";
        for (int i = 0; i < 25; ++i)
            legacy << "legacy-" << i << ";"
                   << encodeCacheRow(makeRow(static_cast<double>(i)))
                   << "\n";
    }
    EXPECT_EQ(migrateLegacyCache(cachePath, dir.file("store")), 25u);
    ShardedStore store(dir.file("store"));
    EXPECT_EQ(store.rowCount(), 25u);
    for (int i = 0; i < 25; ++i) {
        CacheRow c{};
        ASSERT_TRUE(store.lookup("legacy-" + std::to_string(i), c));
        EXPECT_TRUE(sameRow(c, makeRow(static_cast<double>(i))));
    }
    // The source file is read-only for the migration.
    EXPECT_TRUE(std::filesystem::exists(cachePath));

    // A missing source is a clean exit-1 diagnostic.
    EXPECT_EXIT(migrateLegacyCache(dir.file("nope.csv"), dir.file("store")),
                ::testing::ExitedWithCode(1), "cannot read legacy");
}

TEST(ShardedStoreTest, MigrateRejectsACacheOfAnotherVersion)
{
    TempDir dir;
    // A header outside v5-v8 is fatal, not a silent 0-row import, and a
    // missing file is fatal too; either way the store directory is
    // never created.
    const std::string storeDir = dir.file("store");
    for (const char *header : {"v4", "v9", ""}) {
        const std::string cachePath = dir.file("other.csv");
        std::ofstream(cachePath)
            << header << "\nk;" << encodeCacheRow(makeRow(1.0)) << "\n";
        EXPECT_EXIT(migrateLegacyCache(cachePath, storeDir),
                    ::testing::ExitedWithCode(1), "only v5-v8")
            << header;
        EXPECT_FALSE(std::filesystem::exists(storeDir)) << header;
    }
    EXPECT_EXIT(migrateLegacyCache(dir.file("missing.csv"), storeDir),
                ::testing::ExitedWithCode(1), "cannot read legacy");
    EXPECT_FALSE(std::filesystem::exists(storeDir));
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
// Coordinator / worker
// ---------------------------------------------------------------------

TEST(CoordinatorTest, RangesAlignToBaselineGroups)
{
    const ExperimentPlan plan = smallPlan(); // groups at 0 and 4
    const auto two = shardPlanRanges(plan, 2);
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0].first, 0u);
    EXPECT_EQ(two[0].second, 4u);
    EXPECT_EQ(two[1].first, 4u);
    EXPECT_EQ(two[1].second, 8u);

    // More workers than groups: the split falls back to even cuts and
    // still covers [0, n) contiguously.
    const auto three = shardPlanRanges(plan, 3);
    ASSERT_EQ(three.size(), 3u);
    EXPECT_EQ(three.front().first, 0u);
    EXPECT_EQ(three.back().second, plan.size());
    for (std::size_t i = 0; i + 1 < three.size(); ++i)
        EXPECT_EQ(three[i].second, three[i + 1].first);
}

TEST(CoordinatorTest, MergedRowsAreByteIdenticalToSingleProcess)
{
    TempDir dir;
    const ExperimentPlan plan = smallPlan();
    const std::string planPath = dir.file("plan.json");
    plan.saveFile(planPath);
    const std::string ref =
        referenceRows(planPath, plan.size(), dir.file("ref.jsonl"));
    ASSERT_FALSE(ref.empty());

    CoordinatorOptions opts;
    opts.planPath = planPath;
    opts.workers = 3; // > group count: exercises mid-group ranges too
    opts.spawner = [&](const WorkerTask &task) {
        return forkWorker(planPath, "", task);
    };
    std::FILE *out = std::fopen(dir.file("merged.jsonl").c_str(), "w");
    ASSERT_NE(out, nullptr);
    opts.out = out;
    EXPECT_EQ(runCoordinator(opts), 0);
    std::fclose(out);

    EXPECT_EQ(readFile(dir.file("merged.jsonl")), ref);
}

TEST(CoordinatorTest, RetriesAKilledWorkerAndStaysByteIdentical)
{
    TempDir dir;
    const ExperimentPlan plan = smallPlan();
    const std::string planPath = dir.file("plan.json");
    plan.saveFile(planPath);
    const std::string ref =
        referenceRows(planPath, plan.size(), dir.file("ref.jsonl"));

    // One worker SIGKILLs itself right before emitting global row 5
    // on its first attempt; the retry (attempt 1) runs clean.
    ::setenv("REFRINT_FAULTS", "worker.crash@5", 1);
    ::unsetenv("REFRINT_WORKER_ATTEMPT");

    CoordinatorOptions opts;
    opts.planPath = planPath;
    opts.workers = 3;
    opts.backoffBaseSec = 0.01; // keep the retry fast in tests
    opts.storeDir = dir.file("store"); // committed rows are reused
    opts.spawner = [&](const WorkerTask &task) {
        return forkWorker(planPath, opts.storeDir, task);
    };
    std::FILE *out = std::fopen(dir.file("merged.jsonl").c_str(), "w");
    ASSERT_NE(out, nullptr);
    opts.out = out;
    CoordinatorStats stats;
    const int rc = runCoordinator(opts, &stats);
    std::fclose(out);
    ::unsetenv("REFRINT_FAULTS");
    ASSERT_EQ(rc, 0);
    EXPECT_EQ(stats.retriesUsed, 1u);
    EXPECT_TRUE(stats.missing.empty());

    // Byte-identity needs the "simulated" flags to match too — compare
    // modulo that flag (the retried worker reuses rows the killed
    // attempt already committed to the shared store), then exactly on
    // everything else.
    std::istringstream a(readFile(dir.file("merged.jsonl"))), b(ref);
    std::string la, lb;
    std::size_t rows = 0;
    while (std::getline(a, la) && std::getline(b, lb)) {
        const std::string t = "\"simulated\":true";
        const std::string f = "\"simulated\":false";
        for (std::string *s : {&la, &lb}) {
            const auto at = s->find(f);
            if (at != std::string::npos)
                s->replace(at, f.size(), t);
        }
        EXPECT_EQ(la, lb) << "row " << rows;
        ++rows;
    }
    EXPECT_EQ(rows, plan.size());
    EXPECT_FALSE(std::getline(b, lb)); // same row count
}

TEST(WorkerTest, MidGroupRangeMatchesTheReferenceSlice)
{
    TempDir dir;
    const ExperimentPlan plan = smallPlan();
    const std::string planPath = dir.file("plan.json");
    plan.saveFile(planPath);
    const std::string ref =
        referenceRows(planPath, plan.size(), dir.file("ref.jsonl"));

    // Range 2:6 starts mid-group: the worker must prepend the fft
    // baseline (index 0) for normalization but suppress its row.
    std::FILE *f = std::fopen(dir.file("slice.jsonl").c_str(), "w");
    ASSERT_NE(f, nullptr);
    WorkerRangeOptions opts;
    opts.planPath = planPath;
    opts.begin = 2;
    opts.end = 6;
    opts.out = f;
    EXPECT_EQ(runWorkerRange(opts), 0);
    std::fclose(f);

    std::istringstream all(ref);
    std::string line, expect;
    for (std::size_t i = 0; std::getline(all, line); ++i)
        if (i >= 2 && i < 6)
            expect += line + "\n";
    EXPECT_EQ(readFile(dir.file("slice.jsonl")), expect);
}

TEST(WorkerTest, RejectsARangeOutsideThePlan)
{
    TempDir dir;
    const std::string planPath = dir.file("plan.json");
    smallPlan().saveFile(planPath);
    WorkerRangeOptions opts;
    opts.planPath = planPath;
    opts.begin = 4;
    opts.end = 99;
    opts.out = stderr;
    EXPECT_EQ(runWorkerRange(opts), 1);
}

// ---------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------

TEST(FaultPlanTest, ParsesSchedulesAndAnswersPointQueries)
{
    const FaultPlan plan(
        "worker.crash@5,worker.slow@2:40,store.torn_write@7");
    EXPECT_EQ(plan.specs().size(), 3u);
    EXPECT_TRUE(plan.at("worker.crash", 5));
    EXPECT_FALSE(plan.at("worker.crash", 4));
    EXPECT_FALSE(plan.at("worker.hang", 5));
    std::uint64_t ms = 0;
    EXPECT_TRUE(plan.at("worker.slow", 2, &ms));
    EXPECT_EQ(ms, 40u);
    EXPECT_TRUE(plan.at("store.torn_write", 7));
    EXPECT_FALSE(plan.at("serve.drop_conn", 7));
    EXPECT_TRUE(FaultPlan().empty());
    EXPECT_TRUE(FaultPlan("").empty());
}

TEST(FaultPlanTest, RejectsMalformedSchedules)
{
    EXPECT_EXIT(FaultPlan("worker.crash"),
                ::testing::ExitedWithCode(1), "point@ordinal");
    EXPECT_EXIT(FaultPlan("bogus.point@3"),
                ::testing::ExitedWithCode(1), "unknown fault point");
    EXPECT_EXIT(FaultPlan("worker.crash@x"),
                ::testing::ExitedWithCode(1), "decimal ordinal");
    EXPECT_EXIT(FaultPlan("worker.slow@1:fast"),
                ::testing::ExitedWithCode(1), "decimal value");
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

    // Scrub sees the torn tail (a crash artifact, not corruption).
    ScrubReport rep = scrubStore(storeDir, /*repair=*/false);
    EXPECT_EQ(rep.tornTail, 1u);
    EXPECT_EQ(rep.midFile, 0u);
    EXPECT_EQ(rep.committed, 10u);
    EXPECT_FALSE(rep.clean());

    // Repair quarantines it; the store then loads clean and warm.
    rep = scrubStore(storeDir, /*repair=*/true);
    EXPECT_EQ(rep.quarantined, 1u);
    EXPECT_TRUE(scrubStore(storeDir, false).clean());
    ShardedStore store(storeDir);
    EXPECT_EQ(store.tornRecords(), 0u);
    EXPECT_EQ(store.rowCount(), 10u);
    for (int i = 0; i < 10; ++i) {
        CacheRow c{};
        ASSERT_TRUE(store.lookup("key-" + std::to_string(i), c));
        EXPECT_TRUE(sameRow(c, makeRow(static_cast<double>(i))));
    }
    CacheRow c{};
    EXPECT_FALSE(store.lookup("victim", c));
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

    // Garbage after the last valid record: a torn tail.
    {
        std::ofstream out(shardFile, std::ios::app | std::ios::binary);
        out << "\nR 57 01234abc key-99;1,2";
    }
    ScrubReport rep = scrubStore(storeDir, false);
    EXPECT_GE(rep.tornTail, 1u);
    EXPECT_EQ(rep.midFile, 0u);

    // A flipped byte inside the first record: mid-file corruption,
    // which no crash can produce.
    {
        std::string damaged = pristine;
        damaged[10] ^= 0x01;
        std::ofstream out(shardFile,
                          std::ios::trunc | std::ios::binary);
        out << damaged;
    }
    rep = scrubStore(storeDir, false);
    EXPECT_EQ(rep.tornTail, 0u);
    EXPECT_GE(rep.midFile, 1u);
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

    // No deadline: nothing is ever skipped.
    Session fresh(nullptr, 1);
    const SweepResult full = fresh.run(plan);
    EXPECT_EQ(full.metrics.skipped, 0u);
    EXPECT_EQ(full.raw.size(), plan.size());
}

// ---------------------------------------------------------------------
// Coordinator chaos: hangs, slowness, exhausted retries
// ---------------------------------------------------------------------

TEST(CoordinatorTest, DeadlineKillsAHungWorkerAndSalvagesItsRows)
{
    TempDir dir;
    const ExperimentPlan plan = smallPlan();
    const std::string planPath = dir.file("plan.json");
    plan.saveFile(planPath);
    const std::string ref =
        referenceRows(planPath, plan.size(), dir.file("ref.jsonl"));

    // The worker owning rows 4:8 hangs forever right before row 5;
    // its flushed row 4 must be salvaged and only 5:8 re-dispatched.
    ::setenv("REFRINT_FAULTS", "worker.hang@5", 1);
    ::unsetenv("REFRINT_WORKER_ATTEMPT");

    CoordinatorOptions opts;
    opts.planPath = planPath;
    opts.workers = 2; // group-aligned: 0:4 and 4:8
    opts.workerTimeoutSec = 1.0;
    opts.backoffBaseSec = 0.01;
    opts.spawner = [&](const WorkerTask &task) {
        return forkWorker(planPath, "", task);
    };
    std::FILE *out = std::fopen(dir.file("merged.jsonl").c_str(), "w");
    ASSERT_NE(out, nullptr);
    opts.out = out;
    CoordinatorStats stats;
    const int rc = runCoordinator(opts, &stats);
    std::fclose(out);
    ::unsetenv("REFRINT_FAULTS");

    ASSERT_EQ(rc, 0);
    EXPECT_EQ(stats.deadlineKills, 1u);
    EXPECT_EQ(stats.retriesUsed, 1u);
    EXPECT_EQ(stats.salvagedRows, 1u); // row 4, flushed before the hang
    EXPECT_TRUE(stats.missing.empty());
    // Without a shared store nothing is answered warm, so recovery is
    // byte-exact: salvaged rows + re-simulated rows == fault-free run.
    EXPECT_EQ(readFile(dir.file("merged.jsonl")), ref);
}

TEST(CoordinatorTest, SlowButProgressingWorkerSurvivesTheDeadline)
{
    TempDir dir;
    const ExperimentPlan plan = smallPlan();
    const std::string planPath = dir.file("plan.json");
    plan.saveFile(planPath);
    const std::string ref =
        referenceRows(planPath, plan.size(), dir.file("ref.jsonl"));

    // 300 ms of dawdling before row 5 is well under the 1.5 s
    // no-progress deadline: slow is not hung.
    ::setenv("REFRINT_FAULTS", "worker.slow@5:300", 1);
    ::unsetenv("REFRINT_WORKER_ATTEMPT");

    CoordinatorOptions opts;
    opts.planPath = planPath;
    opts.workers = 2;
    opts.workerTimeoutSec = 1.5;
    opts.spawner = [&](const WorkerTask &task) {
        return forkWorker(planPath, "", task);
    };
    std::FILE *out = std::fopen(dir.file("merged.jsonl").c_str(), "w");
    ASSERT_NE(out, nullptr);
    opts.out = out;
    CoordinatorStats stats;
    const int rc = runCoordinator(opts, &stats);
    std::fclose(out);
    ::unsetenv("REFRINT_FAULTS");

    ASSERT_EQ(rc, 0);
    EXPECT_EQ(stats.deadlineKills, 0u);
    EXPECT_EQ(stats.retriesUsed, 0u);
    EXPECT_EQ(readFile(dir.file("merged.jsonl")), ref);
}

TEST(CoordinatorTest, ExhaustedRetriesDegradeGracefullyWithAnExactReport)
{
    TempDir dir;
    const ExperimentPlan plan = smallPlan();
    const std::string planPath = dir.file("plan.json");
    plan.saveFile(planPath);
    const std::string ref =
        referenceRows(planPath, plan.size(), dir.file("ref.jsonl"));

    // retries=0: the crash before row 5 is terminal for its range —
    // but every other row must still be merged, and the missing
    // indices reported exactly.
    ::setenv("REFRINT_FAULTS", "worker.crash@5", 1);
    ::unsetenv("REFRINT_WORKER_ATTEMPT");

    CoordinatorOptions opts;
    opts.planPath = planPath;
    opts.workers = 2;
    opts.retries = 0;
    opts.spawner = [&](const WorkerTask &task) {
        return forkWorker(planPath, "", task);
    };
    std::FILE *out = std::fopen(dir.file("merged.jsonl").c_str(), "w");
    ASSERT_NE(out, nullptr);
    opts.out = out;
    CoordinatorStats stats;
    const int rc = runCoordinator(opts, &stats);
    std::fclose(out);
    ::unsetenv("REFRINT_FAULTS");

    EXPECT_EQ(rc, 1);
    ASSERT_EQ(stats.missing.size(), 1u);
    EXPECT_EQ(stats.missing[0].first, 5u);
    EXPECT_EQ(stats.missing[0].second, 8u);
    EXPECT_EQ(stats.salvagedRows, 1u); // row 4 survived the crash

    // The merged stream holds exactly rows 0..4 of the reference.
    std::istringstream all(ref);
    std::string line, expect;
    for (std::size_t i = 0; std::getline(all, line); ++i)
        if (i < 5)
            expect += line + "\n";
    EXPECT_EQ(readFile(dir.file("merged.jsonl")), expect);
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

} // namespace
} // namespace refrint::test
