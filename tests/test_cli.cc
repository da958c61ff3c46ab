/**
 * @file
 * refrint_cli end to end: the flags each command accepts, the usage
 * errors its flag list generates (exit 2, naming the command), a few
 * valid invocations, and --alt re-keying a replayed plan's rows the
 * way it re-keys the built-in grid's.  Each test runs the built binary
 * (REFRINT_CLI) in a private temp directory that is also its $TMPDIR.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

namespace
{

/** Every command's accepted flags; the generated help must agree. */
const std::map<std::string, std::string> kAccepted = {
    {"run", "--app --policy --retention --refs --seed --cores --hybrid "
            "--sram --alt --decay --ambient"},
    {"trace-run", "--in --policy --retention --refs --seed --cores "
                  "--hybrid --sram --alt --decay --ambient"},
    {"trace-record", "--app --out --refs --seed --cores"},
    {"sweep", "--plan --app --refs --cores --hybrid --alt --jsonl --csv "
              "--progress --store --sync --jobs"},
    {"figures", "--plan --app --refs --cores --hybrid --alt --jsonl "
                "--csv --progress --store --sync --jobs"},
    {"thermal-study", "--plan --app --retention --ambients --refs --seed "
                      "--cores --hybrid --jsonl --csv --progress --store "
                      "--sync --jobs"},
    {"plan", "--out --app --retention --ambients --refs --seed --cores "
             "--hybrid"},
    {"serve", "--socket --port --store --jobs --max-queue "
              "--request-timeout --idle-timeout"},
    {"submit", "--socket --port --plan"},
    {"cache", "--store --repair"},
    {"validate", "--store --out --verbose"},
    {"binning", ""},
    {"list", ""},
    {"help", ""},
};

std::set<std::string>
words(const std::string &text)
{
    std::istringstream in(text);
    std::set<std::string> out;
    for (std::string w; in >> w;)
        out.insert(w);
    return out;
}

std::string
firstWord(const std::string &line)
{
    std::istringstream in(line);
    std::string w;
    in >> w;
    return w;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** What one refrint_cli invocation did. */
struct Outcome
{
    int code = -1; ///< exit status; -1 when it did not exit normally
    std::string out, err;
};

class Cli : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const char *tmp = std::getenv("TMPDIR");
        std::string tpl = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
        tpl += "/refrint_cli_XXXXXX";
        ASSERT_NE(::mkdtemp(tpl.data()), nullptr);
        dir_ = tpl;
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string
    file(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

    /** Run `refrint_cli args...` in the temp directory; SIGALRM ends
     *  it after @p timeoutSec, so a flag accepted by mistake fails the
     *  test instead of starting a paper-size sweep. */
    Outcome
    run(const std::vector<std::string> &args,
        unsigned timeoutSec = 60) const
    {
        const std::string outPath = file(".stdout");
        const std::string errPath = file(".stderr");
        const pid_t pid = ::fork();
        if (pid == 0) {
            const int o = ::open(outPath.c_str(),
                                 O_WRONLY | O_CREAT | O_TRUNC, 0644);
            const int e = ::open(errPath.c_str(),
                                 O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (o < 0 || e < 0 || ::chdir(dir_.c_str()) != 0 ||
                ::dup2(o, 1) < 0 || ::dup2(e, 2) < 0)
                ::_exit(127);
            ::setenv("TMPDIR", dir_.c_str(), 1);
            ::alarm(timeoutSec);
            std::vector<char *> argv{const_cast<char *>(REFRINT_CLI)};
            for (const std::string &s : args)
                argv.push_back(const_cast<char *>(s.c_str()));
            argv.push_back(nullptr);
            ::execv(REFRINT_CLI, argv.data());
            ::_exit(127);
        }
        Outcome r;
        int status = 0;
        if (pid > 0 && ::waitpid(pid, &status, 0) == pid &&
            WIFEXITED(status))
            r.code = WEXITSTATUS(status);
        r.out = readFile(outPath);
        r.err = readFile(errPath);
        return r;
    }

    std::string dir_;
};

std::string
joined(const std::vector<std::string> &args)
{
    std::string s;
    for (const std::string &a : args)
        s += a + " ";
    return s;
}

TEST_F(Cli, HelpNamesExactlyTheFlagsEachCommandAccepts)
{
    // The index lists exactly the commands of the table.
    const Outcome index = run({"help"});
    ASSERT_EQ(index.code, 0);
    std::set<std::string> listed;
    std::istringstream lines(index.out.substr(index.out.find("commands:")));
    std::string line;
    std::getline(lines, line);
    while (std::getline(lines, line) && line.rfind("  ", 0) == 0)
        listed.insert(firstWord(line));
    std::set<std::string> expected;
    std::size_t pairs = 0;
    for (const auto &[cmd, flags] : kAccepted) {
        expected.insert(cmd);
        pairs += words(flags).size();
    }
    EXPECT_EQ(listed, expected);
    EXPECT_EQ(pairs, 88u);

    // Each command's options section names exactly its flags.
    for (const std::string &cmd : listed) {
        const Outcome help = run({"help", cmd});
        ASSERT_EQ(help.code, 0) << cmd;
        std::set<std::string> named;
        std::istringstream in(help.out);
        while (std::getline(in, line))
            if (line.rfind("  --", 0) == 0) {
                const std::string head = firstWord(line);
                named.insert(head.substr(0, head.find("...")));
            }
        EXPECT_EQ(named, words(kAccepted.at(cmd))) << cmd;
    }
}

TEST_F(Cli, EveryUnlistedFlagIsAUsageErrorNamingTheCommand)
{
    std::set<std::string> all;
    for (const auto &[cmd, flags] : kAccepted)
        for (const std::string &f : words(flags))
            all.insert(f);
    ASSERT_EQ(all.size(), 28u);
    // Removed flags are unknown everywhere.
    for (const char *removed :
         {"--cache", "--workers", "--retries", "--worker-timeout", "--range"})
        all.insert(removed);
    for (const auto &[cmd, flags] : kAccepted) {
        const std::set<std::string> takes = words(flags);
        for (const std::string &f : all) {
            if (takes.count(f) != 0)
                continue;
            const Outcome r = run({cmd, f, "1"}, 5);
            ASSERT_EQ(r.code, 2) << cmd << " " << f;
            EXPECT_NE(r.err.find(cmd + " does not take " + f),
                      std::string::npos)
                << cmd << " " << f << ": " << r.err;
        }
    }
}

TEST_F(Cli, RejectedInvocationsExitTwo)
{
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            // Flags the command used to ignore.
            {{"sweep", "--seed", "5"}, "sweep does not take --seed"},
            {{"sweep", "--retention", "100"},
             "sweep does not take --retention"},
            {{"sweep", "--policy", "P.all"}, "sweep does not take --policy"},
            {{"thermal-study", "--alt"}, "thermal-study does not take --alt"},
            {{"plan", "dump", "--alt"}, "plan does not take --alt"},
            {{"run", "--app", "fft", "--app", "lu"}, "run takes one --app"},
            {{"thermal-study", "--app", "fft", "--app", "lu"},
             "thermal-study takes one --app"},
            {{"trace-record", "--app", "fft", "--app", "lu"},
             "trace-record takes one --app"},
            // A plan kind takes the grid flags of the command it names.
            {{"plan", "dump", "sweep", "--seed", "7"},
             "plan dump sweep does not take --seed"},
            {{"plan", "dump", "--retention", "100"},
             "plan dump sweep does not take --retention"},
            {{"plan", "dump", "figures", "--ambients", "50"},
             "plan dump figures does not take --ambients"},
            {{"plan", "dump", "thermal-study", "--app", "fft", "--app",
              "lu"},
             "plan dump thermal-study takes one --app"},
            {{"plan", "dump", "binning"}, "unknown plan 'binning'"},
            {{"plan"}, "'dump' action"},
            // --decay without --sram, or not > 0.
            {{"run", "--decay", "10"}, "--sram"},
            {{"trace-run", "--in", "missing.trc", "--decay", "10"},
             "--sram"},
            {{"run", "--sram", "--decay", "-5"}, "> 0"},
            {{"run", "--sram", "--decay", "0"}, "> 0"},
            // Flags the SRAM machine or the other cache action would
            // ignore.
            {{"run", "--sram", "--policy", "P.all", "--retention", "200",
              "--refs", "200"},
             "--policy has no effect with --sram"},
            {{"run", "--sram", "--retention", "200"},
             "--retention has no effect with --sram"},
            {{"trace-run", "--in", "missing.trc", "--sram", "--policy",
              "P.all"},
             "--policy has no effect with --sram"},
            {{"trace-run", "--in", "missing.trc", "--retention", "200",
              "--sram"},
             "--retention has no effect with --sram"},
            // A thermal machine needs an engine that follows its
            // retention; the SmartRefresh comparator does not.
            {{"run", "--policy", "S.all", "--ambient", "85", "--refs",
              "200"},
             "a thermal machine needs a P.* or R.* policy"},
            {{"trace-run", "--in", "missing.trc", "--policy", "S.valid",
              "--ambient", "85"},
             "a thermal machine needs a P.* or R.* policy"},
            {{"cache", "scrub", "--store", "x", "--in", "F"},
             "cache does not take --in"},
            {{"cache", "migrate", "--in", "F", "--store", "x", "--repair"},
             "cache does not take --in"},
            // A scenario Scenario::check refuses: an unknown or
            // misspelt policy, a retention the sentry margin consumes.
            {{"run", "--policy", "Q.all", "--refs", "200"},
             "unknown config 'Q.all'"},
            {{"run", "--policy", "P.WB(4,4", "--refs", "200"},
             "unknown config 'P.WB(4,4'"},
            {{"run", "--retention", "16", "--refs", "200"},
             "sentry margin"},
            {{"run", "--retention", "1e15", "--ambient", "35", "--refs",
              "200"},
             "overflows the tick counter"},
            {{"thermal-study", "--retention", "1e15", "--ambients", "35"},
             "overflows the tick counter"},
            {{"trace-run", "--in", "missing.trc", "--retention", "16"},
             "sentry margin"},
            {{"thermal-study", "--retention", "16", "--refs", "200"},
             "sentry margin"},
            {{"plan", "dump", "thermal-study", "--retention", "16"},
             "sentry margin"},
            {{"thermal-study", "--ambients", "45,200"},
             "outside the thermal response"},
            // Missing required flags.
            {{"trace-record"}, "trace-record needs --out"},
            {{"trace-record", "--app", "fft"}, "trace-record needs --out"},
            {{"trace-run"}, "trace-run needs --in"},
            {{"serve"}, "exactly one of --socket"},
            {{"submit", "--socket", "s"}, "submit needs --plan"},
            {{"cache", "--store", "x"}, "'scrub' action"},
            {{"cache", "migrate", "--store", "x"}, "'scrub' action"},
            // Stray arguments.
            {{"list", "extra"}, "list: unexpected argument 'extra'"},
            {{"run", "extra"}, "run: unexpected argument 'extra'"},
            {{"help", "sweep", "extra"}, "unexpected argument 'extra'"},
            {{"plan", "dump", "sweep", "extra"},
             "unexpected argument 'extra'"},
            {{"submit", "--socket", "s", "bogus"}, "unknown submit action"},
            // --plan replaces the built-in grid.
            {{"sweep", "--plan", "p.json", "--app", "fft"},
             "--plan replaces the built-in grid; drop --app"},
            {{"thermal-study", "--plan", "p.json", "--seed", "3"},
             "drop --seed"},
            // Malformed values and contradictory machines.
            {{"run", "--refs"}, "--refs needs a value"},
            {{"run", "--refs", "1e6"}, "--refs wants a decimal integer"},
            {{"run", "--retention", "abc"}, "--retention wants a finite"},
            {{"run", "--cores", "3"}, "[4, 64]"},
            {{"sweep", "--jobs", "0"}, "[1, 4096]"},
            {{"run", "--sram", "--hybrid"}, "drop --sram"},
            {{"run", "--sram", "--ambient", "85"}, "drop --sram"},
            {{"run", "--ambient", "500"}, "outside the thermal response"},
            {{"thermal-study", "--ambients", "45,x"}, "--ambients wants"},
            {{"sweep", "--jsonl", "-", "--csv", "-"}, "only one of"},
            // The exit-code checks CI has always made.
            {{"bogus-command"}, "unknown command 'bogus-command'"},
            {{"worker", "--plan", "p.json", "--range", "0:1"},
             "unknown command 'worker'"},
            {{"help", "bogus"}, "unknown command 'bogus'"},
            {{"run", "--refs", "not-a-number"}, "--refs wants"},
            {{"run", "--store", "x"}, "run does not take --store"},
            {{"run", "--sync"}, "run does not take --sync"},
            {{"plan", "dump", "--store", "x"}, "plan does not take --store"},
            {{"binning", "--store", "x"}, "binning does not take --store"},
            {{"submit", "--socket", "s", "--store", "x"},
             "submit does not take --store"},
            {{"sweep", "--cache", "x"}, "sweep does not take --cache"},
            {{"sweep", "--sync"}, "--sync needs --store"},
            {{"serve", "--socket", "s", "--store", "x", "--sync"},
             "serve does not take --sync"},
            {{"cache", "scrub", "--store", "x", "--sync"},
             "cache does not take --sync"},
            {{"validate", "--store", "x", "--sync"},
             "validate does not take --sync"},
            {{"sweep", "--workers", "2", "--jsonl", "-"},
             "sweep does not take --workers"},
            {{"validate"}, "validate needs --store"},
            {{"validate", "--store", "a", "--cache", "b"},
             "validate does not take --cache"},
        };
    for (const auto &[args, message] : cases) {
        const Outcome r = run(args, 5);
        EXPECT_EQ(r.code, 2) << joined(args);
        EXPECT_NE(r.err.find(message), std::string::npos)
            << joined(args) << ": " << r.err;
    }
    // Nothing was left behind by the rejected commands.
    EXPECT_FALSE(std::filesystem::exists(file("x")));
    EXPECT_FALSE(std::filesystem::exists(file("F")));
}

TEST_F(Cli, ValidInvocationsExitZero)
{
    const std::vector<std::vector<std::string>> cases = {
        {"list"},
        {"help"},
        {"help", "plan"},
        {"plan", "dump", "figures", "--app", "fft", "--app", "lu", "--refs",
         "100", "--out", "figures.json"},
        {"run", "--app", "fft", "--refs", "100"},
        {"run", "--sram", "--decay", "10", "--refs", "100"},
        {"run", "--sram", "--refs", "100"},
        {"trace-record", "--app", "fft", "--refs", "50", "--out", "t.trc"},
        {"trace-run", "--in", "t.trc", "--refs", "50"},
    };
    for (const auto &args : cases) {
        const Outcome r = run(args);
        EXPECT_EQ(r.code, 0) << joined(args) << ": " << r.err;
    }
    const Outcome decay = run({"run", "--sram", "--decay", "10", "--refs",
                               "100"});
    EXPECT_NE(decay.out.find("+decay"), std::string::npos) << decay.out;

    // A thermal-study plan takes the thermal grid flags.
    const Outcome thermal =
        run({"plan", "dump", "thermal-study", "--seed", "7"});
    EXPECT_EQ(thermal.code, 0) << thermal.err;
    EXPECT_NE(thermal.out.find("\"seed\": 7"), std::string::npos);
}

TEST_F(Cli, AltRekeysAReplayedPlanLikeTheBuiltInGrid)
{
    const Outcome grid =
        run({"sweep", "--app", "fft", "--refs", "100", "--alt", "--jobs",
             "1", "--jsonl", "grid.jsonl"});
    ASSERT_EQ(grid.code, 0) << grid.err;
    const std::string rows = readFile(file("grid.jsonl"));
    EXPECT_NE(rows.find("|en="), std::string::npos);

    // A plan file carries no energy tag; --alt re-keys it as well.
    ASSERT_EQ(run({"plan", "dump", "--app", "fft", "--refs", "100",
                   "--out", "plan.json"})
                  .code,
              0);
    const Outcome planned =
        run({"sweep", "--plan", "plan.json", "--alt", "--jobs", "1",
             "--jsonl", "planned.jsonl"});
    ASSERT_EQ(planned.code, 0) << planned.err;
    EXPECT_EQ(readFile(file("planned.jsonl")), rows);
}

} // namespace
