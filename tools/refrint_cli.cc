/**
 * @file
 * refrint_cli — command-line front end for the Refrint simulator.
 *
 * Every subcommand is a thin plan-builder over the experiment API
 * (src/api/): it assembles an ExperimentPlan, runs it through a
 * Session, and prints the report (harness/report.hh) over the
 * SweepResult that comes back.  `refrint_cli help` lists the
 * subcommands, `refrint_cli help <cmd>` shows one in detail.
 *
 * One table declares every flag: its parse rule, whether it shapes the
 * built-in grid, and its help line.  Each command lists the flags it
 * reads, and the parser, `help <cmd>` and the usage errors all come
 * from those lists: a flag a command does not list is a usage error,
 * never a silent ignore.
 *
 * Exit codes: 0 success, 1 runtime error (unknown app, unreadable
 * file, impossible configuration), 2 usage error (bad flags or
 * arguments).  Numeric arguments are parsed strictly: "--refs 1e6" is
 * an error, not a silent 1.
 */

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "api/experiment_plan.hh"
#include "api/result_sink.hh"
#include "api/session.hh"
#include "common/env.hh"
#include "harness/report.hh"
#include "service/serve.hh"
#include "service/store.hh"
#include "trace/trace.hh"
#include "validate/validate.hh"
#include "workload/method.hh"
#include "workload/workload.hh"

namespace
{

using namespace refrint;

struct Flag;

/** Every flag's value; a command reads only the flags it lists. */
struct Args
{
    /** Every --app given, in order: sweep/figures replace the paper-app
     *  axis with the list, the single-app commands take one. */
    std::vector<std::string> apps;
    std::string policy = "R.WB(32,32)";
    double retentionUs = 50.0;
    std::uint64_t refs = 120'000;
    std::uint64_t seed = 1;
    std::uint64_t cores = 16; ///< machine scale (4..64)
    bool hybrid = false;      ///< SRAM L1/L2 over the eDRAM LLC
    std::uint64_t jobs = 0; ///< worker threads; 0 = $REFRINT_JOBS or 1
    bool sram = false;
    bool alt = false;  ///< run the alternate energy backend alongside
    bool verbose = false; ///< validate: list every finding
    bool progress = false; ///< per-run progress ticker on stderr
    double decayUs = 0.0;  ///< 0 = no cache decay
    double ambientC = 0.0; ///< 0 = thermal subsystem off
    std::string ambients = "45,65,85"; ///< thermal-study axis
    std::string store; ///< sharded result store dir; "" = persist nothing
    std::string plan;  ///< JSON plan file replacing the built-in grid
    std::string jsonl; ///< JSON Lines result sink ("-" = stdout)
    std::string csv;   ///< CSV result sink ("-" = stdout)
    std::string in, out;
    bool sync = false;         ///< --store: fdatasync every append
    bool repair = false;       ///< cache scrub: quarantine + rebuild
    std::string socket;        ///< serve/submit: unix socket path
    std::uint64_t port = 0;    ///< serve/submit: TCP port on 127.0.0.1
    std::uint64_t maxQueue = 16; ///< serve: pending-connection bound
    double requestTimeout = 0; ///< serve: per-plan wall deadline
    double idleTimeout = 0;    ///< serve: silent-client read timeout

    /** Non-flag tokens, e.g. the "dump" in `plan dump`. */
    std::vector<std::string> positional;

    /** The flags given on the command line, in order. */
    std::vector<const Flag *> given;

    /** The single-app commands' workload. */
    std::string
    app() const
    {
        return apps.empty() ? "fft" : apps.front();
    }
};

/**
 * One command-line flag.  Its parse rule follows the type of the Args
 * member it sets: a switch (bool), a string (collected into a list for
 * --app), an integer in [lo, hi], or a positive finite number.
 */
struct Flag
{
    const char *name;
    const char *meta; ///< value placeholder in help; "" for a switch
    std::variant<bool Args::*, std::string Args::*,
                 std::vector<std::string> Args::*, std::uint64_t Args::*,
                 double Args::*>
        target;
    bool grid;        ///< shapes the built-in grid (conflicts with --plan)
    const char *help; ///< a '\n' continues it on the next help line
    std::uint64_t lo = 0, hi = 0; ///< integer flags: the accepted range
};

constexpr bool kGrid = true;
constexpr bool kNotGrid = false;
constexpr std::uint64_t kAnyU64 = ~std::uint64_t{0};

const Flag kFlags[] = {
    {"--plan", "FILE", &Args::plan, kNotGrid,
     "run a JSON experiment plan instead of the built-in\n"
     "grid (see 'plan dump')"},
    {"--app", "SPEC", &Args::apps, kGrid,
     "workload name or method spec (see 'list'; default\n"
     "fft); repeated, it replaces the paper-app axis"},
    {"--in", "FILE", &Args::in, kNotGrid, "the trace to run"},
    {"--policy", "P", &Args::policy, kNotGrid,
     "refresh policy (default R.WB(32,32); see 'list')"},
    {"--retention", "US", &Args::retentionUs, kGrid,
     "eDRAM retention in us (default 50)"},
    {"--ambients", "LIST", &Args::ambients, kGrid,
     "comma-separated ambients in deg C (default 45,65,85)"},
    {"--refs", "N", &Args::refs, kGrid,
     "references per core (default 120000)", 0, kAnyU64},
    {"--seed", "S", &Args::seed, kGrid, "PRNG seed (default 1)", 0,
     kAnyU64},
    {"--cores", "N", &Args::cores, kGrid,
     "scale the machine to N cores (default 16)", 4, 64},
    {"--hybrid", "", &Args::hybrid, kGrid,
     "SRAM L1/L2 over the eDRAM LLC"},
    {"--sram", "", &Args::sram, kNotGrid, "run the all-SRAM machine"},
    {"--alt", "", &Args::alt, kNotGrid,
     "also run the alternate energy backend; rows gain\n"
     "both estimates and their disagreement"},
    {"--decay", "US", &Args::decayUs, kNotGrid,
     "SRAM cache-decay comparator interval (needs --sram)"},
    {"--ambient", "C", &Args::ambientC, kNotGrid,
     "enable the thermal subsystem at C deg C"},
    {"--jsonl", "FILE", &Args::jsonl, kNotGrid,
     "one JSON object per run; \"-\" streams to stdout and\n"
     "replaces the default report"},
    {"--csv", "FILE", &Args::csv, kNotGrid,
     "one CSV row per run (\"-\" as for --jsonl)"},
    {"--progress", "", &Args::progress, kNotGrid,
     "per-run progress ticker on stderr"},
    {"--store", "DIR", &Args::store, kNotGrid,
     "the sharded result store rows are read from and\n"
     "appended to (default none: nothing persists)"},
    {"--sync", "", &Args::sync, kNotGrid,
     "fdatasync every store append (needs --store)"},
    {"--jobs", "N", &Args::jobs, kNotGrid,
     "worker threads (default $REFRINT_JOBS, else 1)", 1, 4096},
    {"--socket", "PATH", &Args::socket, kNotGrid, "a unix socket path"},
    {"--port", "N", &Args::port, kNotGrid, "a TCP port on 127.0.0.1", 1,
     65535},
    {"--max-queue", "N", &Args::maxQueue, kNotGrid,
     "pending-connection bound (default 16); a full queue\n"
     "sheds new connections with {\"error\":\"overloaded\"}", 1,
     4096},
    {"--request-timeout", "SEC", &Args::requestTimeout, kNotGrid,
     "per-plan wall deadline; later scenarios are dropped\n"
     "and the response ends with an error line"},
    {"--idle-timeout", "SEC", &Args::idleTimeout, kNotGrid,
     "close a connection idle for SEC s (default off)"},
    {"--repair", "", &Args::repair, kNotGrid,
     "quarantine damaged lines to shard-NNN.bad and\n"
     "rebuild each shard from its valid rows"},
    {"--out", "FILE", &Args::out, kNotGrid,
     "the dumped plan (default stdout), the recorded trace,\n"
     "or validate's JSON report"},
    {"--verbose", "", &Args::verbose, kNotGrid,
     "list every finding, not just the summary"},
};

struct Command
{
    const char *name;
    const char *summary; ///< one line for the command index
    /** The flags it reads, space-separated, in help order; "--app..."
     *  takes --app repeatedly. */
    const char *flags;
    unsigned positionals; ///< how many bare arguments it takes at most
    const char *usage;    ///< synopsis and notes for `help <cmd>`
    int (*run)(const Args &);
};

const Command *findCommand(const std::string &name); // table below
void printCommandIndex(std::FILE *out);

/** True when @p c lists flag @p name; with @p repeated, only when it
 *  lists it as repeatable ("--app..."). */
bool
takes(const Command &c, const std::string &name, bool repeated = false)
{
    std::istringstream list(c.flags);
    for (std::string f; list >> f;)
        if (f == name + "..." || (!repeated && f == name))
            return true;
    return false;
}

const Flag *
findFlag(const std::string &name)
{
    for (const Flag &f : kFlags)
        if (name == f.name)
            return &f;
    return nullptr;
}

/** Whether flag @p name was given on the command line. */
bool
given(const Args &a, const char *name)
{
    for (const Flag *f : a.given)
        if (std::strcmp(f->name, name) == 0)
            return true;
    return false;
}

void
printCommandHelp(const Command &c, std::FILE *out)
{
    std::fputs(c.usage, out);
    if (*c.flags != '\0')
        std::fputs("\noptions:\n", out);
    std::istringstream list(c.flags);
    for (std::string entry; list >> entry;) {
        const std::size_t dots = entry.find("...");
        const Flag *f = findFlag(entry.substr(0, dots));
        if (f == nullptr)
            panic("command '%s' lists unknown flag '%s'", c.name,
                  entry.c_str());
        std::string head = f->name;
        if (*f->meta != '\0')
            head = head + " " + f->meta;
        if (dots != std::string::npos)
            head += "...";
        std::string help = f->help;
        for (std::size_t i = help.find('\n'); i != std::string::npos;
             i = help.find('\n', i + 1))
            help.insert(i + 1, 24, ' ');
        std::fprintf(out, "  %-21s %s\n", head.c_str(), help.c_str());
    }
}

/** The command being parsed/executed, for pointed usage errors. */
const Command *gActive = nullptr;

/** Report a usage error for the active command and exit 2. */
[[noreturn]] void
usageError(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputs("\n\n", stderr);
    printCommandHelp(*gActive, stderr);
    std::exit(2);
}

/** Parse @p cmd's command line.  A flag @p cmd does not list, a second
 *  --app where it takes one, a malformed value, a stray argument and a
 *  grid flag beside --plan are all usage errors. */
Args
parseArgs(const Command &cmd, int argc, char **argv)
{
    Args a;
    for (int i = 2; i < argc; ++i) {
        const std::string k = argv[i];
        if (k.empty() || k[0] != '-') {
            if (a.positional.size() == cmd.positionals)
                usageError("%s: unexpected argument '%s'", cmd.name,
                           k.c_str());
            a.positional.push_back(k);
            continue;
        }
        const Flag *f = takes(cmd, k) ? findFlag(k) : nullptr;
        if (f == nullptr)
            usageError("%s does not take %s", cmd.name, k.c_str());
        a.given.push_back(f);
        if (const auto *on = std::get_if<bool Args::*>(&f->target)) {
            a.*(*on) = true;
            continue;
        }
        if (i + 1 >= argc)
            usageError("%s needs a value", f->name);
        const char *v = argv[++i];
        if (const auto *s = std::get_if<std::string Args::*>(&f->target)) {
            a.*(*s) = v;
        } else if (const auto *list =
                       std::get_if<std::vector<std::string> Args::*>(
                           &f->target)) {
            (a.*(*list)).push_back(v);
            if ((a.*(*list)).size() > 1 && !takes(cmd, k, true))
                usageError("%s takes one %s", cmd.name, f->name);
        } else if (const auto *u =
                       std::get_if<std::uint64_t Args::*>(&f->target)) {
            std::uint64_t n = 0;
            if (!parseU64Strict(v, n) || n < f->lo || n > f->hi)
                usageError("%s wants a decimal integer in [%llu, %llu], "
                           "got '%s'",
                           f->name, static_cast<unsigned long long>(f->lo),
                           static_cast<unsigned long long>(f->hi), v);
            a.*(*u) = n;
        } else {
            double x = 0;
            if (!parseF64Strict(v, x) || !(x > 0))
                usageError("%s wants a finite number > 0, got '%s'",
                           f->name, v);
            a.*std::get<double Args::*>(f->target) = x;
        }
    }
    if (!a.plan.empty())
        for (const Flag *f : a.given)
            if (f->grid)
                usageError("--plan replaces the built-in grid; drop %s "
                           "(the plan file already fixes it)",
                           f->name);
    return a;
}

/** Parse the --ambients comma list into positive temperatures. */
std::vector<double>
parseAmbients(const std::string &list)
{
    std::vector<double> out;
    std::string tok;
    std::stringstream ss(list);
    while (std::getline(ss, tok, ',')) {
        double v = 0;
        if (!parseF64Strict(tok.c_str(), v) || v <= 0)
            usageError("--ambients wants positive deg C values, got "
                       "'%s'",
                       tok.c_str());
        out.push_back(v);
    }
    if (out.empty())
        usageError("--ambients list is empty");
    return out;
}

/** Build the session behind a plan-running command: results persist
 *  only when --store names a sharded store directory. */
std::unique_ptr<Session>
sessionFor(const Args &a)
{
    if (a.sync && a.store.empty())
        usageError("--sync needs --store DIR");
    std::unique_ptr<ResultStore> store;
    if (!a.store.empty())
        store = std::make_unique<ShardedStore>(a.store, 0, a.sync);
    return std::make_unique<Session>(std::move(store), a.jobs);
}

/** The workload @p name resolves to, or null after printing the method
 *  catalogue (the caller exits 1). */
const Workload *
knownWorkload(const std::string &name)
{
    const Workload *w = findWorkload(name);
    if (w == nullptr)
        std::fprintf(stderr, "unknown application '%s' (try 'list')\n%s",
                     name.c_str(), workloadRegistry().describe().c_str());
    return w;
}

// ---------------------------------------------------------------------
// Sinks: every plan-running command shares the same observer wiring.
// ---------------------------------------------------------------------

/** Owns the optional file-backed sinks a command attaches. */
struct SinkSet
{
    std::vector<std::unique_ptr<ResultSink>> owned;
    std::vector<ResultSink *> ptrs;
    std::vector<std::FILE *> files; ///< opened for a sink; closed here

    ~SinkSet()
    {
        for (std::FILE *f : files)
            std::fclose(f);
    }

    void
    add(std::unique_ptr<ResultSink> s)
    {
        ptrs.push_back(s.get());
        owned.push_back(std::move(s));
    }
};

/** Open @p path for a sink ("-" = stdout); null on failure. */
std::FILE *
openSinkFile(SinkSet &sinks, const std::string &path)
{
    if (path == "-")
        return stdout;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        std::fprintf(stderr, "cannot write sink file: %s\n",
                     path.c_str());
    else
        sinks.files.push_back(f);
    return f;
}

/** True when a machine-readable sink streams to stdout — the default
 *  human report must then stay out of the stream. */
bool
stdoutIsMachineReadable(const Args &a)
{
    if (a.jsonl == "-" && a.csv == "-")
        usageError("only one of --jsonl/--csv can stream to stdout");
    return a.jsonl == "-" || a.csv == "-";
}

/** Attach the generic sinks (--jsonl, --csv, --progress); false on a
 *  runtime error (unwritable file). */
bool
attachCommonSinks(const Args &a, SinkSet &sinks)
{
    if (!a.jsonl.empty()) {
        std::FILE *f = openSinkFile(sinks, a.jsonl);
        if (f == nullptr)
            return false;
        sinks.add(std::make_unique<JsonLinesSink>(f));
    }
    if (!a.csv.empty()) {
        std::FILE *f = openSinkFile(sinks, a.csv);
        if (f == nullptr)
            return false;
        sinks.add(std::make_unique<CsvSink>(f));
    }
    if (a.progress)
        sinks.add(std::make_unique<ProgressSink>());
    return true;
}

// ---------------------------------------------------------------------
// Plan builders: each subcommand's flags -> one ExperimentPlan.
// ---------------------------------------------------------------------

/** The --cores/--hybrid machine axis; empty for the default machine,
 *  whose rows carry no machine key. */
std::vector<MachineAxis>
machinesFor(const Args &a)
{
    if (a.cores == 16 && !a.hybrid)
        return {};
    return {MachineAxis{static_cast<std::uint32_t>(a.cores), a.hybrid}};
}

/** The sweep/figures grid for the given flags (the paper's Table 5.4
 *  grid, possibly on a scaled or hybrid machine). */
ExperimentPlan
sweepPlanFor(const Args &a, bool announceMachine)
{
    SweepSpec spec;
    spec.sim.refsPerCore = a.refs;
    // --app SPEC (repeatable) replaces the paper-app axis; specs can
    // carry method parameters ("agg:tables=part,...").
    for (const std::string &s : a.apps) {
        ResolvedWorkload rw;
        std::string err;
        if (!workloadRegistry().resolve(s, rw, err))
            fatal("sweep --app: %s\n%s", err.c_str(),
                  workloadRegistry().describe().c_str());
        spec.apps.push_back(rw.workload);
    }
    spec.machines = machinesFor(a);
    if (announceMachine && !spec.machines.empty())
        std::printf("machine: %u cores (%s)\n", spec.machines[0].cores,
                    a.hybrid ? "hybrid SRAM L1/L2 + eDRAM LLC"
                             : "uniform tech");
    return ExperimentPlan::fromSweepSpec(std::move(spec));
}

/** The ambient-temperature study plan for the given flags; null app
 *  name errors are reported by the builder (fatal, exit 1). */
ExperimentPlan
thermalPlanFor(const Args &a)
{
    SimParams sim;
    sim.refsPerCore = a.refs;
    sim.seed = a.seed;
    ExperimentPlan plan = ExperimentPlan::thermalStudy(
        a.app(), a.retentionUs, parseAmbients(a.ambients), sim,
        machinesFor(a));
    // --retention and --ambients are the user's: a scenario that
    // cannot run is a usage error.
    std::string err;
    for (const Scenario &sc : plan.scenarios)
        if (!sc.check(err))
            usageError("%s", err.c_str());
    return plan;
}

// ---------------------------------------------------------------------
// run / trace-run share the single-run printer.
// ---------------------------------------------------------------------

/** The machine a single run simulates; flag combinations it would
 *  ignore or that contradict each other are usage errors. */
MachineConfig
machineFor(const Args &a)
{
    if (a.decayUs > 0.0 && !a.sram)
        usageError("--decay is the SRAM cache-decay comparator; add "
                   "--sram");
    if (a.sram && a.hybrid)
        usageError("--hybrid builds SRAM L1/L2 over an eDRAM LLC; "
                   "drop --sram");
    if (a.sram && a.ambientC > 0.0)
        usageError("--ambient needs an eDRAM machine; drop --sram "
                   "(SRAM retention is unlimited)");
    if (a.sram)
        for (const char *f : {"--policy", "--retention"})
            if (given(a, f))
                usageError("%s has no effect with --sram (SRAM cells "
                           "are never refreshed); drop one of them",
                           f);
    if (a.decayUs > 0.0)
        return MachineConfig::paperSramDecay(usToTicks(a.decayUs),
                                             a.cores);
    Scenario sc;
    sc.cores = static_cast<std::uint32_t>(a.cores);
    if (!a.sram) {
        sc.config = a.policy;
        sc.retentionUs = a.retentionUs;
        sc.ambientC = a.ambientC;
        sc.hybrid = a.hybrid;
    }
    MachineConfig cfg;
    std::string err;
    if (!sc.tryMachine(EnergyParams::calibrated(), cfg, err))
        usageError("%s", err.c_str());
    return cfg;
}

void
printRun(const Workload &app, const MachineConfig &cfg, const Args &a)
{
    SimParams sim;
    sim.refsPerCore = a.refs;
    sim.seed = a.seed;
    EnergyParams energy = EnergyParams::calibrated();
    if (a.alt)
        energy.altModel = 1;

    const RunResult base =
        runOnce(MachineConfig::paperSram(cfg.numCores), app, sim, energy);
    const RunResult r = a.sram && a.decayUs == 0.0
                            ? base
                            : runOnce(cfg, app, sim, energy);
    const NormalizedResult n = normalize(r, base);

    std::printf("app            %s (class %d)\n", app.name(),
                app.paperClass());
    std::printf("machine        %s%s", cfg.techSummary().c_str(),
                cfg.decay.enabled ? "+decay" : "");
    if (cfg.anyEdram())
        std::printf("  policy %s  retention %.0f us",
                    cfg.llc().policy.name().c_str(), a.retentionUs);
    if (cfg.numCores != 16)
        std::printf("  cores %u (%ux%u torus)", cfg.numCores,
                    cfg.torusDim, cfg.torusDim);
    std::printf("\n");
    if (cfg.thermal.enabled)
        std::printf("thermal        ambient %.1f C  peak %.1f C  "
                    "(retention x%.2f at peak)\n",
                    r.ambientC, r.maxTempC,
                    cfg.retention.thermal.factorAt(r.maxTempC));
    std::printf("exec time      %.3f ms  (%.3fx of SRAM)\n",
                ticksToSeconds(r.execTicks) * 1e3, n.time);
    std::printf("mem energy     %.3f mJ  (%.3fx of SRAM)\n",
                r.energy.memTotal() * 1e3, n.memEnergy);
    std::printf("sys energy     %.3f mJ  (%.3fx of SRAM)\n",
                r.energy.systemTotal() * 1e3, n.sysEnergy);
    std::printf("  dynamic/leak/refresh/dram  %.3f / %.3f / %.3f / %.3f"
                "  (of SRAM mem energy)\n",
                n.dynamic, n.leakage, n.refresh, n.dram);
    std::printf("L3 misses      %llu    DRAM accesses %llu\n",
                static_cast<unsigned long long>(r.counts.l3Misses),
                static_cast<unsigned long long>(r.counts.dramAccesses));
    std::printf("refreshes      L1 %llu  L2 %llu  L3 %llu\n",
                static_cast<unsigned long long>(r.counts.l1Refreshes),
                static_cast<unsigned long long>(r.counts.l2Refreshes),
                static_cast<unsigned long long>(r.counts.l3Refreshes));
    std::printf("breakdown      dyn/leak/ref (mJ)  L1 %.3f/%.3f/%.3f  "
                "L2 %.3f/%.3f/%.3f  L3 %.3f/%.3f/%.3f\n",
                r.energy.l1Dyn * 1e3, r.energy.l1Leak * 1e3,
                r.energy.l1Ref * 1e3, r.energy.l2Dyn * 1e3,
                r.energy.l2Leak * 1e3, r.energy.l2Ref * 1e3,
                r.energy.l3Dyn * 1e3, r.energy.l3Leak * 1e3,
                r.energy.l3Ref * 1e3);
    if (r.hasAlt)
        std::printf("alt backend    mem %.3f mJ  sys %.3f mJ  "
                    "(disagreement %.2f%%)\n",
                    r.alt.memTotal() * 1e3, r.alt.systemTotal() * 1e3,
                    energyDisagreement(r) * 100.0);
    if (r.requests > 0)
        std::printf("requests       %.0f   latency p50/p95/p99  "
                    "%.3f / %.3f / %.3f us\n",
                    r.requests, r.reqP50Us, r.reqP95Us, r.reqP99Us);
}

// ---------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------

int
cmdRun(const Args &a)
{
    const MachineConfig cfg = machineFor(a);
    const Workload *app = knownWorkload(a.app());
    if (app == nullptr)
        return 1;
    printRun(*app, cfg, a);
    return 0;
}

int
cmdSweepOrFigures(const Args &a, bool figures)
{
    // A machine-readable stdout keeps the report out.
    const bool report = !stdoutIsMachineReadable(a);
    ExperimentPlan plan = !a.plan.empty()
                              ? ExperimentPlan::loadFile(a.plan)
                              : sweepPlanFor(a, report);
    // --alt runs the second-opinion energy backend alongside the
    // primary; its rows are keyed separately (|en= tag), never
    // aliasing the default corpus.
    if (a.alt)
        plan.energy.altModel = 1;
    SinkSet sinks;
    if (!attachCommonSinks(a, sinks))
        return 1;
    const SweepResult r = sessionFor(a)->run(plan, sinks.ptrs);
    if (report) {
        if (figures)
            printFigures(r);
        printHeadline(r);
        // These print nothing unless the plan held request-serving
        // runs / the alternate backend, so the default sweep output
        // stays byte-identical.
        printLatencyTable(r);
        printDisagreement(r);
    }
    return 0;
}

int
cmdThermalStudy(const Args &a)
{
    const bool report = !stdoutIsMachineReadable(a);
    // The table header names the studied app/retention: from the flags
    // for the built-in plan, from the plan's own measured scenarios
    // when one is replayed.
    std::string app = a.app();
    double retentionUs = a.retentionUs;
    ExperimentPlan plan;
    if (!a.plan.empty()) {
        plan = ExperimentPlan::loadFile(a.plan);
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (plan.baseline[i] >= 0) {
                app = plan.scenarios[i].app;
                retentionUs = plan.scenarios[i].retentionUs;
                break;
            }
        }
    } else {
        if (knownWorkload(app) == nullptr)
            return 1;
        plan = thermalPlanFor(a);
    }
    SinkSet sinks;
    if (!attachCommonSinks(a, sinks))
        return 1;
    const SweepResult r = sessionFor(a)->run(plan, sinks.ptrs);
    if (report)
        printThermalStudy(r, app.c_str(), retentionUs);
    return 0;
}

int
cmdBinning(const Args &)
{
    printBinning();
    return 0;
}

int
cmdPlan(const Args &a)
{
    if (a.positional.empty() || a.positional[0] != "dump")
        usageError("plan wants the 'dump' action, e.g. "
                   "'refrint_cli plan dump --out plan.json'");
    const std::string kind =
        a.positional.size() > 1 ? a.positional[1] : "sweep";
    if (kind != "sweep" && kind != "figures" && kind != "thermal-study")
        usageError("unknown plan '%s' (sweep, figures, thermal-study)",
                   kind.c_str());
    // Each kind takes the grid flags of the command it names.
    const Command &named = *findCommand(kind);
    for (const Flag *f : a.given)
        if (f->grid && !takes(named, f->name))
            usageError("plan dump %s does not take %s", kind.c_str(),
                       f->name);
    if (a.apps.size() > 1 && !takes(named, "--app", true))
        usageError("plan dump %s takes one --app", kind.c_str());

    ExperimentPlan plan = kind == "thermal-study" ? thermalPlanFor(a)
                                                  : sweepPlanFor(a, false);
    if (kind == "figures")
        plan.name = "figures";
    if (a.out.empty())
        std::fputs(plan.toJson().c_str(), stdout);
    else
        plan.saveFile(a.out);
    return 0;
}

int
cmdServe(const Args &a)
{
    if (a.socket.empty() == (a.port == 0))
        usageError("serve needs exactly one of --socket PATH or "
                   "--port N");
    ServeOptions opts;
    opts.socketPath = a.socket;
    opts.port = a.port;
    opts.storeDir = a.store;
    opts.jobs = a.jobs;
    opts.maxQueue = a.maxQueue;
    opts.requestTimeoutSec = a.requestTimeout;
    opts.idleTimeoutSec = a.idleTimeout;
    return runServe(opts);
}

int
cmdSubmit(const Args &a)
{
    const std::string op = a.positional.empty() ? "run" : a.positional[0];
    if (!a.positional.empty() && op != "stats" && op != "shutdown")
        usageError("unknown submit action '%s' (a plan via --plan, "
                   "or 'stats'/'shutdown')",
                   op.c_str());
    if (a.socket.empty() == (a.port == 0))
        usageError("submit needs exactly one of --socket PATH or "
                   "--port N");
    if (op == "run" && a.plan.empty())
        usageError("submit needs --plan FILE (or the 'stats'/"
                   "'shutdown' action)");
    SubmitOptions opts;
    opts.socketPath = a.socket;
    opts.port = a.port;
    opts.planPath = a.plan;
    opts.op = op;
    return runSubmit(opts);
}

int
cmdCache(const Args &a)
{
    if (a.positional.empty() || a.positional[0] != "scrub")
        usageError("cache wants the 'scrub' action, e.g. "
                   "'refrint_cli cache scrub --store DIR --repair'");
    if (a.store.empty())
        usageError("cache scrub needs --store DIR (the sharded store to "
                   "verify)");
    const ScrubReport rep = scrubStore(a.store, a.repair, stdout);
    std::printf("scrub: %u shard(s), %zu committed row(s), "
                "%zu unique key(s); %zu torn record(s), %zu corrupt "
                "line(s), %zu duplicate(s)%s\n",
                rep.shardsScanned, rep.committed, rep.uniqueKeys,
                rep.torn, rep.corrupt, rep.duplicates,
                a.repair ? "" : " (use --repair to quarantine "
                                "and rebuild)");
    if (a.repair && (rep.quarantined > 0 || rep.compacted > 0))
        std::printf("scrub: quarantined %zu bad line(s) to "
                    "shard-NNN.bad, compacted %zu superseded "
                    "row(s)\n",
                    rep.quarantined, rep.compacted);
    // Exit 1 on unrepaired damage so scripts can gate on it.
    return rep.clean() || a.repair ? 0 : 1;
}

int
cmdValidate(const Args &a)
{
    if (a.store.empty())
        usageError("validate needs --store DIR (the corpus to check)");
    ValidateOptions opts;
    opts.storeDir = a.store;
    opts.jsonOut = a.out;
    opts.verbose = a.verbose;
    return runValidate(opts);
}

int
cmdTraceRecord(const Args &a)
{
    if (a.out.empty())
        usageError("trace-record needs --out FILE");
    const Workload *app = knownWorkload(a.app());
    if (app == nullptr)
        return 1;
    const Trace t = recordTrace(*app, a.cores, a.refs, a.seed);
    if (!saveTrace(t, a.out))
        return 1;
    std::printf("recorded %llu refs (%u cores) from %s to %s\n",
                static_cast<unsigned long long>(t.totalRefs()),
                t.numCores(), app->name(), a.out.c_str());
    return 0;
}

int
cmdTraceRun(const Args &a)
{
    if (a.in.empty())
        usageError("trace-run needs --in FILE (from 'trace-record')");
    const MachineConfig cfg = machineFor(a);
    TraceWorkload app(loadTrace(a.in), a.in);
    printRun(app, cfg, a);
    return 0;
}

int
cmdList(const Args &)
{
    std::printf("applications (Table 5.3 / binning of Table 6.1):\n");
    for (const Workload *w : paperWorkloads())
        std::printf("  %-14s class %d\n", w->name(), w->paperClass());
    std::printf("policies (Table 5.4): ");
    for (const RefreshPolicy &p : paperPolicySweep())
        std::printf("%s ", p.name().c_str());
    std::printf("\n  plus the SmartRefresh comparator: S.valid, "
                "S.WB(n,m), ...\n");
    std::printf("retentions: 50, 100, 200 (us)\n");
    std::printf("ambients (thermal-study / run --ambient): deg C, "
                "default 45,65,85\n");
    std::printf("machines: --cores 4..64 (square torus derived), "
                "--hybrid (SRAM L1/L2 + eDRAM L3)\n");
    std::printf("validation: 'validate --store DIR' checks a sweep "
                "corpus against the model\n"
                "  invariants and the analytic predictor (see 'help "
                "validate')\n");
    std::printf("\n%s", workloadRegistry().describe(true).c_str());
    return 0;
}

int
cmdHelp(const Args &a)
{
    if (a.positional.empty()) {
        printCommandIndex(stdout);
        return 0;
    }
    const Command *c = findCommand(a.positional[0]);
    if (c == nullptr) {
        std::fprintf(stderr, "unknown command '%s'\n",
                     a.positional[0].c_str());
        printCommandIndex(stderr);
        return 2;
    }
    printCommandHelp(*c, stdout);
    return 0;
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

const Command kCommands[] = {
    {"run", "one simulation, normalized against the SRAM baseline",
     "--app --policy --retention --refs --seed --cores --hybrid --sram "
     "--alt --decay --ambient",
     0, "usage: refrint_cli run [options]\n", cmdRun},
    {"sweep", "the paper's Table 5.4 sweep (473 runs at full size)",
     "--plan --app... --refs --cores --hybrid --alt --jsonl --csv "
     "--progress --store --sync --jobs",
     0, "usage: refrint_cli sweep [options]\n",
     [](const Args &a) { return cmdSweepOrFigures(a, false); }},
    {"figures", "Figs. 6.1-6.4 + the headline table",
     "--plan --app... --refs --cores --hybrid --alt --jsonl --csv "
     "--progress --store --sync --jobs",
     0, "usage: refrint_cli figures [options]\n",
     [](const Args &a) { return cmdSweepOrFigures(a, true); }},
    {"thermal-study", "sweep the ambient-temperature scenario axis",
     "--plan --app --retention --ambients --refs --seed --cores --hybrid "
     "--jsonl --csv --progress --store --sync --jobs",
     0, "usage: refrint_cli thermal-study [options]\n", cmdThermalStudy},
    {"binning", "Table 6.1 application classification", "", 0,
     "usage: refrint_cli binning\n", cmdBinning},
    {"plan", "dump experiment plans as shareable JSON files",
     "--out --app... --retention --ambients --refs --seed --cores "
     "--hybrid",
     2,
     "usage: refrint_cli plan dump [sweep|figures|thermal-study] "
     "[options]\n"
     "\nEach kind takes --out and the grid flags of the command it\n"
     "names.  A dumped plan replays with 'sweep --plan FILE' and\n"
     "produces rows byte-identical to the grid it was dumped from.\n",
     cmdPlan},
    {"serve", "long-running experiment service on a socket",
     "--socket --port --store --jobs --max-queue --request-timeout "
     "--idle-timeout",
     0,
     "usage: refrint_cli serve (--socket PATH | --port N) [options]\n"
     "\nRequests are newline-delimited JSON: a plan document runs it\n"
     "(rows + a {\"done\":...} summary with warm/cold counts, queue\n"
     "depth and per-scenario latency); {\"op\":\"stats\"} reports\n"
     "service counters; {\"op\":\"shutdown\"} stops the server.\n"
     "SIGTERM drains gracefully: stop accepting, finish queued\n"
     "connections, flush the store, exit 0.\n",
     cmdServe},
    {"submit", "send one request to a running 'serve'",
     "--socket --port --plan", 1,
     "usage: refrint_cli submit (--socket PATH | --port N)\n"
     "                          (--plan FILE | stats | shutdown)\n"
     "\nA plan's response rows stream to stdout; 'stats' prints the\n"
     "service counters, 'shutdown' stops the server.  Retries the\n"
     "connect for ~2s, so 'serve &' then 'submit' works without\n"
     "sleeps.  Exits 1 when the server answers an error.\n",
     cmdSubmit},
    {"cache", "scrub & repair a sharded store", "--store --repair", 1,
     "usage: refrint_cli cache scrub --store DIR [--repair]\n"
     "\nScrub verifies every record's checksum, tells records a crash\n"
     "cut short from corrupt lines, and exits 1 on unrepaired\n"
     "damage.\n",
     cmdCache},
    {"validate", "check a result corpus against the model invariants",
     "--store --out --verbose", 0,
     "usage: refrint_cli validate --store DIR [options]\n"
     "\nChecks every row of the corpus against row-local invariants\n"
     "(finite fields, the energy decomposition identity, latency\n"
     "ladders, the refresh ceiling, the alternate backend's\n"
     "envelope), the analytic predictor's envelope, and cross-row\n"
     "invariants (P.all refresh dominance, All >= Valid >= Dirty,\n"
     "energy monotone in retention).  Exit codes: 0 clean, 1\n"
     "violations or an unreadable corpus, 2 usage error.\n",
     cmdValidate},
    {"trace-record", "record a workload's reference stream to a file",
     "--app --out --refs --seed --cores", 0,
     "usage: refrint_cli trace-record --out FILE [options]\n",
     cmdTraceRecord},
    {"trace-run", "simulate a recorded trace",
     "--in --policy --retention --refs --seed --cores --hybrid --sram "
     "--alt --decay --ambient",
     0, "usage: refrint_cli trace-run --in FILE [options]\n", cmdTraceRun},
    {"list", "list applications, policies and axes", "", 0,
     "usage: refrint_cli list\n", cmdList},
    {"help", "show this index, or one command in detail", "", 1,
     "usage: refrint_cli help [command]\n", cmdHelp},
};

const Command *
findCommand(const std::string &name)
{
    for (const Command &c : kCommands)
        if (name == c.name)
            return &c;
    return nullptr;
}

void
printCommandIndex(std::FILE *out)
{
    std::fprintf(out, "usage: refrint_cli <command> [options]\n\n"
                      "commands:\n");
    for (const Command &c : kCommands)
        std::fprintf(out, "  %-14s %s\n", c.name, c.summary);
    std::fprintf(out, "\nsee 'refrint_cli help <command>' for options "
                      "and examples.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        printCommandIndex(stderr);
        return 2;
    }
    const Command *cmd = findCommand(argv[1]);
    if (cmd == nullptr) {
        std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
        printCommandIndex(stderr);
        return 2;
    }
    gActive = cmd;
    return cmd->run(parseArgs(*cmd, argc, argv));
}
