/**
 * @file
 * refrint_cli — command-line front end for the Refrint simulator.
 *
 * Every subcommand is a thin plan-builder over the experiment API
 * (src/api/): it assembles an ExperimentPlan, picks the result sinks,
 * and hands both to a Session.  `refrint_cli help` lists the
 * subcommands, `refrint_cli help <cmd>` shows one in detail.
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
#include <vector>

#include <unistd.h>

#include "api/experiment_plan.hh"
#include "api/result_sink.hh"
#include "api/session.hh"
#include "common/env.hh"
#include "edram/retention.hh"
#include "harness/binning.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "service/coordinator.hh"
#include "service/serve.hh"
#include "service/store.hh"
#include "service/worker.hh"
#include "trace/trace.hh"
#include "validate/validate.hh"
#include "workload/method.hh"
#include "workload/workload.hh"

namespace
{

using namespace refrint;

struct Args
{
    std::string app = "fft";

    /** Every --app given, in order: sweep/figures use the full list to
     *  replace the paper-app axis (single-app commands use .app). */
    std::vector<std::string> apps;
    std::string policy = "R.WB(32,32)";
    double retentionUs = 50.0;
    std::uint64_t refs = 120'000;
    std::uint64_t seed = 1;
    std::uint32_t cores = 16; ///< machine scale (4..64)
    bool hybrid = false;      ///< SRAM L1/L2 over the eDRAM LLC
    unsigned jobs = 0; ///< sweep workers; 0 = $REFRINT_JOBS or serial
    bool sram = false;
    bool alt = false;  ///< run the alternate energy backend alongside
    bool verbose = false; ///< validate: list every finding
    bool progress = false; ///< per-run progress ticker on stderr
    double decayUs = 0.0;
    double ambientC = 0.0; ///< 0 = thermal subsystem off
    std::string ambients = "45,65,85"; ///< thermal-study axis
    std::string store; ///< sharded result store dir; "" = persist nothing
    std::string plan;  ///< JSON plan file replacing the built-in grid
    std::string jsonl; ///< JSON Lines result sink ("-" = stdout)
    std::string csv;   ///< CSV result sink ("-" = stdout)
    std::string in, out;
    unsigned workers = 0;   ///< sweep: shard the plan across N workers
    unsigned retries = 1;   ///< sweep --workers: extra attempts/range
    double workerTimeout = 0; ///< sweep --workers: no-progress deadline
    bool sync = false;      ///< --store: fdatasync every append
    bool repair = false;    ///< cache scrub: quarantine + rebuild
    std::string range;      ///< worker: scenario index range "A:B"
    std::string socket;     ///< serve/submit: unix socket path
    unsigned port = 0;      ///< serve/submit: TCP port on 127.0.0.1
    unsigned maxQueue = 16; ///< serve: pending-connection bound
    double requestTimeout = 0; ///< serve: per-plan wall deadline
    double idleTimeout = 0;    ///< serve: silent-client read timeout

    /** Non-flag tokens, e.g. the "dump" in `plan dump`. */
    std::vector<std::string> positional;

    /** Grid-shaping flags actually given on the command line; a plan
     *  file replaces the built-in grid, so combining them with --plan
     *  is a usage error rather than a silent ignore. */
    std::vector<std::string> gridFlags;
};

struct Command
{
    const char *name;
    const char *summary; ///< one line for the command index
    const char *usage;   ///< synopsis + options for `help <cmd>`
    int (*run)(const Args &);
    bool runsPlans = false; ///< accepts the shared sink/store flags
    bool usesPlan = false;  ///< accepts --plan without the sink flags
                            ///< (worker, submit)
    bool opensStore = false; ///< accepts --store without the sink
                             ///< flags (worker, serve, cache,
                             ///< validate)
};

/** Flags shared by every plan-running command. */
const char kCommonSinkHelp[] =
    "\nshared sink/store options:\n"
    "  --jsonl FILE     stream one JSON object per run; \"-\" streams\n"
    "                   to stdout and replaces the default report\n"
    "  --csv FILE       stream one CSV row per run (\"-\" as above)\n"
    "  --progress       per-run progress ticker on stderr\n"
    "  --store DIR      persist results in this sharded store (crash-\n"
    "                   and multi-process-safe; a rerun is warm);\n"
    "                   without it nothing is persisted\n"
    "  --sync           fdatasync every store append (power-loss\n"
    "                   durability per row; needs --store)\n"
    "  --jobs N         worker threads (default $REFRINT_JOBS or 1)\n";

void
printCommandHelp(const Command &c, std::FILE *out)
{
    std::fputs(c.usage, out);
    if (c.runsPlans)
        std::fputs(kCommonSinkHelp, out);
}

const Command *commandIndex();       // forward (table below)
const Command *findCommand(const std::string &name);
std::size_t commandCount();

/** The command being parsed/executed, for pointed usage errors. */
const Command *gActive = nullptr;

void
printCommandIndex(std::FILE *out)
{
    std::fprintf(out, "usage: refrint_cli <command> [options]\n\n"
                      "commands:\n");
    const Command *cmds = commandIndex();
    for (std::size_t i = 0; i < commandCount(); ++i)
        std::fprintf(out, "  %-14s %s\n", cmds[i].name, cmds[i].summary);
    std::fprintf(out, "\nsee 'refrint_cli help <command>' for options "
                      "and examples.\n");
}

/** Report a usage error for the active command and exit 2. */
[[noreturn]] void
usageError(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
    if (gActive != nullptr) {
        std::fputc('\n', stderr);
        printCommandHelp(*gActive, stderr);
    } else {
        printCommandIndex(stderr);
    }
    std::exit(2);
}

/** Strict decimal integer argument, or exit with a pointed message. */
std::uint64_t
argU64(const char *flag, const char *v)
{
    std::uint64_t out = 0;
    if (!parseU64Strict(v, out))
        usageError("%s wants a plain decimal integer, got '%s'", flag,
                   v);
    return out;
}

/** Strict finite floating-point argument, or exit with a message. */
double
argF64(const char *flag, const char *v)
{
    double out = 0;
    if (!parseF64Strict(v, out))
        usageError("%s wants a finite number, got '%s'", flag, v);
    return out;
}

Args
parseArgs(int argc, char **argv, int first)
{
    Args a;
    for (int i = first; i < argc; ++i) {
        const std::string k = argv[i];
        auto val = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError("%s needs a value", k.c_str());
            return argv[++i];
        };
        if (!k.empty() && k[0] != '-') {
            a.positional.push_back(k);
            continue;
        }
        if (k == "--app" || k == "--retention" || k == "--refs" ||
            k == "--seed" || k == "--cores" || k == "--hybrid" ||
            k == "--ambients")
            a.gridFlags.push_back(k);
        // The plan, sink and store flags mean something only to the
        // commands that use them; anywhere else they would be silently
        // ignored.
        if (k == "--plan" && (gActive == nullptr ||
                              !(gActive->runsPlans || gActive->usesPlan)))
            usageError("%s applies only to the commands that run or "
                       "ship plans (sweep, figures, thermal-study, "
                       "worker, submit)",
                       k.c_str());
        if ((k == "--jsonl" || k == "--csv" || k == "--progress") &&
            (gActive == nullptr || !gActive->runsPlans))
            usageError("%s applies only to the plan-running commands "
                       "(sweep, figures, thermal-study)",
                       k.c_str());
        if (k == "--store" &&
            (gActive == nullptr ||
             !(gActive->runsPlans || gActive->opensStore)))
            usageError("--store applies only to the commands that open "
                       "a result store (sweep, figures, thermal-study, "
                       "worker, serve, cache, validate)");
        if (k == "--sync" && (gActive == nullptr || !gActive->runsPlans))
            usageError("--sync applies only to the plan-running commands "
                       "(sweep, figures, thermal-study)");
        if (k == "--app") {
            a.app = val();
            a.apps.push_back(a.app);
        }
        else if (k == "--policy")
            a.policy = val();
        else if (k == "--retention") {
            a.retentionUs = argF64("--retention", val());
            if (a.retentionUs <= 0)
                usageError("--retention must be positive");
        }
        else if (k == "--refs")
            a.refs = argU64("--refs", val());
        else if (k == "--seed")
            a.seed = argU64("--seed", val());
        else if (k == "--jobs") {
            const std::uint64_t n = argU64("--jobs", val());
            if (n == 0 || n > 4096)
                usageError("--jobs wants an integer in [1, 4096]");
            a.jobs = static_cast<unsigned>(n);
        }
        else if (k == "--cores") {
            const std::uint64_t n = argU64("--cores", val());
            if (n < 4 || n > 64)
                usageError("--cores wants an integer in [4, 64]");
            a.cores = static_cast<std::uint32_t>(n);
        }
        else if (k == "--hybrid")
            a.hybrid = true;
        else if (k == "--sram")
            a.sram = true;
        else if (k == "--alt")
            a.alt = true;
        else if (k == "--verbose")
            a.verbose = true;
        else if (k == "--progress")
            a.progress = true;
        else if (k == "--decay")
            a.decayUs = argF64("--decay", val());
        else if (k == "--ambient") {
            a.ambientC = argF64("--ambient", val());
            if (a.ambientC <= 0)
                usageError("--ambient wants a temperature in deg C "
                           "(> 0)");
            const ThermalResponse resp{};
            if (a.ambientC < resp.minAmbientC() ||
                a.ambientC > resp.maxAmbientC())
                usageError("--ambient %g is outside the thermal "
                           "response's resolvable range [%g, %g] deg C",
                           a.ambientC, resp.minAmbientC(),
                           resp.maxAmbientC());
        }
        else if (k == "--ambients")
            a.ambients = val();
        else if (k == "--store")
            a.store = val();
        else if (k == "--workers") {
            const std::uint64_t n = argU64("--workers", val());
            if (n == 0 || n > 256)
                usageError("--workers wants an integer in [1, 256]");
            a.workers = static_cast<unsigned>(n);
        }
        else if (k == "--retries") {
            const std::uint64_t n = argU64("--retries", val());
            if (n > 100)
                usageError("--retries wants an integer in [0, 100]");
            a.retries = static_cast<unsigned>(n);
        }
        else if (k == "--worker-timeout") {
            a.workerTimeout = argF64("--worker-timeout", val());
            if (a.workerTimeout <= 0)
                usageError("--worker-timeout wants seconds > 0");
        }
        else if (k == "--sync")
            a.sync = true;
        else if (k == "--repair")
            a.repair = true;
        else if (k == "--max-queue") {
            const std::uint64_t n = argU64("--max-queue", val());
            if (n == 0 || n > 4096)
                usageError("--max-queue wants an integer in [1, 4096]");
            a.maxQueue = static_cast<unsigned>(n);
        }
        else if (k == "--request-timeout") {
            a.requestTimeout = argF64("--request-timeout", val());
            if (a.requestTimeout <= 0)
                usageError("--request-timeout wants seconds > 0");
        }
        else if (k == "--idle-timeout") {
            a.idleTimeout = argF64("--idle-timeout", val());
            if (a.idleTimeout <= 0)
                usageError("--idle-timeout wants seconds > 0");
        }
        else if (k == "--range")
            a.range = val();
        else if (k == "--socket")
            a.socket = val();
        else if (k == "--port") {
            const std::uint64_t n = argU64("--port", val());
            if (n == 0 || n > 65535)
                usageError("--port wants an integer in [1, 65535]");
            a.port = static_cast<unsigned>(n);
        }
        else if (k == "--plan")
            a.plan = val();
        else if (k == "--jsonl")
            a.jsonl = val();
        else if (k == "--csv")
            a.csv = val();
        else if (k == "--in")
            a.in = val();
        else if (k == "--out")
            a.out = val();
        else
            usageError("unknown option '%s'", k.c_str());
    }
    if (a.sram && a.hybrid)
        usageError("--hybrid builds SRAM L1/L2 over an eDRAM LLC; "
                   "drop --sram");
    if (a.sram && a.ambientC > 0.0)
        usageError("--ambient needs an eDRAM machine; drop --sram "
                   "(SRAM retention is unlimited)");
    if (a.decayUs > 0.0 && a.ambientC > 0.0)
        usageError("--decay (SRAM cache-decay comparator) and "
                   "--ambient (eDRAM thermal) are mutually exclusive");
    return a;
}

/** Parse the --ambients comma list into strictly valid temperatures. */
std::vector<double>
parseAmbients(const std::string &list)
{
    std::vector<double> out;
    std::string tok;
    std::stringstream ss(list);
    const ThermalResponse resp{};
    while (std::getline(ss, tok, ',')) {
        double v = 0;
        if (!parseF64Strict(tok.c_str(), v) || v <= 0)
            usageError("--ambients wants positive deg C values, got "
                       "'%s'",
                       tok.c_str());
        if (v < resp.minAmbientC() || v > resp.maxAmbientC())
            usageError("--ambients value %g is outside the thermal "
                       "response's resolvable range [%g, %g] deg C",
                       v, resp.minAmbientC(), resp.maxAmbientC());
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

/** A plan file replaces the built-in grid; reject grid flags that
 *  would otherwise be silently ignored. */
void
rejectGridFlagsWithPlan(const Args &a)
{
    if (!a.plan.empty() && !a.gridFlags.empty())
        usageError("--plan replaces the built-in grid; drop %s (the "
                   "plan file already fixes it)",
                   a.gridFlags.front().c_str());
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
    if (a.cores != 16 || a.hybrid) {
        spec.machines = {MachineAxis{a.cores, a.hybrid}};
        if (announceMachine)
            std::printf("machine: %u cores (%s)\n", a.cores,
                        a.hybrid ? "hybrid SRAM L1/L2 + eDRAM LLC"
                                 : "uniform tech");
    }
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
    std::vector<MachineAxis> machines;
    if (a.cores != 16 || a.hybrid)
        machines = {MachineAxis{a.cores, a.hybrid}};
    return ExperimentPlan::thermalStudy(a.app, a.retentionUs,
                                        parseAmbients(a.ambients), sim,
                                        machines);
}

// ---------------------------------------------------------------------
// run / trace-run share the single-run printer.
// ---------------------------------------------------------------------

MachineConfig
machineFor(const Args &a)
{
    if (a.sram && a.decayUs > 0.0)
        return MachineConfig::paperSramDecay(usToTicks(a.decayUs),
                                             a.cores);
    if (a.sram)
        return MachineConfig::paperSram(a.cores);
    MachineConfig cfg =
        a.hybrid ? MachineConfig::paperHybrid(parsePolicy(a.policy),
                                              usToTicks(a.retentionUs),
                                              a.cores)
                 : MachineConfig::paperEdram(parsePolicy(a.policy),
                                             usToTicks(a.retentionUs),
                                             a.cores);
    if (a.ambientC > 0.0) {
        cfg.thermal.enabled = true;
        cfg.thermal.ambientC = a.ambientC;
    }
    return cfg;
}

void
printRun(const Workload &app, const Args &a)
{
    SimParams sim;
    sim.refsPerCore = a.refs;
    sim.seed = a.seed;
    EnergyParams energy = EnergyParams::calibrated();
    if (a.alt)
        energy.altModel = 1;

    const RunResult base =
        runOnce(MachineConfig::paperSram(a.cores), app, sim, energy);
    const MachineConfig cfg = machineFor(a);
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

/** Most commands take no positional argument — reject strays early. */
void
rejectPositionals(const Args &a)
{
    if (!a.positional.empty())
        usageError("unexpected argument '%s'",
                   a.positional.front().c_str());
}

int
cmdRun(const Args &a)
{
    rejectPositionals(a);
    const Workload *app = findWorkload(a.app);
    if (app == nullptr) {
        std::fprintf(stderr,
                     "unknown application '%s' (try 'list')\n%s",
                     a.app.c_str(),
                     workloadRegistry().describe().c_str());
        return 1;
    }
    printRun(*app, a);
    return 0;
}

/** sweep --workers N: shard the plan across worker subprocesses and
 *  merge their row streams (service/coordinator.hh). */
int
sweepWithWorkers(const Args &a)
{
    if (a.jsonl.empty())
        usageError("sweep --workers streams merged rows only; add "
                   "--jsonl FILE (or --jsonl -)");
    if (!a.csv.empty() || a.progress)
        usageError("sweep --workers supports only the --jsonl sink");
    if (a.sync)
        usageError("--sync applies only to a single-process sweep; its "
                   "workers append without it");

    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0) {
        std::fprintf(stderr,
                     "cannot resolve the worker binary path\n");
        return 1;
    }
    exe[n] = '\0';

    // Workers load the plan from a file; write the built-in grid out
    // when no --plan was given.
    std::string planPath = a.plan;
    std::string tempPlan;
    if (planPath.empty()) {
        const ExperimentPlan plan = sweepPlanFor(a, false);
        char tpl[] = "/tmp/refrint-plan-XXXXXX";
        const int fd = ::mkstemp(tpl);
        if (fd < 0) {
            std::fprintf(stderr, "cannot create temp plan file\n");
            return 1;
        }
        ::close(fd);
        tempPlan = tpl;
        plan.saveFile(tempPlan);
        planPath = tempPlan;
    }

    CoordinatorOptions opts;
    opts.planPath = planPath;
    opts.storeDir = a.store;
    opts.workers = a.workers;
    opts.workerBin = exe;
    opts.retries = a.retries;
    opts.workerTimeoutSec = a.workerTimeout;
    SinkSet files; // reuse the sink-file plumbing for the merged stream
    opts.out = openSinkFile(files, a.jsonl);
    int rc = 1;
    if (opts.out != nullptr)
        rc = runCoordinator(opts);
    if (!tempPlan.empty())
        ::unlink(tempPlan.c_str());
    return rc;
}

int
cmdSweepOrFigures(const Args &a, bool figures)
{
    rejectPositionals(a);
    rejectGridFlagsWithPlan(a);
    if (a.workers > 0) {
        if (figures)
            usageError("--workers applies to sweep; figures renders "
                       "its report in one process");
        return sweepWithWorkers(a);
    }
    const bool quiet = stdoutIsMachineReadable(a);
    ExperimentPlan plan =
        !a.plan.empty() ? ExperimentPlan::loadFile(a.plan)
                        : sweepPlanFor(a, /*announceMachine=*/!quiet);
    // --alt runs the second-opinion energy backend alongside the
    // primary; its rows are keyed separately (|en= tag), never
    // aliasing the default corpus.
    if (a.alt)
        plan.energy.altModel = 1;
    SinkSet sinks;
    if (!attachCommonSinks(a, sinks))
        return 1;
    if (!quiet) {
        if (figures)
            sinks.add(std::make_unique<FiguresSink>());
        sinks.add(std::make_unique<HeadlineSink>());
        // These print nothing unless the plan held request-serving
        // runs / the alternate backend, so the default sweep output
        // stays byte-identical.
        sinks.add(std::make_unique<LatencySink>());
        sinks.add(std::make_unique<DisagreementSink>());
    }
    sessionFor(a)->run(plan, sinks.ptrs);
    return 0;
}

int
cmdSweep(const Args &a)
{
    return cmdSweepOrFigures(a, false);
}

int
cmdFigures(const Args &a)
{
    return cmdSweepOrFigures(a, true);
}

int
cmdThermalStudy(const Args &a)
{
    rejectPositionals(a);
    rejectGridFlagsWithPlan(a);
    const bool quiet = stdoutIsMachineReadable(a);
    // The table header names the studied app/retention: from the flags
    // for the built-in plan, from the plan's own measured scenarios
    // when one is replayed.
    std::string app = a.app;
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
        if (findWorkload(a.app) == nullptr) {
            std::fprintf(stderr,
                         "unknown application '%s' (try 'list')\n%s",
                         a.app.c_str(),
                         workloadRegistry().describe().c_str());
            return 1;
        }
        plan = thermalPlanFor(a);
    }
    SinkSet sinks;
    if (!attachCommonSinks(a, sinks))
        return 1;
    if (!quiet)
        sinks.add(std::make_unique<ThermalStudySink>(app, retentionUs));
    sessionFor(a)->run(plan, sinks.ptrs);
    return 0;
}

int
cmdBinning(const Args &a)
{
    rejectPositionals(a);
    BinningSink sink;
    std::vector<ResultSink *> sinks{&sink};
    // The binning plan simulates nothing; it needs no result store.
    Session session(nullptr, 0);
    session.run(ExperimentPlan::binning(), sinks);
    return 0;
}

int
cmdPlan(const Args &a)
{
    if (a.positional.empty() || a.positional[0] != "dump")
        usageError("plan wants the 'dump' action, e.g. "
                   "'refrint_cli plan dump --out plan.json'");
    const std::string what =
        a.positional.size() > 1 ? a.positional[1] : "sweep";
    if (a.positional.size() > 2)
        usageError("unexpected argument '%s'",
                   a.positional[2].c_str());

    ExperimentPlan plan;
    if (what == "sweep" || what == "figures") {
        plan = sweepPlanFor(a, false);
        if (what == "figures")
            plan.name = "figures";
    } else if (what == "thermal-study") {
        plan = thermalPlanFor(a);
    } else if (what == "binning") {
        plan = ExperimentPlan::binning();
    } else {
        usageError("unknown plan '%s' (sweep, figures, thermal-study, "
                   "binning)",
                   what.c_str());
    }

    if (a.out.empty())
        std::fputs(plan.toJson().c_str(), stdout);
    else
        plan.saveFile(a.out);
    return 0;
}

int
cmdWorker(const Args &a)
{
    rejectPositionals(a);
    if (a.plan.empty())
        usageError("worker needs --plan FILE");
    const auto colon = a.range.find(':');
    std::uint64_t begin = 0, end = 0;
    if (a.range.empty() || colon == std::string::npos ||
        !parseU64Strict(a.range.substr(0, colon).c_str(), begin) ||
        !parseU64Strict(a.range.substr(colon + 1).c_str(), end) ||
        begin >= end)
        usageError("worker needs --range A:B with A < B (scenario "
                   "indices into the plan)");

    WorkerRangeOptions opts;
    opts.planPath = a.plan;
    opts.begin = static_cast<std::size_t>(begin);
    opts.end = static_cast<std::size_t>(end);
    opts.storeDir = a.store;
    opts.jobs = a.jobs == 0 ? 1 : a.jobs;
    return runWorkerRange(opts);
}

int
cmdServe(const Args &a)
{
    rejectPositionals(a);
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
    std::string op = "run";
    if (!a.positional.empty()) {
        op = a.positional[0];
        if (a.positional.size() > 1)
            usageError("unexpected argument '%s'",
                       a.positional[1].c_str());
        if (op != "stats" && op != "shutdown")
            usageError("unknown submit action '%s' (a plan via --plan, "
                       "or 'stats'/'shutdown')",
                       op.c_str());
    }
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
    if (a.positional.empty() ||
        (a.positional[0] != "migrate" && a.positional[0] != "scrub"))
        usageError("cache wants the 'migrate' or 'scrub' action, e.g. "
                   "'refrint_cli cache scrub --store DIR --repair'");
    if (a.positional.size() > 1)
        usageError("unexpected argument '%s'",
                   a.positional[1].c_str());
    const std::string action = a.positional[0];
    if (a.store.empty())
        usageError("cache %s needs --store DIR (the sharded store to "
                   "%s)",
                   action.c_str(),
                   action == "migrate" ? "import into" : "verify");

    if (action == "scrub") {
        const ScrubReport rep = scrubStore(a.store, a.repair, stdout);
        std::printf("scrub: %u shard(s), %zu committed row(s), "
                    "%zu unique key(s); %zu torn tail(s), %zu mid-file "
                    "corruption(s), %zu duplicate(s)%s\n",
                    rep.shardsScanned, rep.committed, rep.uniqueKeys,
                    rep.tornTail, rep.midFile, rep.duplicates,
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

    if (a.in.empty())
        usageError("cache migrate needs --in FILE (the legacy CSV cache "
                   "to import)");
    const std::size_t n = migrateLegacyCache(a.in, a.store);
    const ShardedStore store(a.store);
    std::printf("migrated %zu row(s) from %s into %s (%u shards, "
                "%zu rows total)\n",
                n, a.in.c_str(), a.store.c_str(), store.shards(),
                store.rowCount());
    return 0;
}

int
cmdValidate(const Args &a)
{
    rejectPositionals(a);
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
    rejectPositionals(a);
    const Workload *app = findWorkload(a.app);
    if (app == nullptr || a.out.empty()) {
        std::fprintf(stderr, "trace-record needs --app and --out\n");
        return 1;
    }
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
    rejectPositionals(a);
    if (a.in.empty()) {
        std::fprintf(stderr, "trace-run needs --in\n");
        return 1;
    }
    TraceWorkload app(loadTrace(a.in), a.in);
    printRun(app, a);
    return 0;
}

int
cmdList(const Args &a)
{
    rejectPositionals(a);
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
     "usage: refrint_cli run [options]\n"
     "  --app SPEC       workload name or method spec, e.g.\n"
     "                   'serve:rps=2e6,ws=64k' (default fft)\n"
     "  --policy P       refresh policy (default R.WB(32,32))\n"
     "  --retention US   eDRAM retention in us (default 50)\n"
     "  --refs N         references per core (default 120000)\n"
     "  --seed S         PRNG seed (default 1)\n"
     "  --sram           run the all-SRAM machine\n"
     "  --decay US       SRAM cache-decay comparator interval\n"
     "  --ambient C      enable the thermal subsystem at C deg C\n"
     "  --cores N        scale the machine to N cores (4..64)\n"
     "  --hybrid         SRAM L1/L2 over the eDRAM LLC\n"
     "  --alt            also compute the alternate energy backend\n"
     "                   and print the cross-model disagreement\n",
     cmdRun},
    {"sweep", "the paper's Table 5.4 sweep (473 runs at full size)",
     "usage: refrint_cli sweep [options]\n"
     "  --plan FILE      run a JSON experiment plan instead of the\n"
     "                   built-in grid (see 'plan dump')\n"
     "  --app SPEC       replace the paper-app axis (repeatable);\n"
     "                   SPEC is a name or method spec, e.g.\n"
     "                   'agg:tables=part,skew=0.8' (see 'list')\n"
     "  --refs N         references per core (default 120000)\n"
     "  --cores N        machine scale (4..64; rows machine-keyed)\n"
     "  --hybrid         SRAM L1/L2 over the eDRAM LLC\n"
     "  --alt            run the alternate energy backend alongside\n"
     "                   the primary (rows keyed separately via the\n"
     "                   plan's energy tag; adds the disagreement\n"
     "                   table to the report)\n"
     "  --workers N      shard the plan across N worker subprocesses\n"
     "                   (needs --jsonl; merged rows are byte-identical\n"
     "                   to a single-process --jobs 1 run)\n"
     "  --retries N      extra attempts per range after a worker\n"
     "                   crash/hang, with salvage of its flushed rows\n"
     "                   and capped exponential backoff (default 1)\n"
     "  --worker-timeout SEC   kill a worker whose row stream stops\n"
     "                   growing for SEC seconds (progress deadline;\n"
     "                   default off)\n",
     cmdSweep, /*runsPlans=*/true},
    {"figures", "Figs. 6.1-6.4 + the headline table",
     "usage: refrint_cli figures [options]\n"
     "  --plan FILE      run a JSON experiment plan instead of the\n"
     "                   built-in grid\n"
     "  --refs N         references per core (default 120000)\n"
     "  --cores N --hybrid    as for 'sweep'\n",
     cmdFigures, /*runsPlans=*/true},
    {"thermal-study", "sweep the ambient-temperature scenario axis",
     "usage: refrint_cli thermal-study [options]\n"
     "  --app NAME       workload (default fft)\n"
     "  --retention US   nominal retention (default 50)\n"
     "  --ambients LIST  comma-separated deg C (default 45,65,85)\n"
     "  --refs N --seed S --cores N --hybrid    as for 'run'\n"
     "  --plan FILE      run a JSON experiment plan instead\n",
     cmdThermalStudy, /*runsPlans=*/true},
    {"binning", "Table 6.1 application classification",
     "usage: refrint_cli binning\n", cmdBinning},
    {"plan", "dump experiment plans as shareable JSON files",
     "usage: refrint_cli plan dump [sweep|figures|thermal-study|"
     "binning] [options]\n"
     "  --out FILE       write the plan file (default stdout)\n"
     "  (grid options --app/--refs/--cores/--hybrid, and for\n"
     "   thermal-study --retention/--ambients/--seed, shape the\n"
     "   dumped plan)\n"
     "\nA dumped plan replays with 'sweep --plan FILE' and produces\n"
     "rows byte-identical to the grid it was dumped from.\n",
     cmdPlan},
    {"worker", "run one scenario range of a plan (coordinator half)",
     "usage: refrint_cli worker --plan FILE --range A:B [options]\n"
     "  --plan FILE      the FULL experiment plan (JSON)\n"
     "  --range A:B      scenario indices to run, A inclusive to B\n"
     "                   exclusive; rows stream to stdout as JSON\n"
     "                   Lines with their global plan identity\n"
     "  --store DIR      sharded result store shared by all workers\n"
     "                   (default: none; every scenario simulates)\n"
     "  --jobs N         threads inside this worker (default 1)\n"
     "\nNormally spawned by 'sweep --workers N'; runnable by hand for\n"
     "debugging a shard.\n",
     cmdWorker, /*runsPlans=*/false, /*usesPlan=*/true,
     /*opensStore=*/true},
    {"serve", "long-running experiment service on a socket",
     "usage: refrint_cli serve (--socket PATH | --port N) [options]\n"
     "  --socket PATH    listen on a unix socket\n"
     "  --port N         listen on 127.0.0.1:N\n"
     "  --store DIR      sharded result store (answers warm scenarios\n"
     "                   without simulating; without it every request\n"
     "                   simulates)\n"
     "  --jobs N         worker threads for cold scenarios\n"
     "  --max-queue N    pending-connection bound; a full queue sheds\n"
     "                   new connections with {\"error\":\"overloaded\"}\n"
     "                   (default 16)\n"
     "  --request-timeout SEC  per-plan wall deadline; scenarios not\n"
     "                   started in time are abandoned and the\n"
     "                   response ends with an error line (default "
     "off)\n"
     "  --idle-timeout SEC     close connections whose client sends\n"
     "                   nothing for SEC seconds (default off)\n"
     "\nRequests are newline-delimited JSON: a plan document runs it\n"
     "(rows + a {\"done\":...} summary with warm/cold counts, queue\n"
     "depth and per-scenario latency); {\"op\":\"stats\"} reports\n"
     "service counters; {\"op\":\"shutdown\"} stops the server.\n"
     "SIGTERM drains gracefully: stop accepting, finish queued\n"
     "connections, flush the store, exit 0.\n",
     cmdServe, /*runsPlans=*/false, /*usesPlan=*/false,
     /*opensStore=*/true},
    {"submit", "send one request to a running 'serve'",
     "usage: refrint_cli submit (--socket PATH | --port N)\n"
     "                          (--plan FILE | stats | shutdown)\n"
     "  --plan FILE      plan to run; response rows stream to stdout\n"
     "  stats            print the service counters\n"
     "  shutdown         stop the server\n"
     "\nRetries the connect for ~2s, so 'serve &' then 'submit' works\n"
     "without sleeps.  Exits 1 when the server answers an error.\n",
     cmdSubmit, /*runsPlans=*/false, /*usesPlan=*/true},
    {"cache", "migrate into, or scrub & repair, a sharded store",
     "usage: refrint_cli cache migrate --in FILE --store DIR\n"
     "       refrint_cli cache scrub   --store DIR [--repair]\n"
     "  --store DIR      the sharded store to import into / verify\n"
     "  --in FILE        migrate: the legacy CSV cache to import\n"
     "                   (v5-v8 header); read, never modified\n"
     "  --repair         scrub: quarantine damaged lines to\n"
     "                   shard-NNN.bad and atomically rebuild each\n"
     "                   shard from its valid rows (duplicates\n"
     "                   compacted last-wins)\n"
     "\nMigrated rows are byte-identical to freshly simulated ones, so\n"
     "a follow-up 'sweep --store DIR' is all-warm.  'cache scrub'\n"
     "verifies every record's framing checksum, tells crash-torn\n"
     "tails from mid-file corruption, and exits 1 on unrepaired\n"
     "damage.\n",
     cmdCache, /*runsPlans=*/false, /*usesPlan=*/false,
     /*opensStore=*/true},
    {"validate", "check a result corpus against the model invariants",
     "usage: refrint_cli validate --store DIR [options]\n"
     "  --store DIR      sharded result store to validate (import a\n"
     "                   legacy CSV cache with 'cache migrate' first)\n"
     "  --out FILE       write a machine-readable JSON report\n"
     "  --verbose        list every finding, not just the summary\n"
     "\nStreams every row of the corpus and checks row-local\n"
     "invariants (finite fields, the energy decomposition identity,\n"
     "latency percentile ladders, the refresh ceiling, the alternate\n"
     "backend's envelope), the analytic predictor's agreement\n"
     "envelope, and cross-row invariants (P.all refresh dominance,\n"
     "All >= Valid >= Dirty refresh ordering, energy monotone along\n"
     "the retention axis).  Exit codes: 0 clean, 1 violations or an\n"
     "unreadable corpus, 2 usage error.\n",
     cmdValidate, /*runsPlans=*/false, /*usesPlan=*/false,
     /*opensStore=*/true},
    {"trace-record", "record a workload's reference stream to a file",
     "usage: refrint_cli trace-record --app NAME --out FILE\n"
     "  --refs N --seed S --cores N    recording parameters\n",
     cmdTraceRecord},
    {"trace-run", "simulate a recorded trace",
     "usage: refrint_cli trace-run --in FILE [run options]\n",
     cmdTraceRun},
    {"list", "list applications, policies and axes",
     "usage: refrint_cli list\n", cmdList},
    {"help", "show this index, or one command in detail",
     "usage: refrint_cli help [command]\n", cmdHelp},
};

const Command *
commandIndex()
{
    return kCommands;
}

std::size_t
commandCount()
{
    return sizeof(kCommands) / sizeof(kCommands[0]);
}

const Command *
findCommand(const std::string &name)
{
    for (std::size_t i = 0; i < commandCount(); ++i)
        if (name == kCommands[i].name)
            return &kCommands[i];
    return nullptr;
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
    const Args a = parseArgs(argc, argv, 2);
    return cmd->run(a);
}
