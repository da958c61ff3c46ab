/**
 * @file
 * Event-kernel and cache-probe microbenchmark, plus an optional
 * wall-time snapshot of the headline sweep.
 *
 * Measures the two inner loops everything else in the reproduction sits
 * on:
 *
 *  - events/sec: EventQueue schedule+dispatch throughput with a
 *    core-like population of self-rescheduling clients and engine-like
 *    clients that re-arm far-future deadlines, a full and a half
 *    horizon out in turn — the same mix a simulation run produces.  A
 *    second queue (events/sec mid) re-arms its engine-like clients
 *    64–255 ticks out instead, the band where sentry re-arms and miss
 *    completions land (31% of an fft R.valid run's admissions).
 *
 *  - lookups/sec: CacheArray probe throughput (lookup + LRU touch with
 *    a miss/install mix) on the paper's L3-bank geometry with set
 *    hashing enabled.
 *
 * The event kernel is measured along a cores-scaling curve (4..64
 * clients-population points); the probe benchmark at the default and
 * the 32-core machine's footprint.  Peak RSS (VmHWM) is snapshotted
 * after the kernel benches as a memory-regression tripwire.
 *
 * Usage:
 *   bench_kernel [--json PATH] [--sweep] [--check BASELINE [--tol F]]
 *
 *   --json PATH   write the snapshot as JSON (CI artifact)
 *   --sweep       also run the headline sweep (honours REFRINT_REFS /
 *                 REFRINT_APPS; shares the benches' result store in
 *                 the working directory) and record its wall time
 *   --check FILE  compare against a committed baseline JSON; exit 1 if
 *                 any throughput metric regresses more than --tol
 *                 (default 0.30) below it, if peak RSS exceeds the
 *                 baseline by more than --tol, or if 32-core dispatch
 *                 throughput falls below 80% of 16-core (the scaling
 *                 guarantee of the timing-wheel kernel)
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hh"
#include "common/prng.hh"
#include "mem/cache_array.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace refrint;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Self-rescheduling client: the kernel's common case (a core). */
struct Ticker : EventClient
{
    EventQueue *eq = nullptr;
    Tick period = 1;
    std::uint64_t fired = 0;

    void
    fire(Tick now, std::uint64_t) override
    {
        ++fired;
        eq->schedule(now + period, this, 0);
    }
};

/** Client that re-arms its deadline a full horizon out and half a
 *  horizon out in turn — the refresh-engine reschedule pattern. */
struct Rearmer : EventClient
{
    EventQueue *eq = nullptr;
    Tick horizon = 50'000;
    std::uint64_t fired = 0;

    void
    fire(Tick now, std::uint64_t) override
    {
        ++fired;
        eq->schedule(now + ((fired & 1) == 0 ? horizon / 2 : horizon),
                     this, 0);
    }
};

/** Kernel dispatch throughput over a simulation-like event mix.
 *  @p coreCount scales the client population the way MachineConfig
 *  scales the machine: N core-like tickers plus 4N engine-like
 *  rearmers (the paper machine's engine-to-core ratio).  Rearmer i
 *  re-arms @p horizon + @p horizonStep * (i % 16) ticks out, and half
 *  that every other time. */
double
benchEvents(std::uint64_t targetEvents, std::uint32_t coreCount = 16,
            Tick horizon = 20'000, Tick horizonStep = 1'000)
{
    EventQueue eq;
    std::vector<Ticker> cores(coreCount);
    std::vector<Rearmer> engines(4 * static_cast<std::size_t>(coreCount));
    for (std::size_t i = 0; i < cores.size(); ++i) {
        cores[i].eq = &eq;
        cores[i].period = 3 + static_cast<Tick>(i % 5);
        eq.schedule(1 + static_cast<Tick>(i), &cores[i], 0);
    }
    for (std::size_t i = 0; i < engines.size(); ++i) {
        engines[i].eq = &eq;
        engines[i].horizon =
            horizon + horizonStep * static_cast<Tick>(i % 16);
        eq.schedule(100 + 37 * static_cast<Tick>(i), &engines[i], 0);
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t dispatched = 0;
    while (dispatched < targetEvents && eq.step())
        ++dispatched;
    const double dt = secondsSince(t0);
    return static_cast<double>(dispatched) / dt;
}

/** Cache probe throughput on the paper's L3-bank shape.  @p coreCount
 *  scales the address footprint driven through the bank the way a
 *  larger machine does: the per-bank geometry is unchanged (banks
 *  scale with cores), but the cold tail spans a proportionally larger
 *  address range, so conflict churn grows with the machine. */
double
benchLookups(std::uint64_t targetLookups, std::uint32_t coreCount = 16)
{
    CacheGeometry geom;
    geom.sizeBytes = 512 * 1024; // one L3 bank (Table 5.1)
    geom.assoc = 8;
    geom.lineSize = 64;
    geom.latency = 4;
    geom.hashSets = true;
    CacheArray arr(geom, "bench_l3");

    const std::uint32_t coldSpan = (1u << 20) * (coreCount / 16u);

    // Address stream with cache-like locality: mostly re-touches of a
    // hot region, a tail of cold fills.
    Prng prng(0x5eed, 1);
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t done = 0;
    Tick now = 0;
    while (done < targetLookups) {
        const bool hot = (prng.next() & 7) != 0;
        const Addr a = static_cast<Addr>(
                           hot ? prng.below(8 * 1024)
                               : 8 * 1024 + prng.below(coldSpan)) *
                       64;
        ++now;
        CacheLine *l = arr.lookup(a);
        if (l != nullptr) {
            arr.touch(*l, now);
        } else {
            VictimRef v = arr.pickVictim(a);
            if (v.line->valid())
                arr.invalidate(*v.line);
            arr.install(v, a, now, Mesi::Shared);
        }
        ++done;
    }
    const double dt = secondsSince(t0);
    return static_cast<double>(done) / dt;
}

/** Peak resident set (VmHWM) in kB, or -1 where /proc is unavailable. */
double
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr);
    }
    return -1.0;
}

/** Pull "key": number out of a (flat) JSON snapshot. */
double
jsonNumber(const std::string &text, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos)
        return -1.0;
    return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace refrint;

    const char *jsonPath = nullptr;
    const char *checkPath = nullptr;
    double tolerance = 0.30;
    bool withSweep = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
            checkPath = argv[++i];
        } else if (std::strcmp(argv[i], "--tol") == 0 && i + 1 < argc) {
            if (!parseF64Strict(argv[++i], tolerance)) {
                std::fprintf(stderr, "bad --tol value '%s'\n", argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--sweep") == 0) {
            withSweep = true;
        } else {
            std::fprintf(stderr,
                         "usage: bench_kernel [--json PATH] [--sweep] "
                         "[--check BASELINE [--tol F]]\n");
            return 2;
        }
    }

    // Warm-up pass, then the measured pass (first-touch page faults and
    // frequency ramp otherwise pollute the smaller CI machines).
    // Cores-scaling curve: the same event mix at every machine scale
    // the sweep exercises — the timing-wheel kernel should hold its
    // throughput roughly flat as the client population grows.
    const std::uint32_t curveCores[] = {4, 8, 16, 32, 64};
    double curve[5] = {0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < 5; ++i) {
        benchEvents(2'000'000, curveCores[i]);
        curve[i] = benchEvents(20'000'000, curveCores[i]);
    }
    const double eventsPerSec = curve[2];   // 16c: the headline metric
    const double eventsPerSec32 = curve[3]; // 32c: the scaling gate
    // 16c, rearmers 128–248 ticks out and 64–124 every other time:
    // every engine admission lands in the wheel's 64–255-tick band.
    benchEvents(2'000'000, 16, 128, 8);
    const double eventsPerSecMid = benchEvents(20'000'000, 16, 128, 8);
    benchLookups(2'000'000);
    const double lookupsPerSec = benchLookups(20'000'000);
    benchLookups(2'000'000, 32);
    const double lookupsPerSec32 = benchLookups(20'000'000, 32);
    const double rssKb = peakRssKb();

    for (std::size_t i = 0; i < 5; ++i)
        std::printf("events/sec (%2uc): %.3e\n", curveCores[i], curve[i]);
    std::printf("events/sec (mid): %.3e\n", eventsPerSecMid);
    std::printf("lookups/sec      : %.3e\n", lookupsPerSec);
    std::printf("lookups/sec (32c): %.3e\n", lookupsPerSec32);
    std::printf("peak rss         : %.0f kB\n", rssKb);

    double sweepWall = -1.0;
    std::size_t sweepSims = 0;
    if (withSweep) {
        const auto t0 = std::chrono::steady_clock::now();
        const SweepResult s = bench::paperSweep();
        sweepWall = secondsSince(t0);
        sweepSims = s.metrics.simulated;
        std::printf("sweep wall  : %.3f s (%zu simulations, %zu rows)\n",
                    sweepWall, sweepSims, s.normalized.size());
    }

    if (jsonPath != nullptr) {
        std::ofstream out(jsonPath);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath);
            return 1;
        }
        out << "{\n"
            << "  \"bench\": \"kernel\",\n"
            << "  \"events_per_sec\": " << eventsPerSec << ",\n"
            << "  \"events_per_sec_c4\": " << curve[0] << ",\n"
            << "  \"events_per_sec_c8\": " << curve[1] << ",\n"
            << "  \"events_per_sec_c32\": " << eventsPerSec32 << ",\n"
            << "  \"events_per_sec_c64\": " << curve[4] << ",\n"
            << "  \"events_per_sec_mid\": " << eventsPerSecMid << ",\n"
            << "  \"lookups_per_sec\": " << lookupsPerSec << ",\n"
            << "  \"lookups_per_sec_c32\": " << lookupsPerSec32 << ",\n"
            << "  \"peak_rss_kb\": " << rssKb << ",\n"
            << "  \"sweep_wall_s\": " << sweepWall << ",\n"
            << "  \"sweep_simulations\": " << sweepSims << ",\n"
            << "  \"refs_per_core\": " << bench::defaultRefs() << "\n"
            << "}\n";
    }

    if (checkPath != nullptr) {
        std::ifstream in(checkPath);
        if (!in) {
            std::fprintf(stderr, "cannot read baseline %s\n", checkPath);
            return 1;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        const std::string base = ss.str();
        bool ok = true;
        struct
        {
            const char *key;
            double current;
        } checks[] = {{"events_per_sec", eventsPerSec},
                      {"events_per_sec_c4", curve[0]},
                      {"events_per_sec_c8", curve[1]},
                      {"events_per_sec_c32", eventsPerSec32},
                      {"events_per_sec_c64", curve[4]},
                      {"events_per_sec_mid", eventsPerSecMid},
                      {"lookups_per_sec", lookupsPerSec},
                      {"lookups_per_sec_c32", lookupsPerSec32}};
        for (const auto &c : checks) {
            const double want = jsonNumber(base, c.key);
            if (want <= 0)
                continue; // metric absent from the baseline
            const double floor = want * (1.0 - tolerance);
            const bool pass = c.current >= floor;
            std::printf("check %-19s %.3e vs baseline %.3e (floor "
                        "%.3e): %s\n",
                        c.key, c.current, want, floor,
                        pass ? "ok" : "REGRESSION");
            ok = ok && pass;
        }
        // Peak RSS regresses upward: gate against a ceiling instead.
        const double rssWant = jsonNumber(base, "peak_rss_kb");
        if (rssWant > 0 && rssKb > 0) {
            const double ceiling = rssWant * (1.0 + tolerance);
            const bool pass = rssKb <= ceiling;
            std::printf("check %-19s %.0f kB vs baseline %.0f kB "
                        "(ceiling %.0f kB): %s\n",
                        "peak_rss_kb", rssKb, rssWant, ceiling,
                        pass ? "ok" : "REGRESSION");
            ok = ok && pass;
        }
        // Scaling gate: the wheel kernel's dispatch cost is flat in
        // the client population, so 32-core throughput must hold at
        // least 80% of 16-core — the regression this bench exists to
        // catch (events_per_sec_c32 used to be 0.74x of 16c).
        {
            const bool pass = eventsPerSec32 >= 0.8 * eventsPerSec;
            std::printf("check %-19s c32/c16 ratio %.2f (floor 0.80): "
                        "%s\n",
                        "events_scaling", eventsPerSec32 / eventsPerSec,
                        pass ? "ok" : "REGRESSION");
            ok = ok && pass;
        }
        if (!ok)
            return 1;
    }
    return 0;
}
