/**
 * @file
 * Thermal scenario bench: sweeps the ambient-temperature axis for the
 * headline policies and reports how the refresh/energy trade-off moves
 * with die temperature.  Shares the benches' result store (thermal
 * rows are ambient-keyed), honours REFRINT_REFS / REFRINT_APPS /
 * REFRINT_JOBS, and with --json PATH emits a machine-readable perf
 * snapshot (wall time, simulations executed, rows produced) so CI can
 * track the thermal sweep's cost over time.
 */

#include <chrono>
#include <cstring>
#include <fstream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace refrint;

    const char *jsonPath = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
    }

    SweepSpec spec;
    spec.apps = {findWorkload("fft")};
    spec.retentions = {usToTicks(50.0)};
    spec.policies = {RefreshPolicy::periodic(DataPolicy::All),
                     RefreshPolicy::refrint(DataPolicy::Valid),
                     RefreshPolicy::refrint(DataPolicy::WB, 32, 32)};
    spec.ambients = {45.0, 65.0, 85.0};

    const auto t0 = std::chrono::steady_clock::now();
    const SweepResult s = bench::benchSweep(std::move(spec));
    const double wallSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    std::printf("# bench_thermal — ambient sweep @ 50 us nominal "
                "retention (normalized to full-SRAM)\n");
    std::printf("%-8s %-12s %8s %9s %9s %9s\n", "ambient", "policy",
                "peakC", "refresh", "mem", "time");
    double hottest = 0;
    for (const NormalizedResult &n : s.normalized) {
        hottest = std::max(hottest, n.maxTempC);
        std::printf("%-8.1f %-12s %8.1f %9.4f %9.4f %9.4f\n", n.ambientC,
                    n.config.c_str(), n.maxTempC, n.refresh, n.memEnergy,
                    n.time);
    }
    std::printf("wall %.3f s, %zu simulations (%zu rows)\n", wallSec,
                s.metrics.simulated, s.normalized.size());

    if (jsonPath != nullptr) {
        std::ofstream out(jsonPath);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath);
            return 1;
        }
        out << "{\n"
            << "  \"bench\": \"thermal\",\n"
            << "  \"wall_s\": " << wallSec << ",\n"
            << "  \"simulations\": " << s.metrics.simulated << ",\n"
            << "  \"rows\": " << s.normalized.size() << ",\n"
            << "  \"refs_per_core\": " << bench::defaultRefs() << ",\n"
            << "  \"max_temp_c\": " << hottest << "\n"
            << "}\n";
    }
    return 0;
}
