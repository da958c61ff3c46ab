#include "harness/report.hh"

#include <algorithm>

#include "harness/binning.hh"

namespace refrint
{

std::vector<std::string>
classAppNames(int paperClass)
{
    std::vector<std::string> names;
    if (paperClass == 0)
        return names; // empty = all apps
    for (const Workload *w : workloadsOfClass(paperClass))
        names.emplace_back(w->name());
    return names;
}

namespace
{

void
printBarHeader(std::FILE *out)
{
    std::fprintf(out, "%-6s %-12s", "ret", "policy");
}

const char *
classLabel(int classFilter)
{
    switch (classFilter) {
      case 1:
        return "class1";
      case 2:
        return "class2";
      case 3:
        return "class3";
      default:
        return "all";
    }
}

/** Distinct machine labels of a result set, in row order.  A default
 *  sweep yields exactly {""}, so single-machine output is unchanged. */
std::vector<std::string>
machinesOf(const SweepResult &s)
{
    std::vector<std::string> machines;
    for (const NormalizedResult &r : s.normalized) {
        if (std::find(machines.begin(), machines.end(), r.machine) ==
            machines.end())
            machines.push_back(r.machine);
    }
    if (machines.empty())
        machines.push_back("");
    return machines;
}

/** Announce the machine a table block belongs to — only in the
 *  multi-machine case, so single-machine output stays byte-identical
 *  to the legacy renderers. */
void
printMachineHeading(const std::vector<std::string> &machines,
                    const std::string &machine, std::FILE *out)
{
    if (machines.size() < 2)
        return;
    std::fprintf(out, "# machine: %s\n",
                 machine.empty() ? "default" : machine.c_str());
}

/**
 * One policy-grid table per machine in the result set.  @p rowFn
 * fills one row: (retentionUs, configName, apps, machine).
 */
template <typename RowFn>
void
printPolicyTable(const SweepResult &s, int classFilter, std::FILE *out,
                 const char *cols, RowFn &&rowFn)
{
    const std::vector<std::string> apps = classAppNames(classFilter);
    const std::vector<std::string> machines = machinesOf(s);
    for (const std::string &machine : machines) {
        printMachineHeading(machines, machine, out);
        printBarHeader(out);
        std::fprintf(out, " %s\n", cols);
        for (Tick ret : paperRetentions()) {
            const double retUs = static_cast<double>(ret) / 1e3;
            for (const RefreshPolicy &pol : paperPolicySweep()) {
                std::fprintf(out, "%-6.0f %-12s", retUs,
                             pol.name().c_str());
                rowFn(retUs, pol.name(), apps, machine);
                std::fprintf(out, "\n");
            }
        }
    }
}

} // namespace

void
printFig61(const SweepResult &s, std::FILE *out)
{
    std::fprintf(out,
                 "# Fig 6.1 — L1/L2/L3/DRAM energy, averaged over all "
                 "apps (normalized to full-SRAM memory energy)\n");
    printPolicyTable(
        s, 0, out, "      L1      L2      L3    DRAM   total",
        [&](double retUs, const std::string &cfg,
            const std::vector<std::string> &apps,
            const std::string &mach) {
            const double l1 =
                s.average(retUs, cfg, apps, &NormalizedResult::l1, mach);
            const double l2 =
                s.average(retUs, cfg, apps, &NormalizedResult::l2, mach);
            const double l3 =
                s.average(retUs, cfg, apps, &NormalizedResult::l3, mach);
            const double dram = s.average(retUs, cfg, apps,
                                          &NormalizedResult::dram, mach);
            std::fprintf(out, " %7.4f %7.4f %7.4f %7.4f %7.4f", l1, l2,
                         l3, dram, l1 + l2 + l3 + dram);
        });
}

void
printFig62(const SweepResult &s, int classFilter, std::FILE *out)
{
    std::fprintf(out,
                 "# Fig 6.2 [%s] — on-chip dynamic/leakage/refresh + "
                 "DRAM energy (normalized to full-SRAM memory energy)\n",
                 classLabel(classFilter));
    printPolicyTable(
        s, classFilter, out,
        "     dyn    leak refresh    DRAM   total",
        [&](double retUs, const std::string &cfg,
            const std::vector<std::string> &apps,
            const std::string &mach) {
            const double dyn = s.average(
                retUs, cfg, apps, &NormalizedResult::dynamic, mach);
            const double leak = s.average(
                retUs, cfg, apps, &NormalizedResult::leakage, mach);
            const double refr = s.average(
                retUs, cfg, apps, &NormalizedResult::refresh, mach);
            const double dram = s.average(retUs, cfg, apps,
                                          &NormalizedResult::dram, mach);
            std::fprintf(out, " %7.4f %7.4f %7.4f %7.4f %7.4f", dyn,
                         leak, refr, dram, dyn + leak + refr + dram);
        });
}

void
printFig63(const SweepResult &s, int classFilter, std::FILE *out)
{
    std::fprintf(out,
                 "# Fig 6.3 [%s] — total system energy "
                 "(normalized to full-SRAM system energy)\n",
                 classLabel(classFilter));
    printPolicyTable(
        s, classFilter, out, "  energy",
        [&](double retUs, const std::string &cfg,
            const std::vector<std::string> &apps,
            const std::string &mach) {
            std::fprintf(out, " %7.4f",
                         s.average(retUs, cfg, apps,
                                   &NormalizedResult::sysEnergy, mach));
        });
}

void
printFig64(const SweepResult &s, int classFilter, std::FILE *out)
{
    std::fprintf(out,
                 "# Fig 6.4 [%s] — execution time "
                 "(normalized to full-SRAM execution time)\n",
                 classLabel(classFilter));
    printPolicyTable(
        s, classFilter, out, "    time",
        [&](double retUs, const std::string &cfg,
            const std::vector<std::string> &apps,
            const std::string &mach) {
            std::fprintf(out, " %7.4f",
                         s.average(retUs, cfg, apps,
                                   &NormalizedResult::time, mach));
        });
}

void
printBinning(std::FILE *out)
{
    std::fprintf(out,
                 "# Table 6.1 — application binning "
                 "(footprint vs LLC, visibility at LLC)\n");
    std::fprintf(out, "%-14s %10s %12s %8s %8s %8s\n", "app",
                 "footprintMB", "wb/kinst", "meas.", "paper", "match");
    for (const Workload *w : paperWorkloads()) {
        const BinningMeasurement m = measureBinning(*w);
        std::fprintf(out, "%-14s %10.1f %12.2f %8d %8d %8s\n", w->name(),
                     m.footprintBytes / (1024.0 * 1024.0),
                     m.writebacksPerKiloInstr, m.measuredClass,
                     w->paperClass(),
                     m.measuredClass == w->paperClass() ? "yes" : "NO");
    }
}

void
printHeadline(const SweepResult &s, std::FILE *out)
{
    std::fprintf(out, "# Headline (paper abstract / §6, 50 us):\n");
    const std::vector<std::string> all;
    struct Row
    {
        const char *cfg;
        double paperMem, paperSys, paperTime;
    };
    const Row rows[] = {
        {"P.all", 0.50, 0.72, 1.18},
        {"R.WB(32,32)", 0.36, 0.61, 1.02},
    };
    const std::vector<std::string> machines = machinesOf(s);
    for (const std::string &mach : machines) {
        printMachineHeading(machines, mach, out);
        std::fprintf(out, "%-14s %10s %10s %10s %10s %10s %10s\n",
                     "config", "mem", "paperMem", "sys", "paperSys",
                     "time", "paperTime");
        for (const Row &r : rows) {
            std::fprintf(
                out,
                "%-14s %10.3f %10.2f %10.3f %10.2f %10.3f %10.2f\n",
                r.cfg,
                s.average(50.0, r.cfg, all,
                          &NormalizedResult::memEnergy, mach),
                r.paperMem,
                s.average(50.0, r.cfg, all,
                          &NormalizedResult::sysEnergy, mach),
                r.paperSys,
                s.average(50.0, r.cfg, all, &NormalizedResult::time,
                          mach),
                r.paperTime);
        }
    }
}

void
printFigures(const SweepResult &s, std::FILE *out)
{
    printFig61(s, out);
    for (int cls : {1, 2, 3, 0})
        printFig62(s, cls, out);
    printFig63(s, 1, out);
    printFig63(s, 0, out);
    printFig64(s, 1, out);
    printFig64(s, 0, out);
}

void
printThermalStudy(const SweepResult &s, const char *appName,
                  double retentionUs, std::FILE *out)
{
    const ThermalResponse resp; // default curve (DESIGN.md)
    std::fprintf(out,
                 "# Thermal study — %s @ %.0f us nominal retention "
                 "(retention nominal at %.0f C, halving per %.0f C)\n",
                 appName, retentionUs, resp.refTempC,
                 resp.halvingCelsius);
    std::fprintf(out, "%-8s %-12s %8s %9s %9s %9s %9s\n", "ambient",
                 "policy", "peakC", "refresh", "mem", "sys", "time");
    for (const NormalizedResult &n : s.normalized) {
        std::fprintf(out, "%-8.1f %-12s %8.1f %9.4f %9.4f %9.4f %9.4f\n",
                     n.ambientC, n.config.c_str(), n.maxTempC, n.refresh,
                     n.memEnergy, n.sysEnergy, n.time);
    }
    std::fprintf(out, "(refresh/mem normalized to the full-SRAM memory "
                      "energy; sys/time to the full-SRAM run)\n");
}

void
printLatencyTable(const SweepResult &s, std::FILE *out)
{
    bool any = false;
    for (const RunResult &r : s.raw)
        any = any || r.requests > 0;
    if (!any)
        return;
    std::fprintf(out, "# Request latency (us, nearest-rank)\n");
    std::fprintf(out, "%-28s %-12s %8s %10s %9s %9s %9s\n", "app",
                 "config", "ret(us)", "requests", "p50", "p95", "p99");
    for (const RunResult &r : s.raw) {
        if (r.requests <= 0)
            continue;
        std::fprintf(out,
                     "%-28s %-12s %8.1f %10.0f %9.3f %9.3f %9.3f\n",
                     r.app.c_str(), r.config.c_str(), r.retentionUs,
                     r.requests, r.reqP50Us, r.reqP95Us, r.reqP99Us);
    }
}

void
printDisagreement(const SweepResult &s, std::FILE *out)
{
    bool any = false;
    for (const RunResult &r : s.raw)
        any = any || r.hasAlt;
    if (!any)
        return;
    std::fprintf(out, "# Cross-backend energy disagreement\n");
    std::fprintf(out, "%-28s %-12s %8s %12s %12s %8s\n", "app",
                 "config", "ret(us)", "sysJ", "altSysJ", "disagr");
    for (const RunResult &r : s.raw) {
        if (!r.hasAlt)
            continue;
        std::fprintf(out, "%-28s %-12s %8.1f %12.5g %12.5g %7.2f%%\n",
                     r.app.c_str(), r.config.c_str(), r.retentionUs,
                     r.energy.systemTotal(), r.alt.systemTotal(),
                     energyDisagreement(r) * 100.0);
    }
}

} // namespace refrint
