/**
 * @file
 * Text renderers for the paper's tables and figures.  Each bench binary
 * calls one of these to print the rows/series the corresponding figure
 * plots (normalized to full-SRAM, exactly as the paper's Y axes are);
 * refrint_cli calls them on the SweepResult that Session::run returns.
 */

#ifndef REFRINT_HARNESS_REPORT_HH
#define REFRINT_HARNESS_REPORT_HH

#include <cstdio>
#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace refrint
{

/** Names of apps in one paper class ("" filter = all). */
std::vector<std::string> classAppNames(int paperClass);

/** Fig. 6.1: L1/L2/L3/DRAM stacked energy, averaged over all apps. */
void printFig61(const SweepResult &s, std::FILE *out = stdout);

/** Fig. 6.2: dynamic/leakage/refresh/DRAM energy, one block per class
 *  (1..3) plus the all-apps average (classFilter 0). */
void printFig62(const SweepResult &s, int classFilter,
                std::FILE *out = stdout);

/** Fig. 6.3: normalized total system energy (class 1 and all). */
void printFig63(const SweepResult &s, int classFilter,
                std::FILE *out = stdout);

/** Fig. 6.4: normalized execution time (class 1 and all). */
void printFig64(const SweepResult &s, int classFilter,
                std::FILE *out = stdout);

/** Figs. 6.1-6.4 in paper order (printFig61..printFig64). */
void printFigures(const SweepResult &s, std::FILE *out = stdout);

/** Table 6.1: measured application binning vs the paper's. */
void printBinning(std::FILE *out = stdout);

/** Abstract/§6 headline numbers: P.all and R.WB(32,32) at 50 us. */
void printHeadline(const SweepResult &s, std::FILE *out = stdout);

/** Thermal-study table: one row per (ambient, policy) of a sweep run
 *  with a non-empty ambient axis (see refrint_cli thermal-study). */
void printThermalStudy(const SweepResult &s, const char *appName,
                       double retentionUs, std::FILE *out = stdout);

/** Tail-latency table: one row per run with request structure
 *  (requests > 0).  Prints nothing — not even a header — when no run
 *  has requests, so printing it after a legacy sweep is output-neutral. */
void printLatencyTable(const SweepResult &s, std::FILE *out = stdout);

/** Cross-backend disagreement table: one row per run carrying the
 *  alternate energy estimate (hasAlt), with both system totals and the
 *  relative disagreement.  Prints nothing when no run has the alternate
 *  backend, so printing it after a default sweep is output-neutral. */
void printDisagreement(const SweepResult &s, std::FILE *out = stdout);

} // namespace refrint

#endif // REFRINT_HARNESS_REPORT_HH
