/**
 * @file
 * ResultSink: streaming observers over a running experiment plan.
 *
 * Session::run() drives any number of sinks through a fixed protocol:
 *
 *   begin(plan)                       once, before the first run
 *   consume(plan, i, raw, norm, sim)  once per scenario, in plan order,
 *                                     as soon as the row (and its
 *                                     baseline) is available — rows
 *                                     stream while later scenarios are
 *                                     still simulating
 *   end(plan, result)                 once, after the full aggregate
 *
 * consume() calls are serialized (never concurrent) and always arrive
 * in plan order, so sinks need no locking of their own.  @p norm is
 * null for baseline rows and for rows whose baseline is degenerate;
 * @p simulated tells a fresh simulation from a cache hit.
 *
 * The CSV, JSON Lines and progress writers here implement it.  The
 * paper's tables and figures are not sinks: they are printers
 * (harness/report.hh) over the SweepResult that Session::run returns.
 */

#ifndef REFRINT_API_RESULT_SINK_HH
#define REFRINT_API_RESULT_SINK_HH

#include <cstdio>
#include <string>

#include "harness/runner.hh"

namespace refrint
{

struct ExperimentPlan;
struct SweepResult;

class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    virtual void
    begin(const ExperimentPlan &plan)
    {
        (void)plan;
    }

    virtual void
    consume(const ExperimentPlan &plan, std::size_t index,
            const RunResult &raw, const NormalizedResult *norm,
            bool simulated)
    {
        (void)plan;
        (void)index;
        (void)raw;
        (void)norm;
        (void)simulated;
    }

    virtual void
    end(const ExperimentPlan &plan, const SweepResult &result)
    {
        (void)plan;
        (void)result;
    }
};

/** One CSV row per run (raw metrics + normalized view), header first.
 *  Does not own @p out. */
class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(std::FILE *out) : out_(out) {}

    void begin(const ExperimentPlan &plan) override;
    void consume(const ExperimentPlan &plan, std::size_t index,
                 const RunResult &raw, const NormalizedResult *norm,
                 bool simulated) override;

  private:
    std::FILE *out_;
};

/** One compact JSON object per run — machine-readable streaming
 *  results (`python3 -m json.tool --json-lines` friendly).  Does not
 *  own @p out. */
class JsonLinesSink : public ResultSink
{
  public:
    /**
     * @p strict (the default) makes any row write failure fatal with
     * the stream offset — right for files and pipes, where a silently
     * dropped row leaves a stream that looks complete but is not.
     * Pass false for best-effort streams (a serve client that hangs up
     * mid-response must not kill the service); the caller then checks
     * ferror().
     */
    explicit JsonLinesSink(std::FILE *out, bool strict = true)
        : out_(out), strict_(strict)
    {
    }

    void begin(const ExperimentPlan &plan) override;
    void consume(const ExperimentPlan &plan, std::size_t index,
                 const RunResult &raw, const NormalizedResult *norm,
                 bool simulated) override;

  private:
    std::FILE *out_;
    bool strict_;
    std::string energyTag_; ///< plan's |en= key segment ("" = default)
    std::string line_;      ///< the row being written, reused per row
};

/** Human progress ticker on stderr: one line per completed run, plus
 *  a final RunMetrics summary (simulated/cached counts, wall time,
 *  worker utilization) when the plan finishes. */
class ProgressSink : public ResultSink
{
  public:
    explicit ProgressSink(std::FILE *out = stderr) : out_(out) {}

    void consume(const ExperimentPlan &plan, std::size_t index,
                 const RunResult &raw, const NormalizedResult *norm,
                 bool simulated) override;
    void end(const ExperimentPlan &plan,
             const SweepResult &result) override;

  private:
    std::FILE *out_;
};

} // namespace refrint

#endif // REFRINT_API_RESULT_SINK_HH
