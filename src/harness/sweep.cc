#include "harness/sweep.hh"

#include <algorithm>

#include "common/log.hh"

namespace refrint
{

std::vector<RefreshPolicy>
paperDataPolicies(TimePolicy t)
{
    std::vector<RefreshPolicy> v;
    auto mk = [&](DataPolicy d, std::uint32_t n = 0, std::uint32_t m = 0) {
        RefreshPolicy p;
        p.time = t;
        p.data = d;
        p.n = n;
        p.m = m;
        v.push_back(p);
    };
    mk(DataPolicy::All);
    mk(DataPolicy::Valid);
    mk(DataPolicy::Dirty);
    mk(DataPolicy::WB, 4, 4);
    mk(DataPolicy::WB, 8, 8);
    mk(DataPolicy::WB, 16, 16);
    mk(DataPolicy::WB, 32, 32);
    return v;
}

std::vector<RefreshPolicy>
paperPolicySweep()
{
    std::vector<RefreshPolicy> v = paperDataPolicies(TimePolicy::Periodic);
    for (const auto &p : paperDataPolicies(TimePolicy::Refrint))
        v.push_back(p);
    return v;
}

std::vector<Tick>
paperRetentions()
{
    return {usToTicks(50.0), usToTicks(100.0), usToTicks(200.0)};
}

void
SweepSpec::finalize()
{
    if (apps.empty())
        apps = paperWorkloads();
    if (retentions.empty())
        retentions = paperRetentions();
    if (policies.empty())
        policies = paperPolicySweep();
}

namespace
{

/** One mean over the matching rows of @p machine, or, when it is
 *  null, of the sole machine present (fatal when several match). */
double
averageRows(const std::vector<NormalizedResult> &rows,
            double retentionUs, const std::string &config,
            const std::vector<std::string> &apps,
            double NormalizedResult::*field, const std::string *machine)
{
    double sum = 0;
    std::size_t n = 0;
    const std::string *sole = nullptr;
    for (const auto &r : rows) {
        if (r.config != config)
            continue;
        if (retentionUs > 0 && r.retentionUs != retentionUs)
            continue;
        if (!apps.empty() &&
            std::find(apps.begin(), apps.end(), r.app) == apps.end())
            continue;
        if (machine != nullptr) {
            if (r.machine != *machine)
                continue;
        } else if (sole == nullptr) {
            sole = &r.machine;
        } else if (*sole != r.machine) {
            fatal("SweepResult::average(%s @ %.1f us) matches rows from "
                  "several machines ('%s' and '%s'); pass the machine "
                  "explicitly",
                  config.c_str(), retentionUs, sole->c_str(),
                  r.machine.c_str());
        }
        sum += r.*field;
        ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

} // namespace

double
SweepResult::average(double retentionUs, const std::string &config,
                     const std::vector<std::string> &apps,
                     double NormalizedResult::*field) const
{
    return averageRows(normalized, retentionUs, config, apps, field,
                       nullptr);
}

double
SweepResult::average(double retentionUs, const std::string &config,
                     const std::vector<std::string> &apps,
                     double NormalizedResult::*field,
                     const std::string &machine) const
{
    return averageRows(normalized, retentionUs, config, apps, field,
                       &machine);
}

const NormalizedResult *
SweepResult::find(const std::string &app, double retentionUs,
                  const std::string &config) const
{
    const NormalizedResult *first = nullptr;
    for (const auto &r : normalized) {
        if (r.app != app || r.config != config)
            continue;
        if (retentionUs > 0 && r.retentionUs != retentionUs)
            continue;
        if (first == nullptr) {
            first = &r;
            continue;
        }
        if (first->machine == r.machine && first->ambientC == r.ambientC)
            continue; // same scenario axes: retention wildcard match
        fatal("SweepResult::find(%s, %.1f, %s) is ambiguous across "
              "the machine/ambient axes; pass the full scenario "
              "identity",
              app.c_str(), retentionUs, config.c_str());
    }
    return first;
}

const NormalizedResult *
SweepResult::find(const std::string &app, double retentionUs,
                  const std::string &config,
                  const std::string &machine, double ambientC) const
{
    for (const auto &r : normalized) {
        if (r.app == app && r.config == config &&
            r.machine == machine && r.ambientC == ambientC &&
            (retentionUs <= 0 || r.retentionUs == retentionUs))
            return &r;
    }
    return nullptr;
}

} // namespace refrint
