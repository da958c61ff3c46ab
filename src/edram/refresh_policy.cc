#include "edram/refresh_policy.hh"

#include <charconv>
#include <cstdio>

namespace refrint
{

const char *
timePolicyName(TimePolicy t)
{
    switch (t) {
      case TimePolicy::Periodic:
        return "P";
      case TimePolicy::Refrint:
        return "R";
      case TimePolicy::SmartRefresh:
        return "S";
    }
    return "?";
}

const char *
dataPolicyName(DataPolicy d)
{
    switch (d) {
      case DataPolicy::All:
        return "all";
      case DataPolicy::Valid:
        return "valid";
      case DataPolicy::Dirty:
        return "dirty";
      case DataPolicy::WB:
        return "WB";
    }
    return "?";
}

const char *
refreshActionName(RefreshAction a)
{
    switch (a) {
      case RefreshAction::Refresh:
        return "refresh";
      case RefreshAction::Writeback:
        return "writeback";
      case RefreshAction::Invalidate:
        return "invalidate";
      case RefreshAction::Skip:
        return "skip";
    }
    return "?";
}

std::string
RefreshPolicy::name() const
{
    std::string s = timePolicyName(time);
    s += ".";
    if (data == DataPolicy::WB) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "WB(%u,%u)", n, m);
        s += buf;
    } else {
        s += dataPolicyName(data);
    }
    return s;
}

RefreshPolicy
RefreshPolicy::periodic(DataPolicy d, std::uint32_t n, std::uint32_t m)
{
    return RefreshPolicy{TimePolicy::Periodic, d, n, m};
}

RefreshPolicy
RefreshPolicy::refrint(DataPolicy d, std::uint32_t n, std::uint32_t m)
{
    return RefreshPolicy{TimePolicy::Refrint, d, n, m};
}

bool
parsePolicy(const std::string &s, RefreshPolicy &out)
{
    // Read a time letter, a data policy and any WB counts loosely, then
    // accept only the spelling name() prints back: that one comparison
    // turns away unknown letters, signs, leading zeros, a count past 32
    // bits, a missing ')' and trailing bytes.
    RefreshPolicy p;
    p.time = s[0] == 'R'   ? TimePolicy::Refrint
             : s[0] == 'S' ? TimePolicy::SmartRefresh
                           : TimePolicy::Periodic;
    const std::string body = s.size() > 2 ? s.substr(2) : s;
    if (body == "all") {
        p.data = DataPolicy::All;
    } else if (body == "valid") {
        p.data = DataPolicy::Valid;
    } else if (body == "dirty") {
        p.data = DataPolicy::Dirty;
    } else if (body.compare(0, 3, "WB(") == 0) {
        p.data = DataPolicy::WB;
        const char *end = body.data() + body.size();
        const char *comma = std::from_chars(body.data() + 3, end, p.n).ptr;
        if (comma != end)
            std::from_chars(comma + 1, end, p.m);
    }
    if (p.name() != s)
        return false;
    out = p;
    return true;
}

} // namespace refrint
