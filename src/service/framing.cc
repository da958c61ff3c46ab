#include "service/framing.hh"

#include <cstdio>

#include "common/log.hh"

namespace refrint
{

namespace
{

/** Sanity bound on a declared payload length: no record is 16 MiB. */
constexpr std::size_t kMaxPayload = std::size_t{1} << 24;

/** Header bytes after "R <len> ": the 16 hex digits and their space. */
constexpr std::size_t kHashField = 17;

} // namespace

std::string
frameRecord(const std::string &payload)
{
    panicIf(payload.find('\n') != std::string::npos,
            "framed payloads are single lines");
    char header[48];
    std::snprintf(header, sizeof(header), "\nR %zu %016llx ",
                  payload.size(),
                  static_cast<unsigned long long>(fnv64(payload)));
    return header + payload + "\n";
}

bool
unframeRecord(const std::string &line, std::string &payload)
{
    // "R <len> <hash16> <payload>"
    if (line.size() < 4 || line[0] != 'R' || line[1] != ' ')
        return false;
    const auto lenEnd = line.find(' ', 2);
    if (lenEnd == std::string::npos)
        return false;
    std::size_t len = 0;
    for (std::size_t i = 2; i < lenEnd; ++i) {
        if (line[i] < '0' || line[i] > '9')
            return false;
        len = len * 10 + static_cast<std::size_t>(line[i] - '0');
        if (len > kMaxPayload)
            return false;
    }
    const auto hashEnd = line.find(' ', lenEnd + 1);
    if (hashEnd == std::string::npos ||
        hashEnd - lenEnd != kHashField)
        return false;
    std::uint64_t hash = 0;
    for (std::size_t i = lenEnd + 1; i < hashEnd; ++i) {
        const char c = line[i];
        std::uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a') + 10;
        else
            return false;
        hash = (hash << 4) | digit;
    }
    const std::string body = line.substr(hashEnd + 1);
    if (body.size() != len || fnv64(body) != hash)
        return false;
    payload = body;
    return true;
}

bool
tornRecord(const std::string &line)
{
    const std::size_t n = line.size();
    if (n == 0 || line[0] != 'R')
        return false;
    if (n == 1)
        return true;
    if (line[1] != ' ')
        return false;
    std::size_t i = 2, len = 0;
    for (; i < n && line[i] >= '0' && line[i] <= '9'; ++i) {
        len = len * 10 + static_cast<std::size_t>(line[i] - '0');
        if (len > kMaxPayload)
            return false;
    }
    if (i == n)
        return true; // cut inside "R <len>"
    if (i == 2 || line[i] != ' ')
        return false;
    return n < i + 1 + kHashField + len;
}

ScanStats
scanRecords(const std::string &data,
            const std::function<void(const std::string &)> &onRecord)
{
    ScanStats stats;
    std::size_t pos = 0;
    while (pos < data.size()) {
        auto nl = data.find('\n', pos);
        if (nl == std::string::npos)
            nl = data.size();
        if (nl > pos) {
            const std::string line = data.substr(pos, nl - pos);
            std::string payload;
            if (unframeRecord(line, payload)) {
                ++stats.committed;
                onRecord(payload);
            } else {
                ++stats.torn;
            }
        }
        pos = nl + 1;
    }
    return stats;
}

} // namespace refrint
