#include "api/result_store.hh"

#include <cstdlib>
#include <sstream>

#include "api/json.hh"

namespace refrint
{

namespace
{

/**
 * Field list in serialization order — the single source of truth for
 * both the reader and the writer, so they cannot drift apart or depend
 * on the struct's memory layout.
 */
constexpr double CacheRow::*kCacheFields[] = {
    &CacheRow::execTicks,    &CacheRow::instructions, &CacheRow::l1,
    &CacheRow::l2,           &CacheRow::l3,           &CacheRow::dram,
    &CacheRow::dynamic,      &CacheRow::leakage,      &CacheRow::refresh,
    &CacheRow::core,         &CacheRow::net,          &CacheRow::dramAccesses,
    &CacheRow::l3Misses,     &CacheRow::refreshes3,   &CacheRow::refWbs,
    &CacheRow::refInvals,    &CacheRow::decayed,      &CacheRow::ambientC,
    &CacheRow::maxTempC,     &CacheRow::requests,     &CacheRow::reqP50Us,
    &CacheRow::reqP95Us,     &CacheRow::reqP99Us,  &CacheRow::altPresent,
    &CacheRow::altL1,        &CacheRow::altL2,     &CacheRow::altL3,
    &CacheRow::altDram,      &CacheRow::altDynamic,
    &CacheRow::altLeakage,   &CacheRow::altRefresh,
    &CacheRow::altCore,      &CacheRow::altNet,
};
constexpr std::size_t kNumCacheFields =
    sizeof(kCacheFields) / sizeof(kCacheFields[0]);
static_assert(kNumCacheFields == sizeof(CacheRow) / sizeof(double),
              "every CacheRow field must be serialized");

/** Field count of the v8 alternate-backend tail (altPresent..altNet). */
constexpr std::size_t kNumAltCacheFields = 10;

/** Field count of a v7 row: everything up to reqP99Us.  Rows without a
 *  second-opinion estimate are still written at this length, so the
 *  default corpus stays byte-identical across the v8 schema bump. */
constexpr std::size_t kNumBaseCacheFields =
    kNumCacheFields - kNumAltCacheFields;

} // namespace

std::string
encodeCacheRow(const CacheRow &c)
{
    std::string out;
    out.reserve(kNumCacheFields * 8);
    const std::size_t fields =
        c.altPresent != 0 ? kNumCacheFields : kNumBaseCacheFields;
    for (std::size_t i = 0; i < fields; ++i) {
        if (i)
            out += ',';
        appendJsonNumber(out, c.*kCacheFields[i]); // %.17g, exact
    }
    return out;
}

bool
decodeCacheRow(const std::string &payload, CacheRow &c)
{
    std::stringstream ss(payload);
    std::string tok;
    std::size_t i = 0;
    while (i < kNumCacheFields && std::getline(ss, tok, ',')) {
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0')
            return false;
        c.*kCacheFields[i++] = v;
    }
    return i == kNumCacheFields || i == kNumBaseCacheFields;
}

CacheRow
cacheRowOf(const RunResult &r)
{
    CacheRow c{};
    c.execTicks = static_cast<double>(r.execTicks);
    c.instructions = static_cast<double>(r.instructions);
    c.l1 = r.energy.l1;
    c.l2 = r.energy.l2;
    c.l3 = r.energy.l3;
    c.dram = r.energy.dram;
    c.dynamic = r.energy.dynamic;
    c.leakage = r.energy.leakage;
    c.refresh = r.energy.refresh;
    c.core = r.energy.core;
    c.net = r.energy.net;
    c.dramAccesses = static_cast<double>(r.counts.dramAccesses);
    c.l3Misses = static_cast<double>(r.counts.l3Misses);
    c.refreshes3 = static_cast<double>(r.counts.l3Refreshes);
    c.refWbs = static_cast<double>(r.counts.refreshWritebacks);
    c.refInvals = static_cast<double>(r.counts.refreshInvalidations);
    c.decayed = static_cast<double>(r.counts.decayedHits);
    c.ambientC = r.ambientC;
    c.maxTempC = r.maxTempC;
    c.requests = r.requests;
    c.reqP50Us = r.reqP50Us;
    c.reqP95Us = r.reqP95Us;
    c.reqP99Us = r.reqP99Us;
    if (r.hasAlt) {
        c.altPresent = 1;
        c.altL1 = r.alt.l1;
        c.altL2 = r.alt.l2;
        c.altL3 = r.alt.l3;
        c.altDram = r.alt.dram;
        c.altDynamic = r.alt.dynamic;
        c.altLeakage = r.alt.leakage;
        c.altRefresh = r.alt.refresh;
        c.altCore = r.alt.core;
        c.altNet = r.alt.net;
    }
    return c;
}

RunResult
runFromCacheRow(const std::string &app, const std::string &config,
                double retentionUs, const std::string &machine,
                const CacheRow &c)
{
    RunResult r;
    r.app = app;
    r.config = config;
    r.machine = machine;
    r.retentionUs = retentionUs;
    r.execTicks = static_cast<Tick>(c.execTicks);
    r.instructions = static_cast<std::uint64_t>(c.instructions);
    r.energy.l1 = c.l1;
    r.energy.l2 = c.l2;
    r.energy.l3 = c.l3;
    r.energy.dram = c.dram;
    r.energy.dynamic = c.dynamic;
    r.energy.leakage = c.leakage;
    r.energy.refresh = c.refresh;
    r.energy.core = c.core;
    r.energy.net = c.net;
    r.counts.dramAccesses = static_cast<std::uint64_t>(c.dramAccesses);
    r.counts.l3Misses = static_cast<std::uint64_t>(c.l3Misses);
    r.counts.l3Refreshes = static_cast<std::uint64_t>(c.refreshes3);
    r.counts.refreshWritebacks = static_cast<std::uint64_t>(c.refWbs);
    r.counts.refreshInvalidations =
        static_cast<std::uint64_t>(c.refInvals);
    r.counts.decayedHits = static_cast<std::uint64_t>(c.decayed);
    r.ambientC = c.ambientC;
    r.maxTempC = c.maxTempC;
    r.requests = c.requests;
    r.reqP50Us = c.reqP50Us;
    r.reqP95Us = c.reqP95Us;
    r.reqP99Us = c.reqP99Us;
    if (c.altPresent != 0) {
        // Only the aggregates survive a round-trip; the alternate
        // backend's per-level matrix is recomputable solely from fresh
        // counts and stays zero on reload.
        r.hasAlt = true;
        r.alt.l1 = c.altL1;
        r.alt.l2 = c.altL2;
        r.alt.l3 = c.altL3;
        r.alt.dram = c.altDram;
        r.alt.dynamic = c.altDynamic;
        r.alt.leakage = c.altLeakage;
        r.alt.refresh = c.altRefresh;
        r.alt.core = c.altCore;
        r.alt.net = c.altNet;
    }
    return r;
}

} // namespace refrint
