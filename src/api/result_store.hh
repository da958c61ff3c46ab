/**
 * @file
 * ResultStore: the persistence seam behind Session.
 *
 * A result store maps canonical scenario keys (ScenarioKey::str()) to
 * the numeric payload of one simulated run.  Session only ever talks
 * to this interface, which keeps api/ independent of service/; the one
 * implementation is ShardedStore (service/store.hh), the
 * content-addressed store of the experiment service: keys hash into N
 * append-only shard files with length+checksum record framing, so
 * multiple writer *processes* can append concurrently and a mid-write
 * crash can never corrupt a committed row.  A Session without a store
 * simply simulates every scenario.
 *
 * The row payload (CacheRow) and its exact %.17g text codec live here
 * so the store and the goldens serialize rows byte-identically.
 */

#ifndef REFRINT_API_RESULT_STORE_HH
#define REFRINT_API_RESULT_STORE_HH

#include <string>

#include "harness/runner.hh"

namespace refrint
{

/** The numeric payload serialized per run. */
struct CacheRow
{
    double execTicks, instructions;
    double l1, l2, l3, dram, dynamic, leakage, refresh, core, net;
    double dramAccesses, l3Misses, refreshes3, refWbs, refInvals;
    double decayed;
    double ambientC, maxTempC;
    double requests, reqP50Us, reqP95Us, reqP99Us;

    // v8 tail: the second-opinion estimate from the alternate energy
    // backend (src/validate/energy_alt.hh).  altPresent is the
    // discriminator; the writer suppresses the whole tail when it is
    // zero so default-backend rows stay byte-identical to v7.
    double altPresent = 0;
    double altL1 = 0, altL2 = 0, altL3 = 0, altDram = 0;
    double altDynamic = 0, altLeakage = 0, altRefresh = 0;
    double altCore = 0, altNet = 0;
};

/** Flatten a run result into its cache payload. */
CacheRow cacheRowOf(const RunResult &r);

/** Rebuild a run result from a cached payload plus its identity. */
RunResult runFromCacheRow(const std::string &app,
                          const std::string &config, double retentionUs,
                          const std::string &machine, const CacheRow &c);

/** Serialize a row as the canonical "f0,f1,..." field list (%.17g per
 *  field through appendJsonNumber — exact double round-trip,
 *  identical in every store). */
std::string encodeCacheRow(const CacheRow &c);

/**
 * Parse a "f0,f1,..." payload into @p c.  Accepts a full current-
 * version row (with the alternate-backend tail) or a base-length row
 * (v7, or any v8 row written without a second-opinion estimate); the
 * tail of a base-length row then reads as zero, which is its true
 * value.  False for any other field count, an empty field or a
 * trailing comma, a non-finite field, or a count (ticks,
 * instructions, accesses, misses, refreshes) that is negative or past
 * 2^64.  @p c must be zero-initialized by the caller.
 */
bool decodeCacheRow(const std::string &payload, CacheRow &c);

/**
 * Where Session reads and writes simulated rows.  Implementations must
 * be thread-safe: concurrent sweep workers share one store.
 */
class ResultStore
{
  public:
    virtual ~ResultStore() = default;

    virtual bool lookup(const std::string &key, CacheRow &out) const = 0;

    /** Record a freshly simulated run under @p key. */
    virtual void insert(const std::string &key, const CacheRow &c) = 0;

    /** Make every inserted row durable (no-op for in-memory stores). */
    virtual void flush() = 0;

    /** Rows currently known (loaded + inserted). */
    virtual std::size_t rowCount() const = 0;
};

} // namespace refrint

#endif // REFRINT_API_RESULT_STORE_HH
