/**
 * @file
 * ShardedStore: the experiment service's content-addressed result
 * store.
 *
 * A store is a directory:
 *
 *     store.json            manifest {"format","version","shards"}
 *     shard-000.rsl         framed append-only records (framing.hh)
 *     shard-001.rsl         ...
 *     shard-001.bad         quarantined corrupt records (scrub --repair)
 *
 * Rows are addressed by their canonical ScenarioKey string; a key
 * lives in shard fnv64(key) % shards forever (the shard count is
 * fixed at creation and recorded in the manifest).  Each record's
 * payload is "key;row" with the row encoded by the %.17g codec of
 * api/result_store.hh — the codec legacy CSV caches used too, so a
 * migrated row is byte-identical to a freshly simulated one.
 *
 * Concurrency model: any number of *processes* may append to the same
 * store concurrently — every insert is one O_APPEND write of one
 * framed record, which cannot interleave with other appends, and a
 * reader ignores anything that fails the frame check (see
 * framing.hh).  Duplicate keys are benign: append-only means a re-
 * simulated row simply appears twice, and readers keep the last
 * occurrence.  Within a process the store is mutex-guarded.
 *
 * Durability policy:
 *  - The manifest is fsync'd at creation — a store directory that
 *    exists always has a readable manifest.
 *  - An append that fails, or writes fewer bytes than the record
 *    (ENOSPC, quota), is FATAL with the shard file and byte offset —
 *    never a silently absent row.  The torn bytes on disk are the
 *    documented torn-line case readers already skip and scrub repairs.
 *  - flush() fdatasyncs every shard touched since the last flush;
 *    syncEveryAppend makes each insert durable before it returns.
 */

#ifndef REFRINT_SERVICE_STORE_HH
#define REFRINT_SERVICE_STORE_HH

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/result_store.hh"

namespace refrint
{

class ShardedStore : public ResultStore
{
  public:
    static constexpr unsigned kDefaultShards = 8;

    /**
     * Open (or create) the store directory at @p dir.  A new store is
     * created with @p shards shard files (0 = kDefaultShards); an
     * existing store always uses its manifest's count, since the shard
     * function must stay stable for the directory's lifetime.  Fatal
     * (exit 1) on an unreadable manifest or uncreatable directory.
     * @p syncEveryAppend fdatasyncs after each insert (durable before
     * the insert returns) instead of only at flush().
     */
    explicit ShardedStore(std::string dir, unsigned shards = 0,
                          bool syncEveryAppend = false);
    ~ShardedStore() override;

    ShardedStore(const ShardedStore &) = delete;
    ShardedStore &operator=(const ShardedStore &) = delete;

    bool lookup(const std::string &key, CacheRow &out) const override;

    /** Append one framed record to the key's shard.  Fatal (exit 1) on
     *  a failed or short append — see the durability policy above. */
    void insert(const std::string &key, const CacheRow &c) override;

    /** fdatasync every shard touched since the last flush. */
    void flush() override;

    std::size_t rowCount() const override;

    unsigned shards() const { return shards_; }

    /** The stable shard index for @p key. */
    unsigned shardOf(const std::string &key) const;

    /** Torn/corrupt lines skipped while loading (observability). */
    std::size_t tornRecords() const { return torn_; }

    /** Shard file path (for tests and tooling). */
    std::string shardPath(unsigned shard) const;

    /** Copy of every known row (last occurrence per key), for corpus
     *  walkers like `refrint validate`. */
    std::map<std::string, CacheRow> snapshot() const;

  private:
    void loadShard(unsigned shard);

    std::string dir_;
    unsigned shards_ = 0;
    bool syncEveryAppend_ = false;
    std::size_t torn_ = 0;
    std::size_t appends_ = 0; ///< appends this instance attempted
                              ///< (the store.* fault-point ordinal)
    mutable std::mutex mu_;
    std::map<std::string, CacheRow> rows_;
    std::vector<int> fds_;        ///< per-shard append fd (lazy)
    std::vector<char> dirty_;     ///< shard touched since last flush
};

/**
 * Outcome of scrubbing a store directory (`refrint cache scrub`).
 *
 * Damage is classified by position: invalid non-blank lines after a
 * shard's last frame-valid record are a *torn tail* (the expected
 * artifact of a crash mid-append — at most one line, at the end);
 * invalid lines before it are *mid-file corruption* (bit rot, manual
 * editing, a filesystem fault) which a crash can never produce.
 */
struct ScrubReport
{
    unsigned shardsScanned = 0;
    std::size_t committed = 0;   ///< frame-valid records seen
    std::size_t uniqueKeys = 0;  ///< distinct keys among them
    std::size_t tornTail = 0;    ///< invalid lines after the last
                                 ///< valid record of their shard
    std::size_t midFile = 0;     ///< invalid lines before it
    std::size_t duplicates = 0;  ///< same-key re-appends
    std::size_t quarantined = 0; ///< bad lines moved to .bad (--repair)
    std::size_t compacted = 0;   ///< duplicate records dropped (--repair)

    bool clean() const { return tornTail == 0 && midFile == 0; }
};

/**
 * Verify every record of every shard in @p dir against its framing
 * checksum, reporting torn tails vs. mid-file corruption per shard on
 * @p out (default stderr).  With @p repair, each damaged shard is
 * atomically rewritten with only its frame-valid records — duplicate
 * keys compacted to the last occurrence — and the damaged lines are
 * appended verbatim to `shard-NNN.bad` for post-mortem.  Fatal
 * (exit 1) on an unreadable store or a failed rewrite.  The store must
 * not be concurrently written while a --repair runs (scrub without
 * repair only reads).
 */
ScrubReport scrubStore(const std::string &dir, bool repair,
                       std::FILE *out = nullptr);

/**
 * Import every row of a legacy single-file CSV cache into the sharded
 * store at @p storeDir.  The file is a "vN" header line (v5 to v8)
 * followed by one "key;row" line per run, the row in the
 * encodeCacheRow codec; the last line of a repeated key wins.  Returns
 * the number of rows imported; fatal (exit 1) when @p cachePath is
 * missing or unreadable or its header names another version.  The file
 * is read and checked before the store is opened, so a failed
 * migration leaves no store behind.  The legacy file is only read,
 * never modified.
 */
std::size_t migrateLegacyCache(const std::string &cachePath,
                               const std::string &storeDir);

} // namespace refrint

#endif // REFRINT_SERVICE_STORE_HH
