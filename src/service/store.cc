#include "service/store.hh"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "api/json.hh"
#include "common/log.hh"
#include "service/faults.hh"
#include "service/framing.hh"

namespace refrint
{

namespace
{

constexpr int kStoreVersion = 1;

std::string
manifestPath(const std::string &dir)
{
    return dir + "/store.json";
}

/** Parse an existing manifest's shard count; 0 when there is none,
 *  fatal when there is one but it is unreadable. */
unsigned
readManifestShards(const std::string &dir)
{
    std::ifstream manifest(manifestPath(dir));
    if (!manifest)
        return 0;
    std::stringstream ss;
    ss << manifest.rdbuf();
    JsonValue doc;
    std::string err;
    if (!JsonValue::parse(ss.str(), doc, err) || !doc.isObject())
        fatal("unreadable store manifest %s: %s",
              manifestPath(dir).c_str(), err.c_str());
    const JsonValue *fmt = doc.get("format");
    const JsonValue *ver = doc.get("version");
    const JsonValue *sh = doc.get("shards");
    if (fmt == nullptr || !fmt->isString() ||
        fmt->asString() != "refrint-store" || ver == nullptr ||
        !ver->isNumber() || ver->asNumber() != kStoreVersion ||
        sh == nullptr || !sh->isNumber() || sh->asNumber() < 1 ||
        sh->asNumber() > 4096)
        fatal("store manifest %s is not a readable refrint-store "
              "v%d manifest",
              manifestPath(dir).c_str(), kStoreVersion);
    return static_cast<unsigned>(sh->asNumber());
}

/** fsync @p dir so a just-renamed or just-created entry is durable;
 *  best-effort (some filesystems refuse directory fsync). */
void
syncDirectory(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

/** Write @p data to @p path whole, fsync'd, fatal on any failure —
 *  the durability contract for manifests and repaired shards. */
void
writeFileDurably(const std::string &path, const std::string &data)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
    if (fd < 0)
        fatal("cannot write %s: %s", path.c_str(),
              std::strerror(errno));
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            fatal("short write to %s at offset %zu: %s", path.c_str(),
                  off, std::strerror(errno));
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0)
        fatal("cannot fsync %s: %s", path.c_str(),
              std::strerror(errno));
    ::close(fd);
}

/**
 * Append @p data to @p fd in one write(2) call, retried only on EINTR
 * (a resumed partial write of an O_APPEND record would break the
 * framing's atomicity contract).  A failed append, or a short one
 * (0 <= n < size: ENOSPC, quota), is FATAL with the file and offset —
 * a store that silently drops rows would poison every later warm run.
 * The torn bytes a short write leaves behind are the documented
 * torn-line case: readers skip them and `cache scrub` repairs them.
 */
void
appendRaw(int fd, const std::string &data, const std::string &path)
{
    for (;;) {
        const ssize_t n = ::write(fd, data.data(), data.size());
        if (n == static_cast<ssize_t>(data.size()))
            return;
        if (n < 0 && errno == EINTR)
            continue;
        const off_t end = ::lseek(fd, 0, SEEK_END);
        if (n < 0)
            fatal("append to store shard %s failed at offset %lld: %s",
                  path.c_str(), static_cast<long long>(end),
                  std::strerror(errno));
        fatal("short append to store shard %s: wrote %lld of %zu "
              "bytes ending at offset %lld (disk full?); committed "
              "rows are intact, run 'cache scrub --repair'",
              path.c_str(), static_cast<long long>(n), data.size(),
              static_cast<long long>(end));
    }
}

} // namespace

ShardedStore::ShardedStore(std::string dir, unsigned shards,
                           bool syncEveryAppend)
    : dir_(std::move(dir)), syncEveryAppend_(syncEveryAppend)
{
    panicIf(dir_.empty(), "sharded store needs a directory");
    // Create the directory if needed (EEXIST is the common warm case).
    if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST)
        fatal("cannot create store directory %s: %s", dir_.c_str(),
              std::strerror(errno));

    // The manifest always wins: the shard function must stay stable
    // for the directory's lifetime.
    shards_ = readManifestShards(dir_);
    if (shards_ == 0) {
        shards_ = shards == 0 ? kDefaultShards : shards;
        JsonValue doc = JsonValue::object();
        doc.set("format", JsonValue::string("refrint-store"));
        doc.set("version", JsonValue::number(kStoreVersion));
        doc.set("shards",
                JsonValue::number(static_cast<double>(shards_)));
        // Processes may create the same store at once (a coordinator's
        // workers): publish the whole manifest with link(2), which
        // fails if another process published first — whose manifest
        // then wins — so no process ever reads a partly written one.
        const std::string path = manifestPath(dir_);
        const std::string tmp =
            path + ".tmp." + std::to_string(::getpid());
        writeFileDurably(tmp, doc.dump(2) + "\n");
        const bool published = ::link(tmp.c_str(), path.c_str()) == 0;
        const int linkErrno = errno;
        ::unlink(tmp.c_str());
        if (!published && linkErrno != EEXIST)
            fatal("cannot publish store manifest %s: %s", path.c_str(),
                  std::strerror(linkErrno));
        if (!published)
            shards_ = readManifestShards(dir_);
        syncDirectory(dir_);
    }

    fds_.assign(shards_, -1);
    dirty_.assign(shards_, 0);
    for (unsigned s = 0; s < shards_; ++s)
        loadShard(s);
}

ShardedStore::~ShardedStore()
{
    for (const int fd : fds_)
        if (fd >= 0)
            ::close(fd);
}

std::string
ShardedStore::shardPath(unsigned shard) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "/shard-%03u.rsl", shard);
    return dir_ + name;
}

unsigned
ShardedStore::shardOf(const std::string &key) const
{
    return static_cast<unsigned>(fnv64(key) % shards_);
}

void
ShardedStore::loadShard(unsigned shard)
{
    std::ifstream in(shardPath(shard), std::ios::binary);
    if (!in)
        return; // not written yet
    std::stringstream ss;
    ss << in.rdbuf();
    const ScanStats stats =
        scanRecords(ss.str(), [&](const std::string &payload) {
            const auto sep = payload.find(';');
            if (sep == std::string::npos)
                return;
            CacheRow c{};
            if (decodeCacheRow(payload.substr(sep + 1), c))
                rows_[payload.substr(0, sep)] = c; // last wins
        });
    if (stats.torn > 0) {
        torn_ += stats.torn;
        warn("store shard %s: ignored %zu torn/corrupt record(s), "
             "recovered %zu committed row(s) — 'cache scrub --repair' "
             "quarantines the damage",
             shardPath(shard).c_str(), stats.torn, stats.committed);
    }
}

bool
ShardedStore::lookup(const std::string &key, CacheRow &out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = rows_.find(key);
    if (it == rows_.end())
        return false;
    out = it->second;
    return true;
}

void
ShardedStore::insert(const std::string &key, const CacheRow &c)
{
    const unsigned shard = shardOf(key);
    const std::string record = frameRecord(key + ";" + encodeCacheRow(c));
    std::lock_guard<std::mutex> lock(mu_);
    rows_[key] = c;
    if (fds_[shard] < 0) {
        fds_[shard] = ::open(shardPath(shard).c_str(),
                             O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                             0666);
        if (fds_[shard] < 0)
            fatal("cannot open store shard %s for append: %s",
                  shardPath(shard).c_str(), std::strerror(errno));
    }

    // Deterministic fault sites for the chaos harness: the ordinal is
    // this instance's append count, so a schedule names "the N-th
    // append this process performs".
    const std::uint64_t ordinal = appends_++;
    const FaultPlan &faults = FaultPlan::global();
    if (!faults.empty()) {
        if (faults.at("store.torn_write", ordinal)) {
            // Crash mid-write: half the record lands, then the process
            // dies — the canonical torn-line scenario.
            (void)!::write(fds_[shard], record.data(),
                           record.size() / 2);
            std::raise(SIGKILL);
        }
        if (faults.at("store.short_write", ordinal)) {
            // ENOSPC-style short write: half the record lands and the
            // append path must fail loudly.
            (void)!::write(fds_[shard], record.data(),
                           record.size() / 2);
            const off_t end = ::lseek(fds_[shard], 0, SEEK_END);
            fatal("short append to store shard %s: wrote %zu of %zu "
                  "bytes ending at offset %lld (disk full?); "
                  "committed rows are intact, run 'cache scrub "
                  "--repair'",
                  shardPath(shard).c_str(), record.size() / 2,
                  record.size(), static_cast<long long>(end));
        }
    }

    appendRaw(fds_[shard], record, shardPath(shard));
    if (syncEveryAppend_)
        ::fdatasync(fds_[shard]);
    else
        dirty_[shard] = 1;
}

void
ShardedStore::flush()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (unsigned s = 0; s < shards_; ++s) {
        if (dirty_[s] && fds_[s] >= 0) {
            ::fdatasync(fds_[s]);
            dirty_[s] = 0;
        }
    }
}

std::size_t
ShardedStore::rowCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return rows_.size();
}

std::map<std::string, CacheRow>
ShardedStore::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return rows_;
}

// ---------------------------------------------------------------------
// Scrub & repair
// ---------------------------------------------------------------------

namespace
{

/** One shard's scan, classified for scrub. */
struct ShardScan
{
    std::vector<std::string> order;           ///< keys, first-seen order
    std::map<std::string, std::string> last;  ///< key -> last payload
    std::vector<std::string> badLines;        ///< frame-invalid lines
    std::size_t committed = 0;
    std::size_t tornTail = 0;
    std::size_t midFile = 0;
    std::size_t duplicates = 0;

    bool
    needsRepair() const
    {
        return tornTail > 0 || midFile > 0 || duplicates > 0;
    }
};

ShardScan
scanShardFile(const std::string &data)
{
    ShardScan scan;
    // First pass: find where the last frame-valid record ends, so
    // damage can be classified as torn tail (after it — what a crash
    // leaves) vs. mid-file corruption (before it — what a crash can
    // never produce).
    std::size_t lastValidEnd = 0;
    {
        std::size_t pos = 0;
        while (pos < data.size()) {
            auto nl = data.find('\n', pos);
            if (nl == std::string::npos)
                nl = data.size();
            if (nl > pos) {
                std::string payload;
                if (unframeRecord(data.substr(pos, nl - pos), payload))
                    lastValidEnd = nl;
            }
            pos = nl + 1;
        }
    }
    std::size_t pos = 0;
    while (pos < data.size()) {
        auto nl = data.find('\n', pos);
        if (nl == std::string::npos)
            nl = data.size();
        if (nl > pos) {
            const std::string line = data.substr(pos, nl - pos);
            std::string payload;
            if (unframeRecord(line, payload)) {
                ++scan.committed;
                const auto sep = payload.find(';');
                const std::string key =
                    sep == std::string::npos ? payload
                                             : payload.substr(0, sep);
                auto it = scan.last.find(key);
                if (it == scan.last.end()) {
                    scan.order.push_back(key);
                    scan.last.emplace(key, std::move(payload));
                } else {
                    ++scan.duplicates;
                    it->second = std::move(payload); // last wins
                }
            } else {
                scan.badLines.push_back(line);
                if (pos >= lastValidEnd)
                    ++scan.tornTail;
                else
                    ++scan.midFile;
            }
        }
        pos = nl + 1;
    }
    return scan;
}

} // namespace

ScrubReport
scrubStore(const std::string &dir, bool repair, std::FILE *out)
{
    if (out == nullptr)
        out = stderr;
    const unsigned shards = readManifestShards(dir);
    if (shards == 0)
        fatal("%s is not a refrint store (no store.json manifest)",
              dir.c_str());

    ScrubReport report;
    report.shardsScanned = shards;
    for (unsigned s = 0; s < shards; ++s) {
        char name[32];
        std::snprintf(name, sizeof(name), "/shard-%03u", s);
        const std::string path = dir + name + ".rsl";
        std::ifstream in(path, std::ios::binary);
        if (!in)
            continue; // never written
        std::stringstream ss;
        ss << in.rdbuf();
        in.close();
        const ShardScan scan = scanShardFile(ss.str());

        report.committed += scan.committed;
        report.uniqueKeys += scan.last.size();
        report.tornTail += scan.tornTail;
        report.midFile += scan.midFile;
        report.duplicates += scan.duplicates;

        if (scan.tornTail > 0 || scan.midFile > 0)
            std::fprintf(out,
                         "shard-%03u.rsl: %zu torn-tail line(s), %zu "
                         "mid-file corrupt line(s), %zu good "
                         "record(s)\n",
                         s, scan.tornTail, scan.midFile,
                         scan.committed);

        if (!repair || !scan.needsRepair())
            continue;

        // Quarantine the damaged lines, then atomically rewrite the
        // shard with only its frame-valid records, duplicates
        // compacted to the last occurrence.
        if (!scan.badLines.empty()) {
            std::ofstream bad(dir + name + ".bad",
                              std::ios::app | std::ios::binary);
            if (!bad)
                fatal("cannot write quarantine file %s.bad",
                      (dir + name).c_str());
            for (const std::string &line : scan.badLines)
                bad << line << "\n";
            bad.close();
            report.quarantined += scan.badLines.size();
        }
        std::string rebuilt;
        for (const std::string &key : scan.order)
            rebuilt += frameRecord(scan.last.at(key));
        const std::string tmp = path + ".tmp";
        writeFileDurably(tmp, rebuilt);
        if (::rename(tmp.c_str(), path.c_str()) != 0)
            fatal("cannot replace %s with its repaired copy: %s",
                  path.c_str(), std::strerror(errno));
        syncDirectory(dir);
        report.compacted += scan.duplicates;
        std::fprintf(out,
                     "shard-%03u.rsl: repaired — %zu line(s) "
                     "quarantined to shard-%03u.bad, %zu duplicate "
                     "record(s) compacted, %zu row(s) kept\n",
                     s, scan.badLines.size(), s, scan.duplicates,
                     scan.last.size());
    }
    return report;
}

std::size_t
migrateLegacyCache(const std::string &cachePath,
                   const std::string &storeDir)
{
    std::ifstream in(cachePath); // read-only import: never written back
    if (!in)
        fatal("cannot read legacy cache file: %s", cachePath.c_str());
    std::string line;
    std::getline(in, line);
    if (line != "v5" && line != "v6" && line != "v7" && line != "v8")
        fatal("legacy cache file %s has header '%.16s'; only v5-v8 "
              "files can be imported",
              cachePath.c_str(), line.c_str());
    // Last occurrence per key wins; rows are imported in key order.
    std::map<std::string, CacheRow> rows;
    while (std::getline(in, line)) {
        const auto sep = line.find(';');
        if (sep == std::string::npos)
            continue;
        CacheRow c{};
        if (decodeCacheRow(line.substr(sep + 1), c))
            rows[line.substr(0, sep)] = c;
    }
    ShardedStore store(storeDir);
    for (const auto &[key, row] : rows)
        store.insert(key, row);
    store.flush();
    return rows.size();
}

} // namespace refrint
