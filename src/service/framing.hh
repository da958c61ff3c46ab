/**
 * @file
 * Record framing for the experiment service's append-only shard files.
 *
 * Every record is one text line:
 *
 *     R <payload-length-decimal> <fnv64-of-payload-16-hex> <payload>\n
 *
 * and every append writes "\n" + record in a single write(2) to a file
 * opened O_APPEND.  The combination gives two guarantees:
 *
 *  - Concurrent writer *processes* never interleave partial records:
 *    an O_APPEND write of one small buffer is atomic with respect to
 *    other appends to the same file, so each record lands contiguous.
 *  - A mid-write crash never corrupts committed rows: the torn bytes
 *    form (part of) one line that fails the length/checksum test and
 *    is ignored; the *next* append starts with its own '\n', so a torn
 *    tail cannot glue onto — and invalidate — a later good record.
 *
 * Readers scan line by line: blank lines (the defensive leading '\n'
 * of every append) are skipped, lines that frame-check are committed
 * records, anything else is torn/corrupt and counted but ignored.
 */

#ifndef REFRINT_SERVICE_FRAMING_HH
#define REFRINT_SERVICE_FRAMING_HH

#include <cstdint>
#include <functional>
#include <string>

// The framing checksum (and the shard function of service/store.cc) is
// the shared fnv64() — re-exported here so framing users keep compiling.
#include "common/hash.hh"

namespace refrint
{

/** Frame @p payload as one appendable record, including the leading
 *  (self-healing) and trailing newline.  @p payload must not contain
 *  '\n' — the framing is line-based. */
std::string frameRecord(const std::string &payload);

/** Validate one line (no trailing '\n'): true and set @p payload only
 *  if the header parses and length + checksum match. */
bool unframeRecord(const std::string &line, std::string &payload);

/** Whether a line that failed unframeRecord() has the shape a crash
 *  mid-append leaves: it ends inside the "R <len> " header, or it has
 *  that header and is shorter than the frame the length declares.
 *  Any other bad line is corrupt. */
bool tornRecord(const std::string &line);

/** Outcome of scanning a shard file's contents. */
struct ScanStats
{
    std::size_t committed = 0; ///< records that frame-checked
    std::size_t torn = 0;      ///< non-blank lines that did not
};

/** Scan @p data (a whole shard file) and invoke @p onRecord for every
 *  committed payload, in file order. */
ScanStats scanRecords(const std::string &data,
                      const std::function<void(const std::string &)>
                          &onRecord);

} // namespace refrint

#endif // REFRINT_SERVICE_FRAMING_HH
