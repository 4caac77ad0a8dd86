/**
 * @file
 * Canonical flat-hex serialization of `sim::RunSnapshot` plus the
 * checksummed single-line envelope of every durable result store in
 * the runner layer.
 *
 * The content-addressed result cache (runner/result_cache.hh, one
 * file per (workload, config, engine) key) persists completed runs in
 * this format; it is also a campaign's crash-resume store. Its
 * verify-hits audit and the kill-and-resume gate both hinge on a
 * parsed snapshot being indistinguishable from the run that produced
 * it (`timing::diffStats` / `tol::diffTolStats` /
 * `profile::diffProfiles` all empty). Keeping the codec apart from
 * the store's addressing and I/O keeps the text format in one place.
 *
 * Serialization rules (docs/robustness.md §4, docs/campaigns.md §2):
 *
 *  - Structs are written field by field from their one field list
 *    (`forEachField`, common/fields.hh), in list order; never as raw
 *    struct bytes, so no layout or padding reaches the format.
 *  - `PipeStats` is one hex string: every scalar of its list, each
 *    as 8 little-endian bytes (every scalar is a 64-bit count).
 *  - `RunProfile` serializes as a flat stream of u64 hex fields with
 *    length-prefixed maps; std::map iteration order is the sort
 *    order, so two equal profiles serialize identically (canonical).
 *  - `TolStats` counters are named decimal fields in list order.
 *  - The envelope is one line of JSON-shaped key/value text sealed
 *    with a checksum over every byte of the body (`sealLine`):
 *    FNV-1a over its little-endian 64-bit words, then over its tail
 *    bytes (`sealHash`). A change confined to one word always
 *    changes the seal.
 *  - Reading checks the seal against the whole body first, in one
 *    pass, so a torn, truncated or bit-flipped line never yields a
 *    snapshot and is never decoded. Decoding is then one strict
 *    left-to-right pass (`FieldReader`) in the writer's field order,
 *    accepting only what the writer emits: canonical decimals,
 *    lowercase hex, the escapes `escape` writes. An unknown, repeated
 *    or reordered key is a damaged entry, so a line that decodes
 *    re-encodes to the same bytes.
 */

#ifndef DARCO_RUNNER_SNAPSHOT_CODEC_HH
#define DARCO_RUNNER_SNAPSHOT_CODEC_HH

#include <string>
#include <string_view>

#include "sim/metrics.hh"

namespace darco::runner::codec {

/** FNV-1a over the bytes of @p s, one byte per step (the config
 *  fingerprint and the cache file names). */
uint64_t hashString(std::string_view s);

/** The envelope seal of @p body: FNV-1a over its little-endian
 *  64-bit words, then over its 0-7 tail bytes. */
uint64_t sealHash(std::string_view body);

/** Minimal JSON string escaping: backslash, quote, control bytes. */
std::string escape(const std::string &s);

/**
 * Strict reader of one sealed line (`{"k":v,...,"csum":"<16 hex>"}`,
 * no newline). Each read consumes the next field, which must carry
 * exactly the key asked for, so fields are read in the writer's
 * order and nothing is searched for. A line whose body does not
 * match its seal fails at construction. A failed read leaves the
 * reader failed: every later read and done() return false.
 */
class FieldReader
{
  public:
    /** Read @p line; a line that does not end in the seal of its
     *  body fails. */
    explicit FieldReader(std::string_view line);

    /** The next field is @p key (an optional field is present). */
    bool at(const char *key) const;
    /** A decimal without leading zeros that fits in a u64. */
    bool u64(const char *key, uint64_t &value);
    /** A quoted string, unescaped (only escapes `escape` writes). */
    bool str(const char *key, std::string &value);
    /** Exactly 16 lowercase hex digits, quoted. */
    bool hex64(const char *key, uint64_t &value);

    /**
     * Open the quoted value of @p key to read it in fixed-size
     * records with next(); close() then requires its closing quote.
     */
    bool open(const char *key);
    /** The next @p n bytes of the open value, or nullptr (and the
     *  reader fails) if fewer remain. */
    const char *next(size_t n);
    /** Close the open value, which must have been read to its end. */
    bool close();
    /** Bytes of the open value not read yet. */
    size_t left() const { return valueEnd - pos; }

    /** The seal matched, every read succeeded and every byte of the
     *  body was read: the line is authentic and fully decoded. */
    bool done() const;

  private:
    /** Consume the separator and `"key":`. */
    bool take(const char *key);
    bool fail() { return ok = false; }

    const char *pos = nullptr;
    const char *end = nullptr;
    /** End of the open value (its closing quote). */
    const char *valueEnd = nullptr;
    /** `{` before the first field, `,` before the others. */
    char separator = '{';
    bool ok = true;
};

/**
 * Append the snapshot's serialized fields to @p body (leading comma
 * included): result scalars, timing core, the PipeStats blob(s), the
 * optional profile and every TolStats counter.
 * The caller owns the envelope (opening `{`, identity fields, seal).
 */
void appendSnapshotFields(std::string &body,
                          const sim::RunSnapshot &snap);

/**
 * Read the fields appendSnapshotFields wrote from @p in into a
 * default-constructed @p snap. Returns false on any structural
 * problem (missing or extra key, non-canonical number, bad hex, wrong
 * blob size, unsorted list); only a reader that is then done() holds
 * an authentic snapshot.
 */
bool parseSnapshotFields(FieldReader &in, sim::RunSnapshot &snap);

/**
 * Seal @p body into a complete stored line: appends
 * `,"csum":"<sealHash of body>"}`. @p body must start with `{` and
 * contain every field already serialized.
 */
std::string sealLine(std::string body);

} // namespace darco::runner::codec

#endif // DARCO_RUNNER_SNAPSHOT_CODEC_HH
