/**
 * @file
 * Content-addressed, on-disk cache of completed `sim::RunSnapshot`s,
 * keyed on (workload URI identity, config fingerprint, engine
 * version). See docs/campaigns.md.
 *
 * The cache turns a repeated campaign from O(campaign) into O(delta):
 * a warm re-run of an identical sweep performs zero simulations. It
 * can do this *safely* only because the engine is deterministic — a
 * cached snapshot is not an approximation of what a fresh run would
 * produce, it is bit-identical to it, and the opt-in verify-hits mode
 * (runner/batch_runner.hh) re-simulates a fraction of hits to prove
 * exactly that.
 *
 * Key and addressing. An entry's identity is the triple
 * (workload URI, configFingerprint, engine version). The
 * fingerprint already folds in the workload *string* and every
 * effective MetricsOptions field, so any config change misses; the
 * URI and engine version are carried separately so that workload
 * renames and engine bumps invalidate even across fingerprint-hash
 * collisions. The triple is serialized into a canonical
 * length-prefixed dump, FNV-1a hashed, and the 16-hex-digit hash is
 * the file name. On lookup the stored triple is compared field by
 * field against the requested key — a file-name collision degrades to
 * a miss, never to a wrong snapshot.
 *
 * Entry format. One sealed line of the snapshot codec
 * (runner/snapshot_codec.hh):
 *
 *     {"darco_cache":2,"engine":"...","workload":"...",
 *      "fp":"<16 hex>",<snapshot fields>,"csum":"<16 hex>"}
 *
 * The file holds that line and one newline, nothing else. The reader
 * checks the seal (codec::sealHash) over the whole body before it
 * decodes a field, so torn, truncated or bit-damaged entries are
 * rejected and the job re-simulates (the fresh store then replaces
 * the bad file). An entry of another format version (version 1 was
 * sealed with byte-serial FNV-1a) is a miss the same way.
 *
 * Concurrency. Writes are atomic rename-on-commit: the entry is
 * fully written and flushed to a unique temp name in the cache
 * directory, then rename(2)'d over the final name. Concurrent shards
 * sharing one directory therefore never observe a torn entry — they
 * see either no file or a complete one — and a lost rename race just
 * means the last writer's (bit-identical) entry wins.
 *
 * Resume (docs/robustness.md §4). The cache is also the campaign's
 * crash-resume store: every entry published before a crash is a hit
 * when the same campaign re-runs over the same directory. A store
 * that fails warns and costs one re-simulation on the next run; the
 * job itself still succeeds.
 */

#ifndef DARCO_RUNNER_RESULT_CACHE_HH
#define DARCO_RUNNER_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/metrics.hh"

namespace darco::runner {

/**
 * Engine version pin: entries written by a different engine version
 * never hit. Bump whenever a change could alter any measured quantity
 * (the same change regenerates the GoldenDigests tables);
 * docs/robustness.md §4 keeps the history.
 */
constexpr const char *kEngineVersion = "darco-engine-7";

/**
 * Hash the effective experiment definition: every MetricsOptions
 * field that influences the simulation (tolConfig, timingConfig,
 * guest budget, pipeline instance flags) plus the workload string
 * and the harness's halt requirement. Runtime wiring (the cancel
 * token, the capture path) is excluded. Canonical field-by-field text
 * dump under the hood — never raw struct bytes, whose padding is
 * indeterminate.
 */
uint64_t configFingerprint(const sim::MetricsOptions &effective,
                           const std::string &workload,
                           bool requireHalt);

/** Identity of one cached result. */
struct CacheKey
{
    /** Resolved workload URI (workloads/source.hh identity). */
    std::string workloadUri;
    /** configFingerprint of the job's effective config. */
    uint64_t fingerprint = 0;
    /** Engine version pin (kEngineVersion for live runs). */
    std::string engine;
};

/** One decoded cache entry: its stored identity and snapshot. */
struct CacheEntry
{
    CacheKey key;
    sim::RunSnapshot snapshot;
};

/** The stored line of an entry (without its newline). */
std::string encodeEntry(const CacheKey &key,
                        const sim::RunSnapshot &snap);

/**
 * Decode and authenticate one stored line (without its newline) in a
 * single strict pass. Accepts exactly the lines encodeEntry writes:
 * anything else — torn, damaged, non-canonical, an unknown or
 * reordered key — is nullopt.
 */
std::optional<CacheEntry> decodeEntry(std::string_view line);

class ResultCache
{
  public:
    /**
     * Open (creating if missing) the cache directory. An unusable
     * directory is a configuration error and fatals: silently
     * degrading to 0% hits would defeat the point of pointing a
     * campaign at a cache.
     */
    explicit ResultCache(const std::string &dir);

    /**
     * Look the key up. Returns the stored snapshot only if the file
     * holds exactly one line, which decodes (decodeEntry) and whose
     * stored identity triple matches @p key exactly; anything else —
     * no file, torn line, trailing bytes, seal mismatch, another
     * format version, identity mismatch — is a miss.
     */
    std::optional<sim::RunSnapshot> lookup(const CacheKey &key);

    /**
     * Publish a snapshot under @p key via atomic rename-on-commit.
     * Best-effort: failures warn, remove the temp file and return
     * false (the result is still in memory; only future reuse is
     * lost).
     */
    bool store(const CacheKey &key, const sim::RunSnapshot &snap);

    /** Full path of the entry file addressing @p key. */
    std::string entryPath(const CacheKey &key) const;

    const std::string &directory() const { return dir; }

  private:
    std::string dir;
    /** Disambiguates temp names within this process. */
    std::atomic<uint64_t> tmpSeq{0};
};

} // namespace darco::runner

#endif // DARCO_RUNNER_RESULT_CACHE_HH
