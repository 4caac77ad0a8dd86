#include "runner/result_cache.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include "common/faultinject.hh"
#include "common/fields.hh"
#include "common/logging.hh"
#include "runner/snapshot_codec.hh"

namespace darco::runner {

namespace {

/** The entry format. Version 1 was sealed with byte-serial FNV-1a;
 *  version 2 is sealed with codec::sealHash. */
constexpr uint64_t kEntryVersion = 2;

/**
 * Canonical dump of the identity triple. Length-prefixed like the
 * fingerprint's workload field, so no pair of distinct triples can
 * serialize to the same bytes.
 */
std::string
keyDump(const CacheKey &key)
{
    std::string dump;
    dump.reserve(key.engine.size() + key.workloadUri.size() + 64);
    dump += strprintf("engine[%zu]=", key.engine.size());
    dump += key.engine;
    dump += strprintf(";workload[%zu]=", key.workloadUri.size());
    dump += key.workloadUri;
    dump += strprintf(";fp=%016llx;",
                      static_cast<unsigned long long>(key.fingerprint));
    return dump;
}

} // namespace

std::string
encodeEntry(const CacheKey &key, const sim::RunSnapshot &snap)
{
    std::string body = strprintf(
        "{\"darco_cache\":%llu,\"engine\":\"%s\",\"workload\":\"%s\","
        "\"fp\":\"%016llx\"",
        static_cast<unsigned long long>(kEntryVersion),
        codec::escape(key.engine).c_str(),
        codec::escape(key.workloadUri).c_str(),
        static_cast<unsigned long long>(key.fingerprint));
    codec::appendSnapshotFields(body, snap);
    return codec::sealLine(std::move(body));
}

std::optional<CacheEntry>
decodeEntry(std::string_view line)
{
    codec::FieldReader in(line);
    CacheEntry entry;
    uint64_t version = 0;
    if (!in.u64("darco_cache", version) || version != kEntryVersion ||
        !in.str("engine", entry.key.engine) ||
        !in.str("workload", entry.key.workloadUri) ||
        !in.hex64("fp", entry.key.fingerprint) ||
        !codec::parseSnapshotFields(in, entry.snapshot) || !in.done()) {
        return std::nullopt;
    }
    return entry;
}

uint64_t
configFingerprint(const sim::MetricsOptions &effective,
                  const std::string &workload, bool requireHalt)
{
    std::string dump;
    dump.reserve(1024);
    // "key=value;" per field: integers and bools in decimal, doubles
    // %.17g, a cache geometry as its own fields joined by '/'.
    const auto field = [&dump](const char *key, const auto &value) {
        using F = std::remove_cvref_t<decltype(value)>;
        dump += key;
        dump += '=';
        if constexpr (fields::Listed<F>) {
            const char *sep = "";
            F::forEachField(value, [&](const char *, const auto &part) {
                dump += sep;
                fields::appendText(dump, part);
                sep = "/";
            });
        } else {
            fields::appendText(dump, value);
        }
        dump += ';';
    };
    // The workload string first (length-prefixed so a crafted
    // workload cannot alias into the field dump).
    dump += "workload[";
    fields::appendText(dump, workload.size());
    dump += "]=";
    dump += workload;
    dump += ';';
    field("requireHalt", requireHalt);
    // The options' fields, with TolConfig and TimingConfig flattened
    // into their own fields, in list order.
    sim::MetricsOptions::forEachField(
        effective, [&field](const char *key, const auto &value) {
            using F = std::remove_cvref_t<decltype(value)>;
            if constexpr (fields::Listed<F>)
                F::forEachField(value, field);
            else
                field(key, value);
        });
    return codec::hashString(dump);
}

ResultCache::ResultCache(const std::string &dir) : dir(dir)
{
    if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
        fatal_kind(ErrKind::Io,
                   "result cache: cannot create directory '%s': %s",
                   dir.c_str(), std::strerror(errno));
    }
    struct stat st{};
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
        fatal_kind(ErrKind::Io,
                   "result cache: '%s' is not a directory",
                   dir.c_str());
    }
}

std::string
ResultCache::entryPath(const CacheKey &key) const
{
    return dir + strprintf("/%016llx.dcache",
                           static_cast<unsigned long long>(
                               codec::hashString(keyDump(key))));
}

std::optional<sim::RunSnapshot>
ResultCache::lookup(const CacheKey &key)
{
    const std::string path = entryPath(key);
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return std::nullopt;
    std::string data;
    struct stat st{};
    if (::fstat(::fileno(f), &st) == 0 && st.st_size > 0) {
        data.resize(static_cast<size_t>(st.st_size));
        data.resize(std::fread(data.data(), 1, data.size(), f));
    }
    std::fclose(f);

    // Exactly one line: a file holding a valid entry plus anything
    // after its newline was not written by store() and is damaged.
    // Any structural problem, checksum mismatch included, means the
    // entry does not exist (the re-simulated store will replace it).
    std::optional<CacheEntry> entry;
    if (!data.empty() && data.find('\n') == data.size() - 1) {
        entry = decodeEntry(
            std::string_view(data).substr(0, data.size() - 1));
    }
    if (!entry) {
        warn("result cache: rejecting damaged or old-format entry '%s'",
             path.c_str());
        return std::nullopt;
    }
    // Exact identity match: a file-name hash collision, an engine
    // bump or a workload rename all degrade to a miss here even
    // though the entry itself is intact.
    if (entry->key.engine != key.engine ||
        entry->key.workloadUri != key.workloadUri ||
        entry->key.fingerprint != key.fingerprint) {
        return std::nullopt;
    }
    return std::move(entry->snapshot);
}

bool
ResultCache::store(const CacheKey &key, const sim::RunSnapshot &snap)
{
    const std::string line = encodeEntry(key, snap) + '\n';
    const std::string path = entryPath(key);
    // Unique temp name in the same directory (rename must not cross
    // filesystems): pid disambiguates concurrent shards, the sequence
    // number disambiguates threads within this process.
    const std::string tmp = path + strprintf(
        ".tmp.%llu.%llu",
        static_cast<unsigned long long>(::getpid()),
        static_cast<unsigned long long>(
            tmpSeq.fetch_add(1, std::memory_order_relaxed)));

    FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("result cache: cannot create '%s': %s", tmp.c_str(),
             std::strerror(errno));
        return false;
    }
    bool wrote =
        std::fwrite(line.data(), 1, line.size(), f) == line.size() &&
        std::fflush(f) == 0;
    // A close error can still mean an incomplete file: never publish
    // it as an entry.
    wrote = std::fclose(f) == 0 && wrote;
    if (!wrote || std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("result cache: failed to publish '%s': %s", path.c_str(),
             std::strerror(errno));
        std::remove(tmp.c_str());
        return false;
    }
    // Kill-after-Nth-store fault point (the kill-and-resume gate):
    // fires `count` times, dies on the last one — i.e. after the Nth
    // entry has been published.
    if (faultinject::fire(faultinject::Point::CacheKill) &&
        !faultinject::pending(faultinject::Point::CacheKill)) {
        std::raise(SIGKILL);
    }
    return true;
}

} // namespace darco::runner
