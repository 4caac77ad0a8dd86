#include "runner/result_cache.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "common/faultinject.hh"
#include "common/logging.hh"
#include "runner/snapshot_codec.hh"

namespace darco::runner {

namespace {

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

std::string
serializeEntry(const CacheKey &key, const sim::RunSnapshot &snap)
{
    std::string body = strprintf(
        "{\"darco_cache\":1,\"engine\":\"%s\",\"workload\":\"%s\","
        "\"fp\":\"%016llx\"",
        codec::escape(key.engine).c_str(),
        codec::escape(key.workloadUri).c_str(),
        static_cast<unsigned long long>(key.fingerprint));
    codec::appendSnapshotFields(body, snap);
    return codec::sealLine(body);
}

} // namespace

uint64_t
configFingerprint(const sim::MetricsOptions &effective,
                  const std::string &workload, bool requireHalt)
{
    const tol::TolConfig &t = effective.tolConfig;
    const timing::TimingConfig &h = effective.timingConfig;
    std::string dump;
    dump.reserve(1024);
    const auto field = [&dump](const char *key, uint64_t v) {
        dump += strprintf("%s=%llu;", key,
                          static_cast<unsigned long long>(v));
    };
    // The workload string first (length-prefixed so a crafted
    // workload cannot alias into the field dump).
    dump += strprintf("workload[%zu]=", workload.size());
    dump += workload;
    dump += ';';
    field("requireHalt", requireHalt);
    field("guestBudget", effective.guestBudget);
    field("tolOnlyPipe", effective.tolOnlyPipe);
    field("appOnlyPipe", effective.appOnlyPipe);
    field("tolModulePipe", effective.tolModulePipe);
    field("profile", effective.profile);
    // TolConfig, declaration order.
    field("imToBbThreshold", t.imToBbThreshold);
    field("bbToSbThreshold", t.bbToSbThreshold);
    field("maxBbGuestInsts", t.maxBbGuestInsts);
    field("maxSbGuestInsts", t.maxSbGuestInsts);
    dump += strprintf("sbBranchBias=%.17g;", t.sbBranchBias);
    field("sbMinEdgeSamples", t.sbMinEdgeSamples);
    field("sbFollowCalls", t.sbFollowCalls);
    field("enableChaining", t.enableChaining);
    field("enableIbtc", t.enableIbtc);
    field("enableBbmOpts", t.enableBbmOpts);
    field("enableSbmOpts", t.enableSbmOpts);
    field("enableScheduling", t.enableScheduling);
    field("verifyIr", t.verifyIr);
    field("ibtcEntries", t.ibtcEntries);
    field("ibtcWays", t.ibtcWays);
    field("transMapBuckets", t.transMapBuckets);
    field("codeCacheBytes", t.codeCacheBytes);
    field("sbPartitionPercent", t.sbPartitionPercent);
    field("imDecodeAlus", t.imDecodeAlus);
    field("imDispatchOverheadAlus", t.imDispatchOverheadAlus);
    field("bbmDecodeAlus", t.bbmDecodeAlus);
    field("bbmIrGenAlusPerInst", t.bbmIrGenAlusPerInst);
    field("passVisitAlus", t.passVisitAlus);
    field("cseHashAlus", t.cseHashAlus);
    field("regallocAlusPerInterval", t.regallocAlusPerInterval);
    field("schedAlusPerEdge", t.schedAlusPerEdge);
    field("emitAlusPerInst", t.emitAlusPerInst);
    field("lookupHashAlus", t.lookupHashAlus);
    field("chainPatchAlus", t.chainPatchAlus);
    field("ibtcFillAlus", t.ibtcFillAlus);
    // TimingConfig, declaration order.
    field("issueWidth", h.issueWidth);
    field("iqSize", h.iqSize);
    field("eventCore", h.eventCore);
    field("bpHistoryBits", h.bpHistoryBits);
    field("btbEntries", h.btbEntries);
    field("btbWays", h.btbWays);
    field("mispredictPenalty", h.mispredictPenalty);
    const auto cache = [&](const char *key,
                           const timing::CacheGeometry &g) {
        dump += strprintf("%s=%u/%u/%u/%u/%u;", key, g.sizeBytes,
                          g.lineBytes, g.ways, g.hitLatency,
                          g.trueLru ? 1u : 0u);
    };
    cache("l1i", h.l1i);
    cache("l1d", h.l1d);
    cache("l2", h.l2);
    field("memLatency", h.memLatency);
    field("prefetcherEntries", h.prefetcherEntries);
    field("prefetcherEnabled", h.prefetcherEnabled);
    field("tlbL1Entries", h.tlbL1Entries);
    field("tlbL1Ways", h.tlbL1Ways);
    field("tlbL1Latency", h.tlbL1Latency);
    field("tlbL2Entries", h.tlbL2Entries);
    field("tlbL2Ways", h.tlbL2Ways);
    field("tlbL2Latency", h.tlbL2Latency);
    field("tlbWalkLatency", h.tlbWalkLatency);
    field("pageBits", h.pageBits);
    field("intSimpleLatency", h.intSimpleLatency);
    field("intComplexLatency", h.intComplexLatency);
    field("fpSimpleLatency", h.fpSimpleLatency);
    field("fpComplexLatency", h.fpComplexLatency);
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
    char buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, got);
    std::fclose(f);
    if (const size_t nl = data.find('\n'); nl != std::string::npos)
        data.resize(nl);

    // Authenticate before parsing; any structural problem means the
    // entry does not exist (the re-simulated store will replace it).
    if (!codec::checksummedBody(data)) {
        warn("result cache: rejecting damaged entry '%s'",
             path.c_str());
        return std::nullopt;
    }
    const auto version = codec::getU64(data, "darco_cache");
    const auto engine = codec::getStr(data, "engine");
    const auto workload = codec::getStr(data, "workload");
    const auto fp = codec::getHex64(data, "fp");
    if (!version || *version != 1 || !engine || !workload || !fp)
        return std::nullopt;
    // Exact identity match: a file-name hash collision, an engine
    // bump or a workload rename all degrade to a miss here even
    // though the entry itself is intact.
    if (*engine != key.engine || *workload != key.workloadUri ||
        *fp != key.fingerprint) {
        return std::nullopt;
    }
    sim::RunSnapshot snap;
    if (!codec::parseSnapshotFields(data, snap)) {
        warn("result cache: rejecting unparseable entry '%s'",
             path.c_str());
        return std::nullopt;
    }
    return snap;
}

bool
ResultCache::store(const CacheKey &key, const sim::RunSnapshot &snap)
{
    const std::string line = serializeEntry(key, snap) + "\n";
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
