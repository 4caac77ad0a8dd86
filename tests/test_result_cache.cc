/**
 * @file
 * Campaign scale-out gates (docs/campaigns.md): the snapshot codec
 * round-trips bit-exactly, every persisted encoding (entry fields,
 * config fingerprint, trace PINS section) matches committed golden
 * hashes (and the entry seal a committed value), a warm re-run of an
 * identical campaign performs zero simulations with every slot
 * bit-identical to the cold run, shards partition a batch exactly
 * once by workload (a fusion group never spans shards) and share a
 * cache, every component of the cache key and the entry format
 * version invalidate, damaged or resealed out-of-range entries and
 * entries whose trace pins went stale are re-simulated, intra-batch
 * dedup fans a single simulation out bit-identically,
 * pipe fusion runs a fig5-fig11-shaped batch once per workload and
 * caches it as that one run, verify-hits blesses honest entries and
 * hard-fails forged ones, a batch holding a capture job is rejected
 * before any work, and a store that fails costs nothing but the entry.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/faultinject.hh"
#include "common/prng.hh"
#include "runner/batch_runner.hh"
#include "runner/result_cache.hh"
#include "runner/snapshot_codec.hh"
#include "sim/metrics.hh"
#include "timing/pipeline.hh"
#include "tol/stats.hh"
#include "trace/trace.hh"
#include "workloads/params.hh"
#include "workloads/source.hh"

using namespace darco;

namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

/**
 * A per-test cache directory, emptied of any entries a previous run
 * of the suite left behind — a stale entry would turn an expected
 * cold miss into a hit.
 */
std::string
freshCacheDir(const std::string &name)
{
    const std::string dir = tempPath(name);
    ::mkdir(dir.c_str(), 0777);
    if (DIR *d = ::opendir(dir.c_str())) {
        while (const dirent *e = ::readdir(d)) {
            const std::string file = e->d_name;
            if (file != "." && file != "..")
                ::unlink((dir + "/" + file).c_str());
        }
        ::closedir(d);
    }
    return dir;
}

/** Files in @p dir (any name), or only committed entries. */
size_t
countFiles(const std::string &dir, bool entriesOnly)
{
    size_t n = 0;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (const dirent *e = ::readdir(d)) {
            const std::string file = e->d_name;
            if (file == "." || file == "..")
                continue;
            n += !entriesOnly || file.ends_with(".dcache");
        }
        ::closedir(d);
    }
    return n;
}

size_t
countEntries(const std::string &dir)
{
    return countFiles(dir, true);
}

std::string
readFile(const std::string &path)
{
    std::string data;
    FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f)
        return data;
    char buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, got);
    std::fclose(f);
    return data;
}

void
writeFile(const std::string &path, const std::string &data)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
}

sim::MetricsOptions
smallOptions(uint64_t budget)
{
    sim::MetricsOptions options;
    options.guestBudget = budget;
    options.tolConfig.bbToSbThreshold = sim::scaledSbThreshold(budget);
    return options;
}

runner::BatchJob
makeJob(std::string uri, sim::MetricsOptions options)
{
    runner::BatchJob job;
    job.workload = std::move(uri);
    job.options = std::move(options);
    return job;
}

/** A small campaign over the first @p count synthetic benchmarks. */
std::vector<runner::BatchJob>
smallCampaign(size_t count, uint64_t budget = 40'000)
{
    const auto &all = workloads::allBenchmarks();
    std::vector<runner::BatchJob> jobs;
    for (size_t i = 0; i < count && i < all.size(); ++i) {
        jobs.push_back(makeJob(workloads::syntheticUri(all[i].name),
                               smallOptions(budget)));
    }
    return jobs;
}

std::vector<runner::JobResult>
runBatch(const std::vector<runner::BatchJob> &jobs,
         runner::BatchConfig config = {})
{
    return runner::BatchRunner(std::move(config)).run(jobs);
}

/** Per-slot bit-identity: the cache acceptance currency. */
void
expectIdenticalSlots(const std::vector<runner::JobResult> &got,
                     const std::vector<runner::JobResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(want[i].uri + strprintf(" (job %zu)", i));
        EXPECT_TRUE(got[i].ok);
        EXPECT_TRUE(want[i].ok);
        EXPECT_EQ(got[i].name, want[i].name);
        EXPECT_EQ(got[i].suite, want[i].suite);
        EXPECT_EQ(sim::diffRunSnapshots(got[i].snapshot,
                                        want[i].snapshot), "");
        // Figure metrics are pure functions of the snapshot
        // (sim::collectMetrics); spot-check the headline fields.
        const sim::BenchMetrics g = sim::collectMetrics(
            got[i].snapshot, got[i].name, got[i].suite);
        const sim::BenchMetrics w = sim::collectMetrics(
            want[i].snapshot, want[i].name, want[i].suite);
        EXPECT_EQ(g.dynSbm, w.dynSbm);
        EXPECT_EQ(g.cycles, w.cycles);
        EXPECT_DOUBLE_EQ(g.tolCycles, w.tolCycles);
    }
}

/** Simulations a batch performed, retries and audits included. */
unsigned
totalAttempts(const std::vector<runner::JobResult> &results)
{
    unsigned n = 0;
    for (const runner::JobResult &r : results)
        n += r.attempts;
    return n;
}

/** The cache key a batch job resolves to (mirrors the runner). */
runner::CacheKey
keyFor(const runner::JobResult &r)
{
    return {r.uri, r.fingerprint, std::string(runner::kEngineVersion)};
}

/**
 * Capture a run of synthetic benchmark @p name to the trace at
 * @p path, overwriting any trace already there. The capture recipe
 * (budget and promotion thresholds) depends on @p budget only, so
 * two captures of different benchmarks at one budget replay under
 * the same effective config — the same cache key — with different
 * in-file pins.
 */
void
captureTrace(const std::string &path, const std::string &name,
             uint64_t budget = 40'000)
{
    sim::MetricsOptions options = smallOptions(budget);
    options.captureTracePath = path;
    sim::snapshotRun(
        workloads::resolveWorkload(workloads::syntheticUri(name)),
        options);
}

} // namespace

// ---------------------------------------------------------------------
// Snapshot codec: round-trip and envelope authentication.
// ---------------------------------------------------------------------

namespace {

/** A synthetic snapshot exercising every serialized component. */
sim::RunSnapshot
denseSnapshot()
{
    sim::RunSnapshot snap;
    snap.result.guestRetired = 123'456;
    snap.result.cycles = 987'654;
    snap.result.halted = true;
    snap.timingCore = "event";
    snap.stats.records = 42;
    snap.stats.cycles = 987'654;
    timing::PipeStats tol_only;
    tol_only.records = 7;
    snap.tolOnly = tol_only;
    snap.tolStats.dynIm = 11;
    snap.tolStats.dynBbm = 22;
    snap.tolStats.dynSbm = 33;
    snap.tolStats.guestIndirectBranches = 44;
    snap.tolStats.staticBbm = 1;
    snap.tolStats.staticSbm = 1;
    snap.tolStats.staticModeHash = 0xFEDCBA9876543210ull;
    profile::RunProfile prof;
    prof.lineBytes = 64;
    prof.dataReuse.coldAccesses = 5;
    prof.dataReuse.counts[0] = 3;
    prof.dataReuse.counts[3] = 9;
    // Edge values: a distance past 2^29, a site at the top of the
    // 32-bit address space.
    prof.dataReuse.counts[1000000007ull] = 9;
    prof.branches.dynBranches = 17;
    prof.branches.dynCondBranches = 13;
    prof.branches.mispredicts = 4;
    profile::BranchSite site;
    site.taken = 4;
    site.notTaken = 2;
    site.transitions = 6;
    site.mispredicts = 4;
    site.isCond = true;
    prof.branches.sites[0x1234] = site;
    site.isCond = false;
    site.isIndirect = true;
    prof.branches.sites[0xFFFFFFFC] = site;
    snap.profile = prof;
    return snap;
}

/** Read a `{"probe":1,<snapshot fields>,<seal>` line to its end: true
 *  only if every field decodes and the line authenticates. */
bool
readsBack(const std::string &line, sim::RunSnapshot &snap)
{
    runner::codec::FieldReader in(line);
    uint64_t probe = 0;
    return in.u64("probe", probe) &&
           runner::codec::parseSnapshotFields(in, snap) && in.done();
}

} // namespace

TEST(SnapshotCodec, RoundTripsBitExactly)
{
    const sim::RunSnapshot snap = denseSnapshot();
    std::string body = "{\"probe\":1";
    runner::codec::appendSnapshotFields(body, snap);
    const std::string line = runner::codec::sealLine(body);

    sim::RunSnapshot back;
    ASSERT_TRUE(readsBack(line, back));

    EXPECT_EQ(back.result.guestRetired, snap.result.guestRetired);
    EXPECT_EQ(back.result.cycles, snap.result.cycles);
    EXPECT_EQ(back.result.halted, snap.result.halted);
    EXPECT_EQ(back.timingCore, snap.timingCore);
    EXPECT_EQ(timing::diffStats(back.stats, snap.stats), "");
    ASSERT_TRUE(back.tolOnly.has_value());
    EXPECT_EQ(timing::diffStats(*back.tolOnly, *snap.tolOnly), "");
    EXPECT_FALSE(back.appOnly.has_value());
    EXPECT_FALSE(back.tolModule.has_value());
    EXPECT_EQ(tol::diffTolStats(back.tolStats, snap.tolStats), "");
    ASSERT_TRUE(back.profile.has_value());
    EXPECT_EQ(profile::diffProfiles(*back.profile, *snap.profile), "");
    EXPECT_TRUE(*back.profile == *snap.profile);
}

TEST(SnapshotCodec, TamperedEnvelopeFailsAuthentication)
{
    std::string body = "{\"probe\":1";
    runner::codec::appendSnapshotFields(body, denseSnapshot());
    const std::string line = runner::codec::sealLine(body);

    // Flip one body character (a digit that still parses):
    // authentication must fail.
    std::string tampered = line;
    tampered[line.find("guest_retired") + 20] ^= 1;
    sim::RunSnapshot snap;
    EXPECT_FALSE(readsBack(tampered, snap));
    // Truncation (torn write) must fail too.
    sim::RunSnapshot torn;
    EXPECT_FALSE(readsBack(line.substr(0, line.size() / 2), torn));
    // The intact line still authenticates.
    sim::RunSnapshot intact;
    EXPECT_TRUE(readsBack(line, intact));
}

// ---------------------------------------------------------------------
// Golden encodings: the bytes every persisted artifact is made of
// (cache-entry snapshot fields, the config fingerprint, a trace's
// PINS section), pinned to committed values. Every field carries a
// distinct value, so dropping, reordering or re-typing any field of
// any encoding changes a hash. A change meant to keep every
// persisted byte must pass this unedited.
// ---------------------------------------------------------------------

namespace {

/** Distinct, byte-diverse 64-bit values (an LCG stream). */
struct DistinctValues
{
    uint64_t state;

    uint64_t
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state;
    }
};

timing::PipeStats
distinctPipeStats(DistinctValues &v)
{
    timing::PipeStats ps;
    ps.cycles = v.next();
    ps.records = v.next();
    ps.burstCycles = v.next();
    for (uint64_t &x : ps.insts)
        x = v.next();
    ps.unitDenom = v.next();
    for (auto &row : ps.bucketUnits) {
        for (uint64_t &x : row)
            x = v.next();
    }
    for (auto &row : ps.bucketSrcUnits) {
        for (uint64_t &x : row)
            x = v.next();
    }
    for (timing::CacheStats *c : {&ps.l1i, &ps.l1d, &ps.l2}) {
        c->accesses = v.next();
        c->misses = v.next();
        c->writebacks = v.next();
        c->prefetchFills = v.next();
    }
    ps.tlb.accesses = v.next();
    ps.tlb.l1Misses = v.next();
    ps.tlb.l2Misses = v.next();
    ps.bp.branches = v.next();
    ps.bp.condBranches = v.next();
    ps.bp.mispredicts = v.next();
    ps.bp.directionMispredicts = v.next();
    ps.bp.targetMispredicts = v.next();
    ps.bp.indirectMispredicts = v.next();
    ps.prefetch.trains = v.next();
    ps.prefetch.prefetches = v.next();
    return ps;
}

/** Every PipeStats blob present, every TolStats counter distinct. */
sim::RunSnapshot
distinctSnapshot()
{
    DistinctValues v{0x5eed};
    sim::RunSnapshot snap;
    snap.result.guestRetired = v.next();
    snap.result.cycles = v.next();
    snap.result.halted = true;
    snap.timingCore = "reference";
    snap.stats = distinctPipeStats(v);
    snap.tolOnly = distinctPipeStats(v);
    snap.appOnly = distinctPipeStats(v);
    snap.tolModule = distinctPipeStats(v);
    tol::TolStats::forEachField(snap.tolStats,
                                [&v](const char *, uint64_t &c) {
        c = v.next();
    });
    return snap;
}

/** FNV-1a of the PINS section (tag, size, payload) of @p path. */
uint64_t
pinsSectionHash(const std::string &path)
{
    const std::string bytes = readFile(path);
    const auto le = [&](size_t at, size_t len) {
        uint64_t v = 0;
        for (size_t i = 0; i < len; ++i)
            v |= uint64_t{static_cast<uint8_t>(bytes[at + i])} << (8 * i);
        return v;
    };
    size_t at = 12;  // magic, version, flags
    while (at + 12 <= bytes.size()) {
        const uint64_t tag = le(at, 4);
        const uint64_t size = le(at + 4, 8);
        if (tag == trace::kSectionPins) {
            return trace::fnv1a64(
                reinterpret_cast<const uint8_t *>(bytes.data()) + at,
                12 + size);
        }
        at += 12 + size;
    }
    ADD_FAILURE() << "no PINS section in " << path;
    return 0;
}

} // namespace

TEST(SnapshotCodec, EveryIsolationPipeSubsetRoundTrips)
{
    const runner::CacheKey key{"source://synthetic/429.mcf",
                               0x0123456789abcdefull,
                               std::string(runner::kEngineVersion)};
    for (sim::PipeMask set = 0; set <= sim::kAllPipes; ++set) {
        SCOPED_TRACE(strprintf("pipe mask %u", set));
        sim::RunSnapshot snap = distinctSnapshot();
        sim::projectPipes(snap, set);
        const std::string line = runner::encodeEntry(key, snap);
        const auto entry = runner::decodeEntry(line);
        ASSERT_TRUE(entry.has_value());
        EXPECT_EQ(runner::encodeEntry(entry->key, entry->snapshot), line);
        EXPECT_EQ(sim::diffRunSnapshots(entry->snapshot, snap), "");
        for (size_t i = 0; i < sim::kIsolationPipes.size(); ++i) {
            if (!((set >> i) & 1))
                continue;
            sim::RunSnapshot dropped = entry->snapshot;
            sim::projectPipes(dropped, set & ~(1u << i));
            EXPECT_EQ(sim::diffRunSnapshots(dropped, snap),
                      std::string(sim::kIsolationPipes[i].key) +
                          " presence differs\n");
        }
    }
}

TEST(GoldenEncodings, SnapshotFieldsMatchCommittedHash)
{
    std::string body;
    runner::codec::appendSnapshotFields(body, distinctSnapshot());
    EXPECT_EQ(runner::codec::hashString(body), 0x1a6f50bf8320e27bull)
        << strprintf("got 0x%016llx",
                     static_cast<unsigned long long>(
                         runner::codec::hashString(body)));
}

TEST(GoldenEncodings, EntrySealMatchesCommittedValue)
{
    // The seal reads the body as little-endian 64-bit words, then its
    // tail bytes. This body has a tail, so both parts count, and a
    // change of word order or byte order moves the seal.
    std::string body = "{\"probe\":1";
    runner::codec::appendSnapshotFields(body, distinctSnapshot());
    ASSERT_NE(body.size() % 8, 0u);
    const uint64_t got = runner::codec::sealHash(body);
    EXPECT_EQ(got, 0xbc0e1ae5f0a6b787ull)
        << strprintf("got 0x%016llx", static_cast<unsigned long long>(got));
    EXPECT_EQ(runner::codec::sealLine(body),
              body + strprintf(",\"csum\":\"%016llx\"}",
                               static_cast<unsigned long long>(got)));
}

TEST(GoldenEncodings, ConfigFingerprintsMatchCommittedValues)
{
    const std::string wl = workloads::syntheticUri("429.mcf");
    const sim::MetricsOptions defaults;
    sim::MetricsOptions isolation;
    isolation.tolOnlyPipe = true;
    isolation.appOnlyPipe = true;
    isolation.tolModulePipe = true;
    // Non-default values in every value kind the dump formats: a
    // double, a bool, a geometry, the leading scalars.
    sim::MetricsOptions tweaked = isolation;
    tweaked.guestBudget = 123'457;
    tweaked.profile = true;
    tweaked.tolConfig.sbBranchBias = 0.55;
    tweaked.tolConfig.enableIbtc = false;
    tweaked.tolConfig.ibtcFillAlus = 9;
    tweaked.timingConfig.eventCore = false;
    tweaked.timingConfig.l2.trueLru = true;
    tweaked.timingConfig.l1d.ways = 2;
    tweaked.timingConfig.fpComplexLatency = 7;
    const struct
    {
        const char *what;
        uint64_t got;
        uint64_t want;
    } rows[] = {
        {"defaults", runner::configFingerprint(defaults, wl, false),
         0xbfc302b8a577542eull},
        {"isolation", runner::configFingerprint(isolation, wl, false),
         0x7b7f5df9fdb050ddull},
        {"tweaked", runner::configFingerprint(tweaked, wl, true),
         0x5c78b4f2cc0fd0c4ull},
    };
    for (const auto &row : rows) {
        EXPECT_EQ(row.got, row.want)
            << row.what << strprintf(": got 0x%016llx",
                                     static_cast<unsigned long long>(
                                         row.got));
    }
}

TEST(GoldenEncodings, TracePinsSectionMatchesCommittedHash)
{
    trace::TraceFile file;
    file.meta.name = "golden";
    file.program.code = {0xF4};  // HLT
    file.hasPins = true;
    DistinctValues v{0x9175};
    trace::TracePins &p = file.pins;
    p.guestRetired = v.next();
    p.simCycles = v.next();
    p.hostRecords = v.next();
    p.timingCore = "event";
    p.dynIm = v.next();
    p.dynBbm = v.next();
    p.dynSbm = v.next();
    p.bbsTranslated = v.next();
    p.sbsCreated = v.next();
    p.guestIndirectBranches = v.next();
    const std::string path = tempPath("golden_pins.dtrc");
    trace::writeTrace(path, file);
    const uint64_t got = pinsSectionHash(path);
    EXPECT_EQ(got, 0x3e8623dc92e4235dull)
        << strprintf("got 0x%016llx", static_cast<unsigned long long>(got));
}

// ---------------------------------------------------------------------
// The headline contract: a warm re-run simulates nothing and is
// bit-identical to the cold run.
// ---------------------------------------------------------------------

TEST(ResultCache, WarmRerunHitsEverythingBitIdentically)
{
    const std::string dir =
        freshCacheDir("result_cache_warm_rerun");
    const std::vector<runner::BatchJob> jobs = smallCampaign(6);

    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);
    for (const runner::JobResult &r : cold) {
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Miss);
        EXPECT_GE(r.attempts, 1u);
    }
    EXPECT_EQ(countEntries(dir), jobs.size());

    const std::vector<runner::JobResult> warm = runBatch(jobs, config);
    for (const runner::JobResult &r : warm) {
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Hit);
        // Zero simulations: a hit never executes.
        EXPECT_EQ(r.attempts, 0u);
    }
    expectIdenticalSlots(warm, cold);

    // The cache is also bit-identical to a run that never saw a
    // cache at all.
    expectIdenticalSlots(warm, runBatch(jobs));
}

TEST(ResultCache, IsolationJobIsCachedUnderItsOwnFingerprint)
{
    // A job with isolation pipes that forms no fusion group (every
    // job of a fig8 or fig10 sweep) is looked up and stored under its
    // exact fingerprint like any other job.
    const std::string dir = freshCacheDir("result_cache_isolation");
    std::vector<runner::BatchJob> jobs = smallCampaign(1);
    jobs[0].options.tolOnlyPipe = true;
    jobs[0].options.appOnlyPipe = true;
    jobs[0].options.tolModulePipe = true;

    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);
    ASSERT_TRUE(cold[0].ok) << cold[0].error;
    EXPECT_EQ(cold[0].cacheStatus, runner::CacheStatus::Miss);
    EXPECT_GE(cold[0].attempts, 1u);
    EXPECT_TRUE(cold[0].snapshot.tolOnly.has_value());
    EXPECT_TRUE(cold[0].snapshot.appOnly.has_value());
    EXPECT_TRUE(cold[0].snapshot.tolModule.has_value());
    EXPECT_EQ(countEntries(dir), 1u);
    EXPECT_TRUE(
        runner::ResultCache(dir).lookup(keyFor(cold[0])).has_value());

    // Warm: a hit, bit-identical including the three isolation
    // PipeStats (expectIdenticalSlots compares them).
    const std::vector<runner::JobResult> warm = runBatch(jobs, config);
    EXPECT_EQ(warm[0].cacheStatus, runner::CacheStatus::Hit);
    EXPECT_EQ(warm[0].attempts, 0u);
    expectIdenticalSlots(warm, cold);

    // And the entry survives a full audit.
    config.verifyHits = true;
    const std::vector<runner::JobResult> audited =
        runBatch(jobs, config);
    EXPECT_TRUE(audited[0].ok) << audited[0].error;
    EXPECT_EQ(audited[0].cacheStatus, runner::CacheStatus::Hit);
    EXPECT_TRUE(audited[0].verifiedHit);
    expectIdenticalSlots(audited, cold);
    EXPECT_EQ(countEntries(dir), 1u);
}

TEST(ResultCache, StaleTracePinsReSimulate)
{
    const std::string dir = freshCacheDir("result_cache_stale_pins");
    const std::string path = tempPath("result_cache_stale_pins.dtrc");
    const auto &all = workloads::allBenchmarks();
    captureTrace(path, all[0].name);
    const std::vector<runner::BatchJob> jobs = {
        makeJob(workloads::traceUri(path), sim::MetricsOptions{})};

    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);
    ASSERT_TRUE(cold[0].ok) << cold[0].error;
    EXPECT_EQ(cold[0].cacheStatus, runner::CacheStatus::Miss);

    // Another program under the same recipe: the key still finds the
    // old entry, but the trace's new pins reject it.
    captureTrace(path, all[1].name);
    const std::vector<runner::JobResult> solo = runBatch(jobs);
    ASSERT_TRUE(solo[0].ok) << solo[0].error;
    ASSERT_NE(solo[0].snapshot.result.cycles,
              cold[0].snapshot.result.cycles);

    const std::vector<runner::JobResult> rerun = runBatch(jobs, config);
    EXPECT_EQ(rerun[0].fingerprint, cold[0].fingerprint);
    EXPECT_TRUE(rerun[0].ok) << rerun[0].error;
    EXPECT_EQ(rerun[0].cacheStatus, runner::CacheStatus::Miss);
    EXPECT_EQ(rerun[0].attempts, 1u);
    expectIdenticalSlots(rerun, solo);

    // The fresh run replaced the stale entry.
    const std::vector<runner::JobResult> warm = runBatch(jobs, config);
    EXPECT_EQ(warm[0].cacheStatus, runner::CacheStatus::Hit);
    expectIdenticalSlots(warm, solo);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Sharding: a stable workload partition sharing one cache.
// ---------------------------------------------------------------------

TEST(Sharding, ShardsPartitionExactlyOnceAndShareTheCache)
{
    const std::string dir = freshCacheDir("result_cache_shards");
    const std::vector<runner::BatchJob> jobs = smallCampaign(5);

    for (unsigned k = 0; k < 2; ++k) {
        runner::BatchConfig config;
        config.cacheDir = dir;
        config.shard = {k, 2};
        const std::vector<runner::JobResult> part =
            runBatch(jobs, config);
        for (size_t i = 0; i < part.size(); ++i) {
            SCOPED_TRACE(strprintf("shard %u job %zu", k, i));
            if (i % 2 == k) {
                EXPECT_FALSE(part[i].skipped);
                EXPECT_TRUE(part[i].ok) << part[i].error;
                EXPECT_EQ(part[i].cacheStatus,
                          runner::CacheStatus::Miss);
            } else {
                // Out-of-shard: untouched slot, not a failure.
                EXPECT_TRUE(part[i].skipped);
                EXPECT_FALSE(part[i].ok);
                EXPECT_TRUE(part[i].error.empty());
                EXPECT_EQ(part[i].attempts, 0u);
            }
        }
    }

    // The two shards covered the campaign exactly once; an unsharded
    // warm run over the shared cache simulates nothing and matches a
    // cache-free reference bit for bit.
    EXPECT_EQ(countEntries(dir), jobs.size());
    runner::BatchConfig warm_config;
    warm_config.cacheDir = dir;
    const std::vector<runner::JobResult> warm =
        runBatch(jobs, warm_config);
    for (const runner::JobResult &r : warm) {
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Hit);
        EXPECT_EQ(r.attempts, 0u);
    }
    expectIdenticalSlots(warm, runBatch(jobs));
}

TEST(Sharding, FusionGroupsNeverSpanShards)
{
    // Two workloads, each with a fig8 (TOL-module pipe) and a fig10
    // (TOL-only + APP-only pipes) job, interleaved so that a job-index
    // partition would split every fusion group across the two shards.
    // Each shard then would store single-pipe entries, and the union
    // key an unsharded run looks up would never be written.
    const std::string dir = freshCacheDir("result_cache_shard_groups");
    const auto &all = workloads::allBenchmarks();
    std::vector<runner::BatchJob> jobs;
    for (size_t w = 0; w < 2; ++w) {
        for (const bool module : {true, false}) {
            runner::BatchJob job = makeJob(
                workloads::syntheticUri(all[w].name), smallOptions(40'000));
            job.options.tolModulePipe = module;
            job.options.tolOnlyPipe = !module;
            job.options.appOnlyPipe = !module;
            jobs.push_back(std::move(job));
        }
    }

    for (unsigned k = 0; k < 2; ++k) {
        runner::BatchConfig config;
        config.cacheDir = dir;
        config.shard = {k, 2};
        const std::vector<runner::JobResult> part =
            runBatch(jobs, config);
        for (size_t i = 0; i < part.size(); ++i) {
            SCOPED_TRACE(strprintf("shard %u job %zu", k, i));
            // Both jobs of workload k, and nothing else.
            EXPECT_EQ(part[i].skipped, i / 2 != k);
            if (!part[i].skipped) {
                EXPECT_TRUE(part[i].ok) << part[i].error;
            }
        }
    }

    // Every group was stored whole: an unsharded run hits each one
    // and simulates nothing.
    runner::BatchConfig warm_config;
    warm_config.cacheDir = dir;
    const std::vector<runner::JobResult> warm =
        runBatch(jobs, warm_config);
    EXPECT_EQ(totalAttempts(warm), 0u);
    for (size_t i = 0; i < warm.size(); ++i) {
        SCOPED_TRACE(strprintf("job %zu", i));
        EXPECT_EQ(warm[i].cacheStatus, i % 2 == 0
                                           ? runner::CacheStatus::Hit
                                           : runner::CacheStatus::None);
        EXPECT_EQ(warm[i].fused, i % 2 == 1);
    }
    expectIdenticalSlots(warm, runBatch(jobs));
}

// ---------------------------------------------------------------------
// Invalidation: every component of the key misses on change.
// ---------------------------------------------------------------------

TEST(Invalidation, EngineVersionBumpMisses)
{
    const std::string dir = freshCacheDir("result_cache_engine");
    runner::ResultCache cache(dir);

    const sim::RunSnapshot snap = denseSnapshot();
    runner::CacheKey old_key{"source://synthetic/x", 0x1234,
                             "darco-engine-0"};
    ASSERT_TRUE(cache.store(old_key, snap));

    // Same workload, same fingerprint, current engine: miss.
    runner::CacheKey key = old_key;
    key.engine = runner::kEngineVersion;
    EXPECT_FALSE(cache.lookup(key).has_value());
    // The old engine's entry is still addressable under its own key.
    EXPECT_TRUE(cache.lookup(old_key).has_value());
}

TEST(Invalidation, VersionOneEntryIsAMissAndIsReplaced)
{
    const std::string dir = freshCacheDir("result_cache_version1");
    const std::vector<runner::BatchJob> jobs = smallCampaign(1);
    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);
    ASSERT_TRUE(cold[0].ok);

    // The same entry as the previous format wrote it: version 1,
    // sealed with byte-serial FNV-1a.
    runner::ResultCache cache(dir);
    const std::string path = cache.entryPath(keyFor(cold[0]));
    const std::string stored = readFile(path);
    const std::string v2 = "{\"darco_cache\":2,";
    ASSERT_TRUE(stored.starts_with(v2));
    const size_t seal = stored.rfind(",\"csum\":");
    const std::string body = "{\"darco_cache\":1," +
                             stored.substr(v2.size(), seal - v2.size());
    writeFile(path, body + strprintf(",\"csum\":\"%016llx\"}\n",
                                     static_cast<unsigned long long>(
                                         runner::codec::hashString(body))));

    EXPECT_FALSE(cache.lookup(keyFor(cold[0])).has_value());
    const std::vector<runner::JobResult> rerun = runBatch(jobs, config);
    EXPECT_EQ(rerun[0].cacheStatus, runner::CacheStatus::Miss);
    expectIdenticalSlots(rerun, cold);
    EXPECT_EQ(readFile(path), stored);
    EXPECT_TRUE(cache.lookup(keyFor(cold[0])).has_value());
}

TEST(Invalidation, AnyOptionsChangeMisses)
{
    const std::string dir = freshCacheDir("result_cache_options");
    const std::vector<runner::BatchJob> jobs = smallCampaign(1);

    runner::BatchConfig config;
    config.cacheDir = dir;
    ASSERT_TRUE(runBatch(jobs, config)[0].ok);

    // The fingerprint folds in every effective MetricsOptions field:
    // spot-check several very different knobs.
    const std::string &wl = jobs[0].workload;
    const sim::MetricsOptions base = smallOptions(40'000);
    const uint64_t fp =
        runner::configFingerprint(base, wl, false);
    EXPECT_EQ(runner::configFingerprint(base, wl, false), fp);
    {
        sim::MetricsOptions o = base;
        o.guestBudget = 50'000;
        EXPECT_NE(runner::configFingerprint(o, wl, false), fp);
    }
    {
        sim::MetricsOptions o = base;
        o.profile = true;
        EXPECT_NE(runner::configFingerprint(o, wl, false), fp);
    }
    {
        sim::MetricsOptions o = base;
        o.timingConfig.issueWidth += 1;
        EXPECT_NE(runner::configFingerprint(o, wl, false), fp);
    }
    {
        sim::MetricsOptions o = base;
        o.tolConfig.enableIbtc = !o.tolConfig.enableIbtc;
        EXPECT_NE(runner::configFingerprint(o, wl, false), fp);
    }
    {
        sim::MetricsOptions o = base;
        o.timingConfig.l1d.sizeBytes *= 2;
        EXPECT_NE(runner::configFingerprint(o, wl, false), fp);
    }
    // The workload string and requireHalt are part of the experiment
    // definition too.
    EXPECT_NE(runner::configFingerprint(base, wl + "x", false), fp);
    EXPECT_NE(runner::configFingerprint(base, wl, true), fp);
    // The cancel token is runtime wiring, not experiment identity.
    {
        common::CancelToken token;
        sim::MetricsOptions o = base;
        o.cancel = &token;
        EXPECT_EQ(runner::configFingerprint(o, wl, false), fp);
    }

    // End to end: the changed-budget campaign misses.
    std::vector<runner::BatchJob> changed = jobs;
    changed[0].options.guestBudget = 50'000;
    const std::vector<runner::JobResult> rerun =
        runBatch(changed, config);
    EXPECT_EQ(rerun[0].cacheStatus, runner::CacheStatus::Miss);
}

TEST(Invalidation, WorkloadIdentityChangeMisses)
{
    const std::string dir = freshCacheDir("result_cache_workload");
    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> first =
        runBatch(smallCampaign(1), config);
    ASSERT_TRUE(first[0].ok);

    // A different benchmark under the same options: its own key,
    // never the first benchmark's entry.
    const auto &all = workloads::allBenchmarks();
    ASSERT_GE(all.size(), 2u);
    std::vector<runner::BatchJob> other;
    other.push_back(makeJob(workloads::syntheticUri(all[1].name),
                            smallOptions(40'000)));
    const std::vector<runner::JobResult> second =
        runBatch(other, config);
    EXPECT_EQ(second[0].cacheStatus, runner::CacheStatus::Miss);
    EXPECT_NE(second[0].fingerprint, first[0].fingerprint);
}

// ---------------------------------------------------------------------
// Damaged entries: rejected structurally, re-simulated, replaced.
// ---------------------------------------------------------------------

namespace {

enum class Damage { Truncate, BitFlip, Torn, Trailing };

void
damageAndRerun(Damage damage, const char *dir_name)
{
    const std::string dir = freshCacheDir(dir_name);
    const std::vector<runner::BatchJob> jobs = smallCampaign(1);
    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);
    ASSERT_TRUE(cold[0].ok);

    runner::ResultCache cache(dir);
    const std::string path = cache.entryPath(keyFor(cold[0]));
    std::string data = readFile(path);
    ASSERT_FALSE(data.empty());
    switch (damage) {
      case Damage::Truncate:
        data.resize(data.size() / 3);
        break;
      case Damage::BitFlip:
        data[data.size() / 2] ^= 0x10;
        break;
      case Damage::Torn:
        // A torn concurrent write never happens through the atomic
        // rename path, but a crashed copy or a failing disk can
        // still produce one: half an entry, no newline.
        data = data.substr(0, data.size() / 2) + "\n";
        break;
      case Damage::Trailing:
        // A valid line is not a valid entry when more follows it: the
        // file is not what store() wrote (here, a doubled append).
        data += data;
        break;
    }
    writeFile(path, data);

    // The damaged entry is never returned: the job re-simulates
    // (miss), produces the same numbers, and replaces the entry.
    const std::vector<runner::JobResult> rerun =
        runBatch(jobs, config);
    EXPECT_TRUE(rerun[0].ok) << rerun[0].error;
    EXPECT_EQ(rerun[0].cacheStatus, runner::CacheStatus::Miss);
    EXPECT_GE(rerun[0].attempts, 1u);
    expectIdenticalSlots(rerun, cold);

    // The replacement entry is valid again.
    EXPECT_TRUE(cache.lookup(keyFor(cold[0])).has_value());
}

} // namespace

TEST(DamagedEntries, TruncatedEntryIsRejectedAndResimulated)
{
    damageAndRerun(Damage::Truncate, "result_cache_truncate");
}

TEST(DamagedEntries, BitFlippedEntryIsRejectedAndResimulated)
{
    damageAndRerun(Damage::BitFlip, "result_cache_bitflip");
}

TEST(DamagedEntries, TornEntryIsRejectedAndResimulated)
{
    damageAndRerun(Damage::Torn, "result_cache_torn");
}

TEST(DamagedEntries, TrailingBytesAreRejectedAndResimulated)
{
    damageAndRerun(Damage::Trailing, "result_cache_trailing");
}

TEST(DamagedEntries, EveryByteFlipAndTruncationIsRejectedUnresealed)
{
    const std::string dir = freshCacheDir("result_cache_every_byte");
    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold =
        runBatch(smallCampaign(1), config);
    ASSERT_TRUE(cold[0].ok);
    const std::string stored =
        readFile(runner::ResultCache(dir).entryPath(keyFor(cold[0])));
    ASSERT_TRUE(stored.ends_with("\n"));
    const std::string line = stored.substr(0, stored.size() - 1);
    ASSERT_TRUE(runner::decodeEntry(line).has_value());

    // One bit per byte, cycling through the bit positions: the seal
    // changes whenever one word does, so no flip may authenticate.
    size_t accepted = 0;
    for (size_t i = 0; i < line.size(); ++i) {
        std::string flipped = line;
        flipped[i] = static_cast<char>(flipped[i] ^ (1u << (i % 8)));
        accepted += runner::decodeEntry(flipped).has_value();
    }
    for (size_t n = 0; n < line.size(); ++n)
        accepted += runner::decodeEntry(line.substr(0, n)).has_value();
    EXPECT_EQ(accepted, 0u);
}

namespace {

/**
 * The checksum is recomputable, so an entry can authenticate and still
 * carry a value no run produced. Apply @p edit to the body of the cold
 * entry of @p jobs' first job, reseal it, and check the lookup rejects
 * it and the job re-simulates to the same numbers, replacing the
 * entry.
 */
void
resealAndRerun(const char *dir_name,
               const std::vector<runner::BatchJob> &jobs,
               const std::function<void(std::string &body)> &edit)
{
    const std::string dir = freshCacheDir(dir_name);
    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);
    ASSERT_TRUE(cold[0].ok);

    runner::ResultCache cache(dir);
    const std::string path = cache.entryPath(keyFor(cold[0]));
    const std::string stored = readFile(path);
    std::string line = stored.substr(0, stored.rfind(",\"csum\":"));
    // The seal is recomputable: the unedited body reseals to the
    // stored entry, so only the edit can make the lookup reject it.
    ASSERT_EQ(runner::codec::sealLine(line) + "\n", stored);
    edit(line);
    writeFile(path, runner::codec::sealLine(line) + "\n");

    EXPECT_FALSE(cache.lookup(keyFor(cold[0])).has_value());
    const std::vector<runner::JobResult> rerun = runBatch(jobs, config);
    EXPECT_TRUE(rerun[0].ok) << rerun[0].error;
    EXPECT_EQ(rerun[0].cacheStatus, runner::CacheStatus::Miss);
    expectIdenticalSlots(rerun, cold);
    EXPECT_TRUE(cache.lookup(keyFor(cold[0])).has_value());
}

/** Edit the hex string stored under @p key in a body. */
void
editHex(std::string &body, const char *key,
        const std::function<void(std::string &hex)> &edit)
{
    const std::string pat = strprintf("\"%s\":\"", key);
    ASSERT_NE(body.find(pat), std::string::npos) << key;
    const size_t from = body.find(pat) + pat.size();
    std::string hex = body.substr(from, body.find('"', from) - from);
    edit(hex);
    body.replace(from, body.find('"', from) - from, hex);
}

/**
 * The profile hex (runner::codec's profileHex) is a run of 16-digit
 * u64 fields: lineBytes, cold accesses, the reuse-distance count,
 * (distance, count) pairs, three branch totals, the site count, then
 * six fields per site, the last its flags.
 */
constexpr size_t kU64Hex = 16;
constexpr size_t kReuseCountAt = 2 * kU64Hex;
constexpr size_t kReusePairsAt = 3 * kU64Hex;
constexpr size_t kSiteHex = 6 * kU64Hex;

uint64_t
u64At(const std::string &hex, size_t at)
{
    return std::stoull(hex.substr(at, kU64Hex), nullptr, 16);
}

/** Offset of the first branch site in a profile hex. */
size_t
sitesAt(const std::string &hex)
{
    return kReusePairsAt + u64At(hex, kReuseCountAt) * 2 * kU64Hex +
           4 * kU64Hex;
}

/** A one-workload job with the characterization profile on. */
std::vector<runner::BatchJob>
profiledJob()
{
    std::vector<runner::BatchJob> jobs = smallCampaign(1);
    jobs[0].options.profile = true;
    return jobs;
}

} // namespace

TEST(DamagedEntries, ResealedOutOfRangeValueIsRejectedAndResimulated)
{
    // One past UINT64_MAX (which a saturating parse would read as
    // UINT64_MAX), or digits followed by junk (which a prefix parse
    // would read as 12).
    for (const char *bad : {"18446744073709551616", "12x"}) {
        SCOPED_TRACE(bad);
        resealAndRerun("result_cache_reseal", smallCampaign(1),
                       [bad](std::string &body) {
            const std::string key = "\"guest_retired\":";
            const size_t from = body.find(key) + key.size();
            body.replace(from, body.find(',', from) - from, bad);
        });
    }
}

TEST(DamagedEntries, DuplicatedReuseDistanceIsRejectedAndResimulated)
{
    // A map would merge the copy, so the entry would decode to a run
    // whose re-encoding differs from the file.
    resealAndRerun("result_cache_reuse_dup", profiledJob(),
                   [](std::string &body) {
        editHex(body, "profile", [](std::string &hex) {
            const uint64_t n = u64At(hex, kReuseCountAt);
            ASSERT_GE(n, 1u);
            hex.insert(kReusePairsAt + 2 * kU64Hex,
                       hex.substr(kReusePairsAt, 2 * kU64Hex));
            hex.replace(kReuseCountAt, kU64Hex,
                        strprintf("%016llx",
                                  static_cast<unsigned long long>(n + 1)));
        });
    });
}

TEST(DamagedEntries, SwappedBranchSitesAreRejectedAndResimulated)
{
    resealAndRerun("result_cache_site_swap", profiledJob(),
                   [](std::string &body) {
        editHex(body, "profile", [](std::string &hex) {
            const size_t at = sitesAt(hex);
            ASSERT_GE(u64At(hex, at - kU64Hex), 2u);
            const std::string first = hex.substr(at, kSiteHex);
            hex.replace(at, kSiteHex, hex.substr(at + kSiteHex, kSiteHex));
            hex.replace(at + kSiteHex, kSiteHex, first);
        });
    });
}

TEST(DamagedEntries, UnknownBranchSiteFlagsAreRejectedAndResimulated)
{
    resealAndRerun("result_cache_site_flags", profiledJob(),
                   [](std::string &body) {
        editHex(body, "profile", [](std::string &hex) {
            const size_t at = sitesAt(hex);
            ASSERT_GE(u64At(hex, at - kU64Hex), 1u);
            // The first site's flags: the bit past isCond|isIndirect.
            const size_t flags = at + kSiteHex - kU64Hex;
            ASSERT_LE(u64At(hex, flags), 3u);
            hex[flags + kU64Hex - 1] = static_cast<char>(
                hex[flags + kU64Hex - 1] + 4);
        });
    });
}

// ---------------------------------------------------------------------
// Decoder mutation: resealed corruptions never decode to anything but
// the line they are.
// ---------------------------------------------------------------------

namespace {

/** Offsets where a body's fields start: after `{` and at each `,"`
 *  (escaped strings never hold a raw `,"`, so these are all). */
std::vector<size_t>
fieldStarts(const std::string &body)
{
    std::vector<size_t> starts{1};
    for (size_t at = body.find(",\""); at != std::string::npos;
         at = body.find(",\"", at + 1)) {
        starts.push_back(at + 1);
    }
    starts.push_back(body.size() + 1);
    return starts;
}

/** Field i of @p body, with its leading separator. */
std::string
fieldAt(const std::string &body, const std::vector<size_t> &starts,
        size_t i)
{
    return body.substr(starts[i] - 1, starts[i + 1] - starts[i]);
}

/** Apply one seeded corruption to an entry body (seal stripped). */
std::string
mutateBody(std::string body, Prng &rng)
{
    // Bytes the format is made of, so inserts often stay plausible.
    static const std::string kAlphabet = "0123456789abcdefABF\",:{}\\u -";
    const auto pos = [&](size_t end) {
        return static_cast<size_t>(rng.below(end));
    };
    const std::vector<size_t> starts = fieldStarts(body);
    const size_t fields = starts.size() - 1;
    // Byte edits land in a field drawn uniformly, so the short scalar
    // fields see as many as the long hex blobs.
    const size_t f = pos(fields);
    const auto in_field = [&]() {
        return starts[f] - 1 + pos(starts[f + 1] - starts[f]);
    };
    switch (rng.below(5)) {
      case 0:  // flip one bit
        body[in_field()] ^= static_cast<char>(1u << rng.below(8));
        break;
      case 1:  // insert 1-3 bytes
        for (uint64_t n = 1 + rng.below(3); n > 0; --n) {
            body.insert(in_field(), 1,
                        rng.chance(0.8) ? kAlphabet[pos(kAlphabet.size())]
                                        : static_cast<char>(rng.below(256)));
        }
        break;
      case 2:  // delete 1-16 bytes
        body.erase(in_field(), 1 + rng.below(16));
        break;
      case 3: {  // duplicate a field in place
        const size_t i = 1 + pos(fields - 1);
        body.insert(starts[i] - 1, fieldAt(body, starts, i));
        break;
      }
      default: {  // swap two fields
        const size_t i = 1 + pos(fields - 1);
        const size_t j = 1 + pos(fields - 1);
        if (i == j)
            break;
        const size_t lo = std::min(i, j);
        const size_t hi = std::max(i, j);
        body = body.substr(0, starts[lo] - 1) + fieldAt(body, starts, hi) +
               body.substr(starts[lo + 1] - 1,
                           starts[hi] - starts[lo + 1]) +
               fieldAt(body, starts, lo) + body.substr(starts[hi + 1] - 1);
        break;
      }
    }
    return body;
}

} // namespace

TEST(DecoderMutation, AcceptedEntriesReencodeByteForByte)
{
    sim::RunSnapshot base = distinctSnapshot();
    sim::projectPipes(base, 0);
    // A workload string that exercises every escape the writer emits.
    const runner::CacheKey key{"source://trace/a\"b\\c\x01\x1f.dtrc",
                               0x0123456789abcdefull,
                               std::string(runner::kEngineVersion)};
    const std::vector<std::pair<const char *, sim::RunSnapshot>> seeds = {
        {"base", base},
        {"three pipes", distinctSnapshot()},
        {"profile", denseSnapshot()},
    };

    Prng rng(0xC0DEC);
    size_t accepted = 0;
    size_t rejected = 0;
    for (const auto &[name, snap] : seeds) {
        SCOPED_TRACE(name);
        const std::string line = runner::encodeEntry(key, snap);
        const auto intact = runner::decodeEntry(line);
        ASSERT_TRUE(intact.has_value());
        ASSERT_EQ(runner::encodeEntry(intact->key, intact->snapshot), line);
        const std::string body = line.substr(0, line.rfind(",\"csum\":"));
        for (int i = 0; i < 4000; ++i) {
            const std::string mutated =
                runner::codec::sealLine(mutateBody(body, rng));
            const auto entry = runner::decodeEntry(mutated);
            if (!entry) {
                ++rejected;
                continue;
            }
            ++accepted;
            const std::string again =
                runner::encodeEntry(entry->key, entry->snapshot);
            if (again != mutated) {
                const size_t at = static_cast<size_t>(
                    std::mismatch(again.begin(), again.end(),
                                  mutated.begin(), mutated.end())
                        .first -
                    again.begin());
                const size_t from = at < 40 ? 0 : at - 40;
                FAIL() << "mutation " << i
                       << " decoded to a different line; accepted: ..."
                       << mutated.substr(from, 80) << "...; re-encoded: ..."
                       << again.substr(from, 80) << "...";
            }
        }
    }
    // Both outcomes occur: hex-digit flips decode to other values,
    // structural damage is rejected.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 4000u);
}

// ---------------------------------------------------------------------
// Intra-batch dedup: duplicate-fingerprint jobs simulate once.
// ---------------------------------------------------------------------

TEST(Dedup, DuplicateJobsSimulateOnceAndFanOutBitIdentically)
{
    const auto &all = workloads::allBenchmarks();
    const std::string uri_a = workloads::syntheticUri(all[0].name);
    const std::string uri_b = workloads::syntheticUri(all[1].name);

    // Three copies of A, one B, then another A copy — leaders must
    // be the lowest index of each fingerprint group.
    std::vector<runner::BatchJob> jobs;
    jobs.push_back(makeJob(uri_a, smallOptions(40'000)));
    jobs.push_back(makeJob(uri_a, smallOptions(40'000)));
    jobs.push_back(makeJob(uri_b, smallOptions(40'000)));
    jobs.push_back(makeJob(uri_a, smallOptions(40'000)));
    // Same workload, different budget: a different fingerprint, so
    // NOT part of the dedup group.
    jobs.push_back(makeJob(uri_a, smallOptions(60'000)));

    for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(strprintf("%u worker(s)", workers));
        runner::BatchConfig config;
        config.workers = workers;
        const std::vector<runner::JobResult> got =
            runBatch(jobs, config);

        ASSERT_EQ(got.size(), jobs.size());
        EXPECT_FALSE(got[0].deduped);  // leader simulated
        EXPECT_GE(got[0].attempts, 1u);
        EXPECT_TRUE(got[1].deduped);
        EXPECT_EQ(got[1].attempts, 0u);
        EXPECT_FALSE(got[2].deduped);  // only B in its group
        EXPECT_TRUE(got[3].deduped);
        EXPECT_EQ(got[3].attempts, 0u);
        EXPECT_FALSE(got[4].deduped);  // different fingerprint
        EXPECT_GE(got[4].attempts, 1u);

        // Bit-identical to running every slot independently.
        std::vector<runner::JobResult> independent;
        for (const runner::BatchJob &job : jobs) {
            independent.push_back(
                runBatch(std::vector<runner::BatchJob>{job})[0]);
        }
        expectIdenticalSlots(got, independent);
    }
}

// ---------------------------------------------------------------------
// Pipe fusion: one functional run per (workload, config) feeds every
// figure's pipe set.
// ---------------------------------------------------------------------

namespace {

/** The fig5-fig11 option sets: only the isolation pipes differ. */
struct Figure
{
    bool tolOnly;
    bool appOnly;
    bool tolModule;
};

constexpr Figure kFigures[] = {
    {false, false, false},  // fig5
    {false, false, false},  // fig6
    {false, false, false},  // fig7
    {false, false, true},   // fig8: TOL-module pipe
    {false, false, false},  // fig9
    {true, true, false},    // fig10: TOL-only + APP-only pipes
    {true, true, false},    // fig11
};
constexpr size_t kFig5 = 0, kFig8 = 3, kFig10 = 5;
constexpr size_t kNumFigures = std::size(kFigures);

/** Figure-major campaign over the workloads @p uris, figures listed
 *  in @p order (indices into kFigures). */
std::vector<runner::BatchJob>
campaignOver(const std::vector<std::string> &uris,
             const std::vector<size_t> &order)
{
    std::vector<runner::BatchJob> jobs;
    for (const size_t fig : order) {
        for (const std::string &uri : uris) {
            runner::BatchJob job = makeJob(uri, smallOptions(40'000));
            job.options.tolOnlyPipe = kFigures[fig].tolOnly;
            job.options.appOnlyPipe = kFigures[fig].appOnly;
            job.options.tolModulePipe = kFigures[fig].tolModule;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/** campaignOver the first @p count synthetic benchmarks. */
std::vector<runner::BatchJob>
campaign(size_t count, const std::vector<size_t> &order)
{
    const auto &all = workloads::allBenchmarks();
    std::vector<std::string> uris;
    for (size_t w = 0; w < count; ++w)
        uris.push_back(workloads::syntheticUri(all[w].name));
    return campaignOver(uris, order);
}

std::vector<size_t>
jobOrder()
{
    std::vector<size_t> order(kNumFigures);
    for (size_t f = 0; f < kNumFigures; ++f)
        order[f] = f;
    return order;
}

/** Every job in a batch of its own: the fusion reference. */
std::vector<runner::JobResult>
soloResults(const std::vector<runner::BatchJob> &jobs)
{
    std::vector<runner::JobResult> solo;
    for (const runner::BatchJob &job : jobs)
        solo.push_back(runBatch(std::vector<runner::BatchJob>{job})[0]);
    return solo;
}

} // namespace

TEST(Fusion, CampaignShapedBatchSimulatesOncePerWorkload)
{
    constexpr size_t kWorkloads = 2;
    const std::vector<runner::BatchJob> jobs =
        campaign(kWorkloads, jobOrder());
    const std::vector<runner::JobResult> solo = soloResults(jobs);

    for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(strprintf("%u worker(s)", workers));
        runner::BatchConfig config;
        config.workers = workers;
        const std::vector<runner::JobResult> got =
            runBatch(jobs, config);
        expectIdenticalSlots(got, solo);
        EXPECT_EQ(totalAttempts(got), kWorkloads);
        for (size_t i = 0; i < got.size(); ++i) {
            const size_t fig = i / kWorkloads;
            SCOPED_TRACE(strprintf("fig%zu", fig + 5));
            // A copy of an earlier slot with the same exact
            // fingerprint is deduped; a slot covered by the fig5
            // run with a different pipe set is fused.
            const bool copy = fig != kFig5 && fig != kFig8 &&
                              fig != kFig10;
            EXPECT_EQ(got[i].deduped, copy);
            EXPECT_EQ(got[i].fused, fig == kFig8 || fig == kFig10);
            EXPECT_EQ(got[i].attempts, fig == kFig5 ? 1u : 0u);
            EXPECT_EQ(got[i].cacheStatus, runner::CacheStatus::None);
        }
    }
}

TEST(Fusion, GroupIsCachedAsItsFusedRun)
{
    constexpr size_t kWorkloads = 2;
    const std::string dir = freshCacheDir("result_cache_fusion");
    const std::string base_dir =
        freshCacheDir("result_cache_fusion_base");
    const std::vector<runner::BatchJob> jobs =
        campaign(kWorkloads, jobOrder());

    // Cold: the fig5 slot leads each group and reports its one run
    // as the group's only lookup.
    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);
    expectIdenticalSlots(cold, soloResults(jobs));
    EXPECT_EQ(totalAttempts(cold), kWorkloads);
    for (size_t i = 0; i < cold.size(); ++i) {
        const size_t fig = i / kWorkloads;
        SCOPED_TRACE(strprintf("cold fig%zu", fig + 5));
        EXPECT_EQ(cold[i].cacheStatus, fig == kFig5
                                           ? runner::CacheStatus::Miss
                                           : runner::CacheStatus::None);
    }

    // Two entries per workload: the union run, and its base
    // projection — byte-identical to what a base-only batch stores.
    EXPECT_EQ(countFiles(dir, false), 2 * kWorkloads);
    runner::BatchConfig base_config;
    base_config.cacheDir = base_dir;
    const std::vector<runner::BatchJob> base_jobs(
        jobs.begin(), jobs.begin() + kWorkloads);
    const std::vector<runner::JobResult> base =
        runBatch(base_jobs, base_config);
    EXPECT_EQ(countFiles(base_dir, false), kWorkloads);
    runner::ResultCache fused_cache(dir), base_cache(base_dir);
    for (const runner::JobResult &r : base) {
        SCOPED_TRACE(r.uri);
        EXPECT_EQ(readFile(fused_cache.entryPath(keyFor(r))),
                  readFile(base_cache.entryPath(keyFor(r))));
    }

    // Warm: one hit per workload covers every member; nothing runs.
    const std::vector<runner::JobResult> warm = runBatch(jobs, config);
    expectIdenticalSlots(warm, cold);
    EXPECT_EQ(totalAttempts(warm), 0u);
    for (size_t i = 0; i < warm.size(); ++i) {
        const size_t fig = i / kWorkloads;
        SCOPED_TRACE(strprintf("warm fig%zu", fig + 5));
        EXPECT_EQ(warm[i].cacheStatus, fig == kFig5
                                           ? runner::CacheStatus::Hit
                                           : runner::CacheStatus::None);
        EXPECT_EQ(warm[i].fused, fig == kFig8 || fig == kFig10);
        EXPECT_EQ(warm[i].deduped,
                  fig != kFig5 && fig != kFig8 && fig != kFig10);
    }
    EXPECT_EQ(countFiles(dir, false), 2 * kWorkloads);

    // A base-only batch over the campaign's cache hits too.
    const std::vector<runner::JobResult> base_warm =
        runBatch(base_jobs, config);
    for (const runner::JobResult &r : base_warm)
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Hit);
    expectIdenticalSlots(base_warm, base);
}

TEST(Fusion, FailedFusedRunFallsBackToSoloRuns)
{
    constexpr size_t kWorkloads = 2;
    const std::vector<runner::BatchJob> jobs =
        campaign(kWorkloads, jobOrder());
    const std::vector<runner::JobResult> solo = soloResults(jobs);

    // The first run of a serial batch is workload 0's fused run.
    faultinject::disarmAll();
    faultinject::arm(faultinject::Point::MidRunThrow, 1);
    runner::BatchConfig config;
    config.workers = 1;
    const std::vector<runner::JobResult> got = runBatch(jobs, config);
    EXPECT_EQ(faultinject::pending(faultinject::Point::MidRunThrow), 0u);
    faultinject::disarmAll();

    for (const runner::JobResult &r : got)
        EXPECT_TRUE(r.ok) << r.error;
    expectIdenticalSlots(got, solo);
    // Workload 0's seven members each ran solo; workload 1 fused.
    for (size_t fig = 0; fig < kNumFigures; ++fig) {
        SCOPED_TRACE(strprintf("fig%zu", fig + 5));
        const runner::JobResult &r = got[fig * kWorkloads];
        EXPECT_EQ(r.attempts, 1u);
        EXPECT_FALSE(r.deduped);
        EXPECT_FALSE(r.fused);
    }
    EXPECT_EQ(totalAttempts(got), kNumFigures + 1);
}

TEST(Fusion, RunAMemberRejectsIsNeverStored)
{
    // A base job and its fig10 twin pinned to impossible values: the
    // twin fails its pins, the base job succeeds, and the group's run
    // is not cached, just as a solo run that fails its pins is not.
    const std::string dir = freshCacheDir("result_cache_fusion_bad_pins");
    std::vector<runner::BatchJob> jobs = campaign(1, {kFig5, kFig10});
    jobs[1].expectedPins = trace::TracePins{};
    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> got = runBatch(jobs, config);
    EXPECT_TRUE(got[0].ok) << got[0].error;
    EXPECT_EQ(got[0].cacheStatus, runner::CacheStatus::Miss);
    EXPECT_FALSE(got[1].ok);
    EXPECT_NE(got[1].error.find("expected pin mismatch"), std::string::npos)
        << got[1].error;
    EXPECT_EQ(totalAttempts(got), 1u);
    EXPECT_EQ(countEntries(dir), 0u);
}

TEST(Fusion, IsolationJobListedFirstStillHitsTheCache)
{
    constexpr size_t kWorkloads = 2;
    // fig10 moved to the front: an isolation member leads each group.
    const std::vector<size_t> order = {kFig10, 0, 1, 2, 3, 4, 6};
    const std::vector<runner::BatchJob> in_order =
        campaign(kWorkloads, jobOrder());
    const std::vector<runner::BatchJob> isolation_first =
        campaign(kWorkloads, order);

    // The in-order batch fills the cache; the reordered batch then
    // runs warm against it. The group key is the union run's config,
    // which does not depend on job order: every group hits.
    runner::BatchConfig config;
    config.cacheDir = freshCacheDir("result_cache_fusion_iso_first");
    const std::vector<runner::JobResult> reference =
        runBatch(in_order, config);
    const std::vector<runner::JobResult> got =
        runBatch(isolation_first, config);
    // Slot k of the reordered batch is job order[k / W] of the
    // reference: compare each job with itself.
    std::vector<runner::JobResult> want;
    for (size_t k = 0; k < got.size(); ++k) {
        want.push_back(
            reference[order[k / kWorkloads] * kWorkloads + k % kWorkloads]);
        EXPECT_EQ(got[k].cacheStatus, k < kWorkloads
                                          ? runner::CacheStatus::Hit
                                          : runner::CacheStatus::None)
            << "slot " << k;
    }
    expectIdenticalSlots(got, want);
    EXPECT_EQ(totalAttempts(got), 0u);
}

TEST(Fusion, StaleTracePinsTurnAGroupHitIntoARun)
{
    constexpr size_t kWorkloads = 2;
    const std::string dir = freshCacheDir("result_cache_fusion_stale");
    const auto &all = workloads::allBenchmarks();
    std::vector<std::string> paths, uris;
    for (size_t w = 0; w < kWorkloads; ++w) {
        paths.push_back(
            tempPath(strprintf("result_cache_fusion_stale_%zu.dtrc", w)));
        captureTrace(paths.back(), all[w].name);
        uris.push_back(workloads::traceUri(paths.back()));
    }
    const std::vector<runner::BatchJob> jobs =
        campaignOver(uris, jobOrder());

    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);
    for (const runner::JobResult &r : cold)
        ASSERT_TRUE(r.ok) << r.error;

    // Re-capture every trace from another program under the same
    // recipe: each group key still finds its entry, whose pins no
    // longer hold for any member.
    for (size_t w = 0; w < kWorkloads; ++w)
        captureTrace(paths[w], all[w + kWorkloads].name);
    const std::vector<runner::JobResult> solo = soloResults(jobs);

    const std::vector<runner::JobResult> rerun = runBatch(jobs, config);
    for (const runner::JobResult &r : rerun)
        EXPECT_TRUE(r.ok) << r.error;
    expectIdenticalSlots(rerun, solo);
    // Exactly one simulation per group, led by its fig5 slot.
    EXPECT_EQ(totalAttempts(rerun), kWorkloads);
    for (size_t w = 0; w < kWorkloads; ++w) {
        EXPECT_EQ(rerun[w].fingerprint, cold[w].fingerprint);
        EXPECT_EQ(rerun[w].cacheStatus, runner::CacheStatus::Miss);
        EXPECT_EQ(rerun[w].attempts, 1u);
    }

    // The run replaced the stale entries: the next pass hits.
    const std::vector<runner::JobResult> warm = runBatch(jobs, config);
    expectIdenticalSlots(warm, solo);
    EXPECT_EQ(totalAttempts(warm), 0u);
    for (const std::string &path : paths)
        std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Verify-hits: honest hits are blessed, forged hits hard-fail.
// ---------------------------------------------------------------------

TEST(VerifyHits, HonestHitsVerifyCleanly)
{
    const std::string dir = freshCacheDir("result_cache_verify_ok");
    const std::vector<runner::BatchJob> jobs = smallCampaign(3);
    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);

    config.verifyHits = true;
    const std::vector<runner::JobResult> warm = runBatch(jobs, config);
    for (const runner::JobResult &r : warm) {
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Hit);
        EXPECT_TRUE(r.verifiedHit);
        // Verification re-simulates: attempts counts the audit run.
        EXPECT_GE(r.attempts, 1u);
    }
    expectIdenticalSlots(warm, cold);
}

TEST(VerifyHits, ForgedEntryHardFailsUnderVerification)
{
    const std::string dir =
        freshCacheDir("result_cache_verify_forged");
    const std::vector<runner::BatchJob> jobs = smallCampaign(1);
    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);
    ASSERT_TRUE(cold[0].ok);

    // Forge a checksummed, structurally valid entry whose cycles
    // differ by one — undetectable without re-simulation.
    runner::ResultCache cache(dir);
    sim::RunSnapshot forged = cold[0].snapshot;
    forged.result.cycles += 1;
    ASSERT_TRUE(cache.store(keyFor(cold[0]), forged));

    // Without verification the forged entry is returned: the cache
    // is trusted by design, which is exactly why verify-hits exists.
    const std::vector<runner::JobResult> trusting =
        runBatch(jobs, config);
    EXPECT_EQ(trusting[0].cacheStatus, runner::CacheStatus::Hit);
    EXPECT_EQ(trusting[0].snapshot.result.cycles,
              forged.result.cycles);

    // With verification the divergence hard-fails the job.
    config.verifyHits = true;
    const std::vector<runner::JobResult> audited =
        runBatch(jobs, config);
    EXPECT_FALSE(audited[0].ok);
    EXPECT_EQ(audited[0].cacheStatus, runner::CacheStatus::Hit);
    EXPECT_FALSE(audited[0].verifiedHit);
    EXPECT_EQ(audited[0].runError.cls, sim::RunErrorClass::Internal);
    EXPECT_NE(audited[0].error.find("verify-hits"), std::string::npos);
}

TEST(VerifyHits, ForgedIsolationStatsFailTheGroupHit)
{
    constexpr size_t kWorkloads = 2;
    const std::string dir =
        freshCacheDir("result_cache_verify_forged_isolation");
    const std::vector<runner::BatchJob> jobs =
        campaign(kWorkloads, jobOrder());
    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);

    // Forge workload 0's union entry: the campaign's pipe union is
    // all three isolation pipes, and only tol_only's cycles change.
    sim::MetricsOptions all_pipes = jobs[0].options;
    all_pipes.tolOnlyPipe = true;
    all_pipes.appOnlyPipe = true;
    all_pipes.tolModulePipe = true;
    const runner::CacheKey key{
        cold[0].uri,
        runner::configFingerprint(all_pipes, jobs[0].workload, false),
        std::string(runner::kEngineVersion)};
    runner::ResultCache cache(dir);
    std::optional<sim::RunSnapshot> forged = cache.lookup(key);
    ASSERT_TRUE(forged.has_value());
    ASSERT_TRUE(forged->tolOnly.has_value());
    forged->tolOnly->cycles += 1;
    ASSERT_TRUE(cache.store(key, *forged));

    config.verifyHits = true;
    const std::vector<runner::JobResult> audited =
        runBatch(jobs, config);
    // The leader's slot fails, naming the diverging pipe.
    EXPECT_FALSE(audited[0].ok);
    EXPECT_EQ(audited[0].cacheStatus, runner::CacheStatus::Hit);
    EXPECT_FALSE(audited[0].verifiedHit);
    EXPECT_EQ(audited[0].runError.cls, sim::RunErrorClass::Internal);
    EXPECT_NE(audited[0].error.find("verify-hits"), std::string::npos);
    EXPECT_NE(audited[0].error.find("tol_only cycles"), std::string::npos)
        << audited[0].error;
    // Every other member of that group ran solo; workload 1's group
    // is an honest, audited hit.
    for (size_t i = 1; i < audited.size(); ++i) {
        SCOPED_TRACE(strprintf("job %zu", i));
        EXPECT_TRUE(audited[i].ok) << audited[i].error;
        if (i % kWorkloads == 0) {
            EXPECT_FALSE(audited[i].deduped);
            EXPECT_FALSE(audited[i].fused);
        }
    }
    EXPECT_TRUE(audited[1].verifiedHit);
    const std::vector<runner::JobResult> others(audited.begin() + 1,
                                                audited.end());
    const std::vector<runner::JobResult> want(cold.begin() + 1,
                                              cold.end());
    expectIdenticalSlots(others, want);
}

// ---------------------------------------------------------------------
// Capture jobs: a run with a side effect is not a batch job.
// ---------------------------------------------------------------------

TEST(Bypass, CaptureJobsNeverUseTheCache)
{
    // One capture job fails the whole batch before any work, whether
    // it falls in this runner's shard or not: no job runs, no trace
    // is written and no cache entry is stored.
    const std::string dir = freshCacheDir("result_cache_capture");
    const std::string trace_path = tempPath("result_cache_capture.dtrc");
    std::remove(trace_path.c_str());

    // Workload ordinals 0 and 1: shard 0/2 holds the plain job only,
    // shard 1/2 the capture job only.
    std::vector<runner::BatchJob> jobs = smallCampaign(2);
    jobs[1].options.captureTracePath = trace_path;

    for (const runner::ShardSpec shard :
         {runner::ShardSpec{0, 1}, runner::ShardSpec{0, 2},
          runner::ShardSpec{1, 2}}) {
        SCOPED_TRACE(strprintf("shard %u/%u", shard.index, shard.count));
        runner::BatchConfig config;
        config.workers = 2;
        config.cacheDir = dir;
        config.shard = shard;
        ScopedFatalThrow fatal_throws;
        try {
            runBatch(jobs, config);
            ADD_FAILURE() << "a batch holding a capture job ran";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("snapshotRun"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_NE(::access(trace_path.c_str(), F_OK), 0);
        EXPECT_EQ(countFiles(dir, false), 0u);
    }
}

// ---------------------------------------------------------------------
// Store failure: best-effort, never a failed job or a torn entry.
// ---------------------------------------------------------------------

TEST(StoreFailure, FailedStoreKeepsTheJobAndLeavesNothingBehind)
{
    const std::string dir = freshCacheDir("result_cache_store_failure");
    const std::vector<runner::BatchJob> jobs = smallCampaign(1);
    const std::vector<runner::JobResult> reference = runBatch(jobs);

    // Cap the file size below one entry: the store's write fails with
    // EFBIG, an error return rather than the default SIGXFSZ kill.
    // (chmod cannot model a failing store: root writes through it.)
    runner::BatchConfig config;
    config.workers = 1;
    config.cacheDir = dir;
    struct rlimit old_limit{};
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
    std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit capped = old_limit;
    capped.rlim_cur = 64;
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
    const std::vector<runner::JobResult> failed = runBatch(jobs, config);
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old_limit), 0);
    std::signal(SIGXFSZ, SIG_DFL);

    // The job itself is untouched by the failed store.
    EXPECT_TRUE(failed[0].ok) << failed[0].error;
    EXPECT_EQ(failed[0].cacheStatus, runner::CacheStatus::Miss);
    expectIdenticalSlots(failed, reference);
    // Neither an entry nor the temp file survives.
    EXPECT_EQ(countFiles(dir, false), 0u);

    // Nothing was cached, so the next run simulates again.
    const std::vector<runner::JobResult> next = runBatch(jobs, config);
    EXPECT_TRUE(next[0].ok) << next[0].error;
    EXPECT_EQ(next[0].cacheStatus, runner::CacheStatus::Miss);
}
