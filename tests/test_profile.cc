/**
 * @file
 * Characterization-layer tests (src/profile/): the exact Mattson
 * stack-distance engine against a brute-force reference on random and
 * adversarial streams, closed-form histogram / branch-entropy values
 * with pencil-and-paper answers, the analytic-LRU oracle against the
 * simulated fully-associative true-LRU cache across the four paper
 * suites, mispredict-attribution parity with the pipeline's own
 * predictor, and profile plumbing through options and fingerprints
 * (codec round-tripping lives in test_result_cache.cc).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "profile/analytic.hh"
#include "profile/profile.hh"
#include "runner/result_cache.hh"
#include "sim/metrics.hh"
#include "workloads/source.hh"

using namespace darco;

namespace {

/**
 * Brute-force O(N^2) stack-distance reference: an explicit LRU stack
 * (front = most recent). The distance of a re-access is its stack
 * index — the number of distinct other lines touched since.
 */
class NaiveStack
{
  public:
    void
    access(uint64_t line)
    {
        for (size_t i = 0; i < stack.size(); ++i) {
            if (stack[i] == line) {
                ++hist.counts[i];
                stack.erase(stack.begin() + static_cast<long>(i));
                stack.insert(stack.begin(), line);
                return;
            }
        }
        ++hist.coldAccesses;
        stack.insert(stack.begin(), line);
    }

    const profile::ReuseHistogram &histogram() const { return hist; }

  private:
    std::vector<uint64_t> stack;
    profile::ReuseHistogram hist;
};

/** Deterministic 64-bit LCG (tests must not use ambient RNG). */
class Lcg
{
  public:
    explicit Lcg(uint64_t seed) : state(seed) {}

    uint64_t
    next()
    {
        state = state * 6364136223846793005ull +
                1442695040888963407ull;
        return state >> 16;
    }

  private:
    uint64_t state;
};

void
expectMatchesNaive(const std::vector<uint64_t> &lines,
                   const char *what)
{
    profile::ReuseStack fast;
    NaiveStack naive;
    for (const uint64_t line : lines) {
        fast.access(line);
        naive.access(line);
    }
    EXPECT_EQ(fast.histogram(), naive.histogram()) << what;
    EXPECT_EQ(fast.distinctLines(),
              naive.histogram().coldAccesses) << what;
}

timing::Record
memRecord(uint32_t addr, bool store = false)
{
    timing::Record rec;
    rec.memAddr = addr;
    rec.isLoad = !store;
    rec.isStore = store;
    return rec;
}

timing::Record
condBranch(uint32_t pc, bool taken)
{
    timing::Record rec;
    rec.pc = pc;
    rec.isBranch = true;
    rec.isCondBranch = true;
    rec.taken = taken;
    rec.branchTarget = taken ? pc + 64 : pc + 4;
    return rec;
}

// ---------------------------------------------------------------------
// Stack-distance engine vs brute force.
// ---------------------------------------------------------------------

TEST(ReuseStack, MatchesNaiveOnRandomStreams)
{
    // Several (footprint, length) shapes: dense reuse, sparse reuse,
    // and a footprint big enough to force Fenwick doubling.
    const struct { uint64_t space; size_t n; uint64_t seed; } shapes[] =
        {{8, 2000, 1}, {64, 5000, 2}, {1000, 4000, 3}, {3000, 6000, 4}};
    for (const auto &s : shapes) {
        Lcg rng(s.seed);
        std::vector<uint64_t> lines;
        lines.reserve(s.n);
        for (size_t i = 0; i < s.n; ++i)
            lines.push_back(rng.next() % s.space);
        expectMatchesNaive(lines, "random stream");
    }
}

TEST(ReuseStack, MatchesNaiveAcrossCompaction)
{
    // A small working set re-accessed far beyond the initial slot
    // capacity (1024): the clock crosses the capacity boundary many
    // times with mostly-dead marks, so compaction runs repeatedly.
    Lcg rng(99);
    std::vector<uint64_t> lines;
    for (size_t i = 0; i < 20000; ++i)
        lines.push_back(rng.next() % 16);
    expectMatchesNaive(lines, "compaction-crossing stream");
}

TEST(ReuseStack, MatchesNaiveAfterDoublingThenCompaction)
{
    // Phase 1 doubles the slot capacity (more than 512 live lines
    // when the clock first hits 1024); phase 2 hammers a tiny set so
    // the next boundary crossing finds mostly-dead marks and takes
    // the compaction path at the doubled capacity.
    std::vector<uint64_t> lines;
    for (uint64_t i = 0; i < 900; ++i)
        lines.push_back(i);
    Lcg rng(7);
    for (size_t i = 0; i < 6000; ++i)
        lines.push_back(rng.next() % 8);
    expectMatchesNaive(lines, "grow-then-shrink stream");
}

TEST(ReuseStack, MatchesNaiveOnAdversarialPatterns)
{
    // Cold: every access distinct.
    std::vector<uint64_t> cold;
    for (uint64_t i = 0; i < 3000; ++i)
        cold.push_back(i);
    expectMatchesNaive(cold, "all-cold stream");

    // Capacity: cyclic sweep larger than any fixed window.
    std::vector<uint64_t> cyclic;
    for (int round = 0; round < 5; ++round) {
        for (uint64_t i = 0; i < 700; ++i)
            cyclic.push_back(i);
    }
    expectMatchesNaive(cyclic, "cyclic sweep");

    // Conflict-style: two interleaved strides hammering alternately,
    // then a phase change to sawtooth (distance spectrum shifts).
    std::vector<uint64_t> conflict;
    for (uint64_t i = 0; i < 2000; ++i)
        conflict.push_back((i % 2) ? 0x1000 + (i % 37)
                                   : 0x9000 + (i % 53));
    for (uint64_t i = 0; i < 600; ++i) {
        conflict.push_back(i % 29);
        if (i % 7 == 0)
            conflict.push_back(0x1000 + (i % 37));
    }
    expectMatchesNaive(conflict, "conflict stream");
}

TEST(ReuseStack, FullWidthLineKeysProfileExactly)
{
    // Keys above 2^32 (external traces with wide addresses): the
    // engine hashes opaque u64 identifiers, so high bits must not
    // alias. Pairs differing only in bit 63 are distinct lines.
    std::vector<uint64_t> lines;
    for (int round = 0; round < 3; ++round) {
        for (uint64_t i = 0; i < 500; ++i) {
            lines.push_back(0xFFFFFFFF00000000ull + i);
            lines.push_back(i);
            lines.push_back((1ull << 63) | i);
        }
    }
    expectMatchesNaive(lines, "64-bit keys");
}

// ---------------------------------------------------------------------
// Closed-form histogram values (pencil and paper).
// ---------------------------------------------------------------------

TEST(ReuseStack, ClosedFormSequential)
{
    // Sequential: N distinct lines, never reused -> N cold, no
    // finite distances.
    profile::ReuseStack stack;
    for (uint64_t i = 0; i < 1000; ++i)
        stack.access(i);
    EXPECT_EQ(stack.histogram().coldAccesses, 1000u);
    EXPECT_TRUE(stack.histogram().counts.empty());
    EXPECT_EQ(stack.histogram().totalAccesses(), 1000u);
}

TEST(ReuseStack, ClosedFormCyclic)
{
    // Cyclic over k lines, r rounds: k cold accesses, then every
    // re-access has seen exactly the k-1 other lines since its last
    // use -> counts[k-1] == k*(r-1), nothing else.
    constexpr uint64_t k = 7, r = 40;
    profile::ReuseStack stack;
    for (uint64_t round = 0; round < r; ++round) {
        for (uint64_t i = 0; i < k; ++i)
            stack.access(i);
    }
    const profile::ReuseHistogram &hist = stack.histogram();
    EXPECT_EQ(hist.coldAccesses, k);
    ASSERT_EQ(hist.counts.size(), 1u);
    EXPECT_EQ(hist.counts.at(k - 1), k * (r - 1));
}

TEST(ReuseStack, ClosedFormStrided)
{
    // Strided repeated pass: stride-s touches over k distinct lines,
    // repeated. In line space this is cyclic over k lines, so the
    // histogram is the same single spike at k-1 — the line mapping,
    // not the byte stride, decides the distance.
    constexpr uint64_t k = 11, stride = 3, r = 20;
    profile::ReuseStack stack;
    for (uint64_t round = 0; round < r; ++round) {
        for (uint64_t i = 0; i < k; ++i)
            stack.access(0x4000 + i * stride);
    }
    const profile::ReuseHistogram &hist = stack.histogram();
    EXPECT_EQ(hist.coldAccesses, k);
    ASSERT_EQ(hist.counts.size(), 1u);
    EXPECT_EQ(hist.counts.at(k - 1), k * (r - 1));
}

TEST(ReuseStack, ClosedFormRepeatedLine)
{
    profile::ReuseStack stack;
    for (int i = 0; i < 500; ++i)
        stack.access(42);
    EXPECT_EQ(stack.histogram().coldAccesses, 1u);
    EXPECT_EQ(stack.histogram().counts.at(0), 499u);
}

TEST(Collector, LineAliasingAtLineGranularity)
{
    // Addresses inside one 64B line are the same line: interleaving
    // byte offsets within two lines yields distance 0/1 patterns,
    // never cold after the first touch of each line.
    timing::TimingConfig cfg;
    profile::Collector collector(cfg);
    // a and b are distinct lines; all offsets alias within each.
    const uint32_t a = 0x10000, b = 0x10040;
    collector.consume(memRecord(a));
    collector.consume(memRecord(a + 63));        // same line: d=0
    collector.consume(memRecord(b, true));       // cold
    collector.consume(memRecord(b + 32));        // same line: d=0
    collector.consume(memRecord(a + 17, true));  // one line between: d=1
    const profile::RunProfile prof = collector.profile();
    EXPECT_EQ(prof.lineBytes, 64u);
    EXPECT_EQ(prof.dataReuse.coldAccesses, 2u);
    EXPECT_EQ(prof.dataReuse.counts.at(0), 2u);
    EXPECT_EQ(prof.dataReuse.counts.at(1), 1u);
    // Non-memory records must not touch the data histogram.
    collector.consume(condBranch(0x100, true));
    EXPECT_EQ(collector.profile().dataReuse.totalAccesses(), 5u);
}

// ---------------------------------------------------------------------
// Closed-form branch profiles.
// ---------------------------------------------------------------------

TEST(BranchProfile, ClosedFormEntropyAndTransitions)
{
    timing::TimingConfig cfg;
    profile::BranchCollector collector(cfg);

    // Site A: always taken, 100 execs -> entropy exactly 0, no
    // transitions. Site B: perfectly alternating, 100 execs -> taken
    // rate exactly 1/2, entropy exactly 1 bit, transition rate
    // exactly 1 (99 transitions / 99 adjacent pairs).
    for (int i = 0; i < 100; ++i)
        collector.branch(condBranch(0x100, true));
    for (int i = 0; i < 100; ++i)
        collector.branch(condBranch(0x200, i % 2 == 0));

    const profile::BranchProfile &prof = collector.profile();
    ASSERT_EQ(prof.sites.size(), 2u);
    const profile::BranchSite &a = prof.sites.at(0x100);
    const profile::BranchSite &b = prof.sites.at(0x200);

    EXPECT_EQ(a.taken, 100u);
    EXPECT_EQ(a.notTaken, 0u);
    EXPECT_EQ(a.transitions, 0u);
    EXPECT_EQ(a.entropy(), 0.0);        // exact: p == 1
    EXPECT_EQ(a.transitionRate(), 0.0);

    EXPECT_EQ(b.taken, 50u);
    EXPECT_EQ(b.notTaken, 50u);
    EXPECT_EQ(b.transitions, 99u);
    EXPECT_EQ(b.takenRate(), 0.5);      // exact: 50/100
    EXPECT_EQ(b.entropy(), 1.0);        // exact: H(1/2) = 1 bit
    EXPECT_EQ(b.transitionRate(), 1.0); // exact: 99/99

    EXPECT_EQ(prof.dynBranches, 200u);
    EXPECT_EQ(prof.dynCondBranches, 200u);
    EXPECT_EQ(prof.staticCondSites(), 2u);
    // Weighted aggregates: equal weights -> (0 + 1)/2 exactly.
    EXPECT_EQ(prof.weightedEntropy(), 0.5);
    // Aggregate transition rate: (0 + 99) / (99 + 99) = 1/2 exactly.
    EXPECT_EQ(prof.transitionRate(), 0.5);
}

TEST(BranchProfile, EntropyIsExactlyOneBitOnlyWhenUnbiased)
{
    profile::BranchSite site;
    site.isCond = true;
    site.taken = 3;
    site.notTaken = 1;
    const double h = site.entropy();   // H(3/4) = 2 - (3/4)log2(3)
    EXPECT_GT(h, 0.0);
    EXPECT_LT(h, 1.0);
    EXPECT_NEAR(h, 0.8112781244591328, 1e-15);
}

// ---------------------------------------------------------------------
// Analytic LRU model.
// ---------------------------------------------------------------------

TEST(Analytic, ExpectedMissesFromHandHistogram)
{
    // cold=10, counts {0:5, 3:7, 8:2}. An L-line LRU hits d < L.
    profile::ReuseHistogram hist;
    hist.coldAccesses = 10;
    hist.counts[0] = 5;
    hist.counts[3] = 7;
    hist.counts[8] = 2;
    EXPECT_EQ(hist.totalAccesses(), 24u);
    // L=1: only d=0 hits -> misses 10+7+2.
    EXPECT_EQ(profile::analytic::expectedLruMisses(hist, 1), 19u);
    // L=4: d=0,3 hit -> misses 10+2.
    EXPECT_EQ(profile::analytic::expectedLruMisses(hist, 4), 12u);
    // L=9: everything finite hits -> cold only.
    EXPECT_EQ(profile::analytic::expectedLruMisses(hist, 9), 10u);
    EXPECT_EQ(profile::analytic::expectedLruHits(hist, 4), 12u);

    const auto curve = profile::analytic::missRatioCurve(hist);
    ASSERT_FALSE(curve.empty());
    EXPECT_EQ(curve.front().lines, 1u);
    EXPECT_EQ(curve.front().misses, 19u);
    EXPECT_EQ(curve.back().misses, hist.coldAccesses);
    for (size_t i = 1; i < curve.size(); ++i)
        EXPECT_LE(curve[i].misses, curve[i - 1].misses);
}

// ---------------------------------------------------------------------
// End-to-end: analytic oracle == simulated cache, per paper suite.
// ---------------------------------------------------------------------

class ProfileOracle : public testing::TestWithParam<const char *>
{};

TEST_P(ProfileOracle, AnalyticLruEqualsSimulatedMisses)
{
    // Fully-associative true-LRU L1-D (one set, 512 ways): Mattson's
    // inclusion property says its misses are exactly the histogram's
    // cold + (distance >= 512) accesses. The profile collector and
    // the pipeline consume the same record stream in the same order,
    // so the counts must be equal — not approximately, exactly.
    constexpr uint32_t kLines = 512;
    sim::MetricsOptions options;
    options.guestBudget = 150'000;
    options.profile = true;
    options.timingConfig.l1d = {kLines * 64, 64, kLines, 1, true};

    const workloads::Workload workload = workloads::resolveWorkload(
        workloads::syntheticUri(GetParam()));
    const sim::RunSnapshot snap = sim::snapshotRun(workload, options);
    ASSERT_TRUE(snap.profile.has_value());
    const profile::RunProfile &prof = *snap.profile;

    // Same stream: every L1-D demand access is one profiled access.
    EXPECT_EQ(prof.dataReuse.totalAccesses(), snap.stats.l1d.accesses);
    // The oracle: exact equality of expected and simulated misses.
    EXPECT_EQ(
        profile::analytic::expectedLruMisses(prof.dataReuse, kLines),
        snap.stats.l1d.misses);

    // Mispredict attribution parity: the replica predictor saw the
    // same branch stream as the pipeline's, so every counter agrees.
    EXPECT_EQ(prof.branches.dynBranches, snap.stats.bp.branches);
    EXPECT_EQ(prof.branches.dynCondBranches,
              snap.stats.bp.condBranches);
    EXPECT_EQ(prof.branches.mispredicts, snap.stats.bp.mispredicts);
    EXPECT_EQ(prof.branches.mispredictRate(),
              snap.stats.bp.mispredictRate());

    // The profile is a real characterization: a workload touches
    // memory and branches.
    EXPECT_GT(prof.dataReuse.totalAccesses(), 0u);
    EXPECT_GT(prof.branches.dynBranches, 0u);
}

TEST_P(ProfileOracle, AnalyticLruEqualsSimulatedAtTinyCapacity)
{
    // Same oracle at a capacity small enough (8 lines) that capacity
    // misses dominate — exercises the d >= L tail, not just cold
    // misses.
    constexpr uint32_t kLines = 8;
    sim::MetricsOptions options;
    options.guestBudget = 60'000;
    options.profile = true;
    options.timingConfig.l1d = {kLines * 64, 64, kLines, 1, true};

    const workloads::Workload workload = workloads::resolveWorkload(
        workloads::syntheticUri(GetParam()));
    const sim::RunSnapshot snap = sim::snapshotRun(workload, options);
    ASSERT_TRUE(snap.profile.has_value());
    const profile::RunProfile &prof = *snap.profile;
    EXPECT_EQ(prof.dataReuse.totalAccesses(), snap.stats.l1d.accesses);
    EXPECT_EQ(
        profile::analytic::expectedLruMisses(prof.dataReuse, kLines),
        snap.stats.l1d.misses);
    // Tiny capacity on a real workload must actually miss beyond
    // cold (otherwise this test proves nothing).
    EXPECT_GT(snap.stats.l1d.misses, prof.dataReuse.coldAccesses);
}

INSTANTIATE_TEST_SUITE_P(
    FourSuites, ProfileOracle,
    testing::Values("464.h264ref", "436.cactusADM",
                    "104.novis_explosions", "005.h264enc"),
    [](const testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '.')
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Determinism and plumbing.
// ---------------------------------------------------------------------

TEST(ProfilePlumbing, OffByDefaultAndIdenticalWhenRepeated)
{
    const workloads::Workload workload =
        workloads::resolveWorkload("429.mcf");
    sim::MetricsOptions options;
    options.guestBudget = 60'000;
    const sim::RunSnapshot off = sim::snapshotRun(workload, options);
    EXPECT_FALSE(off.profile.has_value());

    options.profile = true;
    const sim::RunSnapshot a = sim::snapshotRun(workload, options);
    const sim::RunSnapshot b = sim::snapshotRun(workload, options);
    ASSERT_TRUE(a.profile.has_value());
    ASSERT_TRUE(b.profile.has_value());
    EXPECT_EQ(profile::diffProfiles(*a.profile, *b.profile), "");
    EXPECT_TRUE(*a.profile == *b.profile);

    // Profiling is observation only: it must not change any measured
    // quantity of the run itself.
    EXPECT_EQ(off.result.cycles, a.result.cycles);
    EXPECT_EQ(off.result.guestRetired, a.result.guestRetired);
    EXPECT_EQ(timing::diffStats(off.stats, a.stats), "");
}

TEST(ProfilePlumbing, DiffProfilesLocalizesMismatches)
{
    profile::RunProfile a, b;
    EXPECT_EQ(profile::diffProfiles(a, b), "");
    b.dataReuse.counts[5] = 1;
    a.dataReuse.counts[5] = 2;
    const std::string diff = profile::diffProfiles(a, b);
    EXPECT_NE(diff.find("distance 5"), std::string::npos) << diff;
    a = profile::RunProfile();
    b = profile::RunProfile();
    a.branches.sites[0x40].taken = 1;
    b.branches.sites[0x40].taken = 2;
    b.branches.dynBranches = 1;
    const std::string diff2 = profile::diffProfiles(a, b);
    EXPECT_NE(diff2.find("dynBranches"), std::string::npos) << diff2;
    EXPECT_NE(diff2.find("0x40"), std::string::npos) << diff2;

    // The localization must skip a shared equal prefix: identical
    // entries at distances 1/2 and site 0x10, first divergence at
    // distance 9 / site 0x80.
    a = profile::RunProfile();
    b = profile::RunProfile();
    a.dataReuse.counts[1] = 4;
    b.dataReuse.counts[1] = 4;
    a.dataReuse.counts[2] = 7;
    b.dataReuse.counts[2] = 7;
    a.dataReuse.counts[9] = 1;
    b.dataReuse.counts[9] = 2;
    a.branches.sites[0x10].taken = 3;
    b.branches.sites[0x10].taken = 3;
    a.branches.sites[0x80].notTaken = 1;
    b.branches.sites[0x80].notTaken = 2;
    const std::string diff3 = profile::diffProfiles(a, b);
    EXPECT_NE(diff3.find("distance 9"), std::string::npos) << diff3;
    EXPECT_NE(diff3.find("0x80"), std::string::npos) << diff3;

    // One histogram a strict prefix of the other: the divergence is
    // the extra entry only the longer side has.
    a = profile::RunProfile();
    b = profile::RunProfile();
    a.dataReuse.counts[3] = 5;
    b.dataReuse.counts[3] = 5;
    b.dataReuse.counts[42] = 1;
    const std::string diff4 = profile::diffProfiles(a, b);
    EXPECT_NE(diff4.find("distance 42"), std::string::npos) << diff4;
}

TEST(ProfilePlumbing, JournalRoundTripsProfiles)
{
    // The campaign's resume store (the result cache) must carry
    // profiles: store a snapshot with a non-trivial profile, look it
    // back up, require bit-identity.
    runner::ResultCache cache(testing::TempDir() + "profile_journal_cache");
    runner::CacheKey key;
    key.workloadUri = "source://synthetic/429.mcf";
    key.fingerprint = 0xDEADBEEFCAFEF00Dull;
    key.engine = runner::kEngineVersion;
    std::remove(cache.entryPath(key).c_str());

    profile::RunProfile prof;
    prof.lineBytes = 64;
    prof.dataReuse.coldAccesses = 17;
    prof.dataReuse.counts[0] = 3;
    prof.dataReuse.counts[1000000007ull] = 9;
    prof.branches.dynBranches = 21;
    prof.branches.dynCondBranches = 13;
    prof.branches.mispredicts = 4;
    profile::BranchSite site;
    site.taken = 8;
    site.notTaken = 5;
    site.transitions = 6;
    site.mispredicts = 4;
    site.isCond = true;
    prof.branches.sites[0x1234] = site;
    site.isCond = false;
    site.isIndirect = true;
    prof.branches.sites[0xFFFFFFFC] = site;
    sim::RunSnapshot snap;
    snap.profile = prof;

    ASSERT_TRUE(cache.store(key, snap));
    const auto loaded = cache.lookup(key);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_TRUE(loaded->profile.has_value());
    EXPECT_EQ(profile::diffProfiles(*loaded->profile, prof), "");
    EXPECT_TRUE(*loaded->profile == prof);
    std::remove(cache.entryPath(key).c_str());
}

TEST(ProfilePlumbing, OptionsConfigRoundTripCarriesProfile)
{
    sim::MetricsOptions options;
    options.profile = true;
    const sim::SimConfig cfg = sim::configFromOptions(options);
    EXPECT_TRUE(cfg.profile);
    // And the fingerprint distinguishes profiled from unprofiled
    // experiments (a cache entry from one must not satisfy the
    // other).
    sim::MetricsOptions off;
    EXPECT_NE(runner::configFingerprint(options, "w", true),
              runner::configFingerprint(off, "w", true));
}

// ---------------------------------------------------------------------
// True-LRU cache mode.
// ---------------------------------------------------------------------

TEST(TrueLru, DiffersFromPlruExactlyWhereItShould)
{
    // 4-way, 1 set, true LRU: access A B C D, touch A, then fill E.
    // LRU evicts B; a subsequent B access must miss and A must hit.
    timing::CacheGeometry geom{4 * 64, 64, 4, 1, true};
    timing::Cache cache(geom, nullptr, 10);
    bool miss = false;
    const uint32_t A = 0, B = 64, C = 128, D = 192, E = 256;
    for (uint32_t addr : {A, B, C, D})
        cache.access(addr, false, miss);
    cache.access(A, false, miss);
    EXPECT_FALSE(miss);
    cache.access(E, false, miss);
    EXPECT_TRUE(miss);
    EXPECT_TRUE(cache.probe(A));
    EXPECT_FALSE(cache.probe(B));   // true LRU victim
    cache.access(B, false, miss);
    EXPECT_TRUE(miss);
}

} // namespace
