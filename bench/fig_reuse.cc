/**
 * @file
 * Characterization bench: per-workload data-reuse-distance histograms
 * and branch-profile summaries from the exact Mattson stack-distance
 * engine (src/profile/), plus the analytic LRU miss-ratio curve each
 * histogram implies (docs/metrics.md "Characterization profiles").
 *
 * Every run doubles as a live cross-validation of the timing cache
 * model: the L1-D is reconfigured as a fully-associative true-LRU
 * cache, so Mattson's inclusion property makes the analytic expected
 * miss count a bit-exact oracle for the simulated miss counter. The
 * bench hard-fails on any divergence — the same invariant
 * tests/test_profile.cc pins under ctest, checked here at bench
 * budgets on every workload the sweep selects.
 */

#include <cinttypes>

#include "bench_util.hh"
#include "profile/analytic.hh"

using namespace darco;
using bench::BenchArgs;

namespace {

/** L1-D lines for the fully-associative validation geometry (matches
 *  the default 32 KiB / 64 B capacity, so miss counts stay in the
 *  same regime as the set-associative default). */
constexpr uint32_t kLines = 512;
constexpr uint32_t kLineBytes = 64;

/** Power-of-two reuse-distance bin label: [lo, hi]. */
std::string
binLabel(uint64_t lo, uint64_t hi)
{
    char buf[64];
    if (lo == hi)
        std::snprintf(buf, sizeof(buf), "%" PRIu64, lo);
    else
        std::snprintf(buf, sizeof(buf), "%" PRIu64 "-%" PRIu64, lo, hi);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    sim::MetricsOptions options;
    options.profile = true;
    // Fully-associative true-LRU L1-D: the geometry under which the
    // analytic oracle is exact (Mattson inclusion needs a single
    // LRU stack, which set indexing would split).
    options.timingConfig.l1d = {kLines * kLineBytes, kLineBytes,
                                kLines, 1, true};

    struct Row
    {
        std::string name;
        std::string suite;
        profile::RunProfile prof;
        uint64_t simAccesses;
        uint64_t simMisses;
    };
    std::vector<Row> rows;
    for (const runner::JobResult &r :
         bench::runBatch(args, bench::sweepJobs(args, options))) {
        const sim::RunSnapshot &snap = r.snapshot;
        fatal_if(!snap.profile, "profiling was enabled but the run "
                 "snapshot carries no profile");

        // The live cross-check: analytic expected LRU misses from the
        // measured histogram must equal the simulated fully-assoc
        // miss counter exactly, access for access.
        const profile::ReuseHistogram &hist = snap.profile->dataReuse;
        const uint64_t expected =
            profile::analytic::expectedLruMisses(hist, kLines);
        fatal_if(hist.totalAccesses() != snap.stats.l1d.accesses,
                 "%s: profiled %" PRIu64 " data accesses but the "
                 "timing L1-D saw %" PRIu64,
                 r.name.c_str(), hist.totalAccesses(),
                 snap.stats.l1d.accesses);
        fatal_if(expected != snap.stats.l1d.misses,
                 "%s: analytic LRU model expects %" PRIu64 " misses "
                 "but the simulated cache measured %" PRIu64,
                 r.name.c_str(), expected, snap.stats.l1d.misses);

        rows.push_back({r.name, r.suite, *snap.profile,
                        snap.stats.l1d.accesses, snap.stats.l1d.misses});
    }

    std::printf("=== Characterization: data reuse + branch profiles "
                "(line = %u B) ===\n", kLineBytes);
    Table summary({"benchmark", "suite", "accesses", "lines",
                   "cold%", "reuse<16%", "reuse<256%", "H(branch)",
                   "trans%", "mispred%", "LRU512 miss%"});
    for (const Row &r : rows) {
        const profile::ReuseHistogram &h = r.prof.dataReuse;
        const double total = static_cast<double>(h.totalAccesses());
        uint64_t lt16 = 0, lt256 = 0;
        for (const auto &[dist, count] : h.counts) {
            if (dist < 16)
                lt16 += count;
            if (dist < 256)
                lt256 += count;
        }
        summary.beginRow();
        summary.add(r.name);
        summary.add(r.suite);
        summary.addf("%" PRIu64, h.totalAccesses());
        summary.addf("%" PRIu64, h.distinctLines());
        summary.addf("%.2f", 100.0 * h.coldAccesses / total);
        summary.addf("%.2f", 100.0 * lt16 / total);
        summary.addf("%.2f", 100.0 * lt256 / total);
        summary.addf("%.3f", r.prof.branches.weightedEntropy());
        summary.addf("%.2f", 100.0 * r.prof.branches.transitionRate());
        summary.addf("%.2f", 100.0 * r.prof.branches.mispredictRate());
        summary.addf("%.3f", 100.0 * r.simMisses / total);
    }
    bench::renderTable(summary, args);

    std::printf("\n=== Reuse-distance histograms (power-of-two bins, "
                "%% of accesses) ===\n");
    Table histTable({"benchmark", "bin", "accesses", "%"});
    for (const Row &r : rows) {
        const profile::ReuseHistogram &h = r.prof.dataReuse;
        const double total = static_cast<double>(h.totalAccesses());
        auto it = h.counts.begin();
        for (uint64_t lo = 0, hi = 0; it != h.counts.end();
             lo = hi + 1, hi = 2 * hi + 1) {
            uint64_t binned = 0;
            for (; it != h.counts.end() && it->first <= hi; ++it)
                binned += it->second;
            if (!binned)
                continue;
            histTable.beginRow();
            histTable.add(r.name);
            histTable.add(binLabel(lo, hi));
            histTable.addf("%" PRIu64, binned);
            histTable.addf("%.2f", 100.0 * binned / total);
        }
        histTable.beginRow();
        histTable.add(r.name);
        histTable.add("cold");
        histTable.addf("%" PRIu64, h.coldAccesses);
        histTable.addf("%.2f", 100.0 * h.coldAccesses / total);
    }
    bench::renderTable(histTable, args);

    std::printf("\n=== Analytic LRU miss-ratio curves (fully "
                "associative, from the histogram alone) ===\n");
    Table curve({"benchmark", "lines", "misses", "miss%"});
    for (const Row &r : rows) {
        for (const profile::analytic::MissCurvePoint &p :
             profile::analytic::missRatioCurve(r.prof.dataReuse)) {
            curve.beginRow();
            curve.add(r.name);
            curve.addf("%" PRIu64, p.lines);
            curve.addf("%" PRIu64, p.misses);
            curve.addf("%.3f", 100.0 * p.missRatio);
        }
    }
    bench::renderTable(curve, args);

    std::printf("\nanalytic cross-check: expected LRU misses matched "
                "the simulated fully-associative L1-D exactly on all "
                "%zu workload(s)\n", rows.size());
    return 0;
}
