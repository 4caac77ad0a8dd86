/**
 * @file
 * Figure 9 regeneration: distribution of execution cycles over the
 * main bubble sources and instruction-retiring cycles, each split
 * between TOL and the application — for the four paper outliers and
 * the suite averages.
 *
 * Paper shapes: bubbles ~48% of execution time on average; D$-miss
 * bubbles the largest class (~26%), then scheduling (~12%), I$ (~6%),
 * branch (~4%). lbm-like applications show nearly no TOL share;
 * ragdoll/jpg2000enc-like show large TOL bubble shares; perlbench-like
 * splits bubbles across both sides.
 */

#include "bench_util.hh"

using namespace darco;
using bench::BenchArgs;
using timing::Bucket;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    sim::MetricsOptions options;

    // The sweep provides every row; the text table prints the
    // outliers and suite averages (paper figure layout).
    const auto all = bench::runSweep(args, options);

    std::printf("=== Figure 9: cycle breakdown (%% of execution time; "
                "APP / TOL) ===\n");
    Table t({"benchmark", "D$miss A/T", "I$miss A/T", "branch A/T",
             "sched A/T", "insts A/T", "bubbles%"});
    for (const sim::BenchMetrics &m : all) {
        if (!bench::printsRow(args, m))
            continue;
        auto cell = [&](Bucket b) {
            return strprintf("%4.1f /%4.1f",
                100.0 * m.bucketFrac[static_cast<unsigned>(b)][0],
                100.0 * m.bucketFrac[static_cast<unsigned>(b)][1]);
        };
        double bubbles = 0;
        for (unsigned b = 1; b < timing::kNumBuckets; ++b)
            bubbles += m.bucketFrac[b][0] + m.bucketFrac[b][1];
        t.beginRow();
        t.add(m.name);
        t.add(cell(Bucket::DcacheBubble));
        t.add(cell(Bucket::IcacheBubble));
        t.add(cell(Bucket::BranchBubble));
        t.add(cell(Bucket::SchedBubble));
        t.add(cell(Bucket::Insts));
        t.addf("%.1f", 100.0 * bubbles);
    }
    bench::renderTable(t, args);
    return 0;
}
