/**
 * @file
 * Figure 11 regeneration: potential performance gains if the
 * TOL/application interaction were eliminated, decomposed per bubble
 * category (D$ miss, I$ miss, instruction scheduling, branch),
 * separately for TOL (11a) and the application (11b), as a
 * percentage of total execution time.
 *
 * Paper shape: the data cache dominates the potential improvement
 * (perlbench-like: ~7% of time for TOL, ~10.6% for the application);
 * branch and I$ effects are smaller but not negligible.
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
    options.tolOnlyPipe = true;
    options.appOnlyPipe = true;
    const auto all = bench::runSweep(args, options);

    auto print_side = [&](const char *title, bool tol_side) {
        std::printf("%s\n", title);
        Table t({"benchmark", "D$miss%", "I$miss%", "sched%",
                 "branch%", "total%"});
        for (const sim::BenchMetrics &m : all) {
            if (!bench::printsRow(args, m))
                continue;
            auto val = [&](Bucket b) {
                return 100.0 * (tol_side ? m.potentialTol(b)
                                         : m.potentialApp(b));
            };
            const double total = val(Bucket::DcacheBubble) +
                val(Bucket::IcacheBubble) + val(Bucket::SchedBubble) +
                val(Bucket::BranchBubble);
            t.beginRow();
            t.add(m.name);
            t.addf("%.2f", val(Bucket::DcacheBubble));
            t.addf("%.2f", val(Bucket::IcacheBubble));
            t.addf("%.2f", val(Bucket::SchedBubble));
            t.addf("%.2f", val(Bucket::BranchBubble));
            t.addf("%.2f", total);
        }
        bench::renderTable(t, args);
    };

    print_side("=== Figure 11a: potential improvement of TOL "
               "(%% of execution time) ===", true);
    std::printf("\n");
    print_side("=== Figure 11b: potential improvement of the "
               "application (%% of execution time) ===", false);
    return 0;
}
