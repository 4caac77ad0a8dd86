/**
 * @file
 * Promotion-threshold ablation across the four suite representatives:
 * the full version of the analysis the paper elides ("We assume the
 * following promotion thresholds (analysis not shown due to space
 * limitations): IM/BBth = 5; BB/SBth = 10K", §III-A). Reports overhead
 * and mode distribution for a grid of BB/SBth values at IM/BBth = 5,
 * then for a grid of IM/BBth values at BB/SBth = 300.
 *
 * A low BB/SBth optimizes cold code whose optimization never pays for
 * itself; a high one leaves hot code running in instrumented BBM
 * translations. A low IM/BBth translates code that runs a few times;
 * a high one interprets it for longer.
 */

#include "bench_util.hh"

using namespace darco;
using bench::BenchArgs;

int
main(int argc, char **argv)
{
    // The four representatives are fixed, and each benchmark's rows
    // are read as one curve across the grid (a shard would print
    // scattered points of it): neither a selection nor a shard
    // applies.
    // Two threshold grids over four benchmarks: a smaller default
    // budget than the figure sweeps.
    const BenchArgs args = BenchArgs::parse(
        argc, argv, bench::Budget | bench::Batch, 2'000'000);

    const char *benchmarks[] = {
        "464.h264ref",     // SPEC INT
        "436.cactusADM",   // SPEC FP
        "104.novis_explosions",  // Physics
        "005.h264enc",     // Media
    };
    const uint32_t thresholds[] = {50, 150, 300, 1000, 3000, 10000};
    const uint32_t im_thresholds[] = {1, 3, 5, 10, 50, 200};
    const uint32_t im_grid_sb_threshold = 300;

    // Both grids run as one batch: the BB/SB grid's jobs first, then
    // the IM/BB grid's, each in benchmark order.
    std::vector<runner::BatchJob> jobs;
    auto add_job = [&](const char *name, uint32_t im_bb, uint32_t bb_sb) {
        runner::BatchJob job;
        job.workload = workloads::syntheticUri(name);
        bench::applyBudget(job.options, args.budget);
        job.options.tolConfig.imToBbThreshold = im_bb;
        job.options.tolConfig.bbToSbThreshold = bb_sb;
        jobs.push_back(std::move(job));
    };
    for (const char *name : benchmarks) {
        for (uint32_t threshold : thresholds)
            add_job(name, 5, threshold);
    }
    for (const char *name : benchmarks) {
        for (uint32_t threshold : im_thresholds)
            add_job(name, threshold, im_grid_sb_threshold);
    }
    const std::vector<runner::JobResult> results =
        bench::runBatch(args, jobs);
    const size_t sb_rows = std::size(benchmarks) * std::size(thresholds);

    std::printf("=== BB/SB threshold ablation (IM/BBth=5) ===\n");
    Table t({"benchmark", "BB/SBth", "overhead%", "IM dyn%", "BBM dyn%",
             "SBM dyn%", "SBs", "cycles"});
    for (size_t i = 0; i < sb_rows; ++i) {
        const sim::BenchMetrics m = sim::collectMetrics(
            results[i].snapshot, results[i].name, results[i].suite);
        const double dyn = std::max<double>(
            1.0, static_cast<double>(m.dynTotal()));
        t.beginRow();
        t.add(benchmarks[i / std::size(thresholds)]);
        t.addf("%u", thresholds[i % std::size(thresholds)]);
        t.addf("%.1f", 100.0 * m.tolOverheadFrac());
        t.addf("%.2f", 100.0 * static_cast<double>(m.dynIm) / dyn);
        t.addf("%.1f", 100.0 * static_cast<double>(m.dynBbm) / dyn);
        t.addf("%.1f", 100.0 * static_cast<double>(m.dynSbm) / dyn);
        t.addf("%llu",
               static_cast<unsigned long long>(m.sbInvocations));
        t.addf("%llu", static_cast<unsigned long long>(m.cycles));
    }
    bench::renderTable(t, args);

    std::printf("\n=== IM/BB threshold ablation (BB/SBth=%u) ===\n",
                im_grid_sb_threshold);
    Table im({"benchmark", "IM/BBth", "overhead%", "IM dyn%",
              "BBs built", "cycles"});
    for (size_t i = sb_rows; i < results.size(); ++i) {
        const sim::BenchMetrics m = sim::collectMetrics(
            results[i].snapshot, results[i].name, results[i].suite);
        const size_t row = i - sb_rows;
        const double dyn = std::max<double>(
            1.0, static_cast<double>(m.dynTotal()));
        im.beginRow();
        im.add(benchmarks[row / std::size(im_thresholds)]);
        im.addf("%u", im_thresholds[row % std::size(im_thresholds)]);
        im.addf("%.1f", 100.0 * m.tolOverheadFrac());
        im.addf("%.2f", 100.0 * static_cast<double>(m.dynIm) / dyn);
        im.addf("%llu", static_cast<unsigned long long>(m.staticBbm +
                                                        m.staticSbm));
        im.addf("%llu", static_cast<unsigned long long>(m.cycles));
    }
    bench::renderTable(im, args);
    return 0;
}
