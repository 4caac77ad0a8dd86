/**
 * @file
 * Promotion-threshold ablation across the four suite representatives:
 * the full version of the analysis the paper elides ("analysis not
 * shown due to space limitations", §III-A). Reports overhead and mode
 * distribution for a grid of BB/SBth values.
 */

#include "bench_util.hh"

using namespace darco;
using bench::BenchArgs;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    if (args.budget > 2'000'000)
        args.budget = 2'000'000;

    const char *benchmarks[] = {
        "464.h264ref",     // SPEC INT
        "436.cactusADM",   // SPEC FP
        "104.novis_explosions",  // Physics
        "005.h264enc",     // Media
    };
    const uint32_t thresholds[] = {50, 150, 300, 1000, 3000, 10000};

    // Each benchmark's rows are read as one curve across the grid; a
    // shard would print scattered points of it.
    fatal_if(args.shard.count > 1, "ablation_thresholds cannot be "
             "sharded: each benchmark's grid must run in one process");

    std::vector<runner::BatchJob> jobs;
    for (const char *name : benchmarks) {
        for (uint32_t threshold : thresholds) {
            runner::BatchJob job;
            job.workload = workloads::syntheticUri(name);
            bench::applyBudget(job.options, args.budget);
            job.options.tolConfig.bbToSbThreshold = threshold;
            jobs.push_back(std::move(job));
        }
    }
    const std::vector<runner::JobResult> results =
        bench::runBatch(args, jobs);

    std::printf("=== BB/SB threshold ablation (IM/BBth=5) ===\n");
    Table t({"benchmark", "BB/SBth", "overhead%", "IM dyn%", "BBM dyn%",
             "SBM dyn%", "SBs", "cycles"});
    for (size_t i = 0; i < results.size(); ++i) {
        const sim::BenchMetrics &m = results[i].metrics;
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
    return 0;
}
