/**
 * @file
 * Feature ablation: quantifies each TOL design choice the paper's
 * §III-E discussion calls out — chaining, the IBTC, the BBM "simple
 * optimizations", the full SBM pass pipeline, and instruction
 * scheduling — by toggling one at a time on a representative
 * benchmark subset and reporting the cycle cost of losing it.
 */

#include "bench_util.hh"

using namespace darco;
using bench::BenchArgs;

namespace {

struct Variant
{
    const char *name;
    void (*apply)(sim::MetricsOptions &);
};

const Variant kVariants[] = {
    {"baseline", [](sim::MetricsOptions &) {}},
    {"no chaining",
     [](sim::MetricsOptions &o) { o.tolConfig.enableChaining = false; }},
    {"no IBTC",
     [](sim::MetricsOptions &o) { o.tolConfig.enableIbtc = false; }},
    {"no BBM opts",
     [](sim::MetricsOptions &o) { o.tolConfig.enableBbmOpts = false; }},
    {"no SBM opts",
     [](sim::MetricsOptions &o) { o.tolConfig.enableSbmOpts = false; }},
    {"no scheduling",
     [](sim::MetricsOptions &o) {
         o.tolConfig.enableScheduling = false;
     }},
    {"2-way IBTC", [](sim::MetricsOptions &o) { o.tolConfig.ibtcWays = 2; }},
    {"SB code partition",
     [](sim::MetricsOptions &o) { o.tolConfig.sbPartitionPercent = 50; }},
    {"no prefetcher",
     [](sim::MetricsOptions &o) {
         o.timingConfig.prefetcherEnabled = false;
     }},
};

const char *kBenchmarks[] = {
    "400.perlbench", "401.bzip2", "464.h264ref", "470.lbm",
    "000.cjpeg", "007.jpg2000enc",
};

} // namespace

int
main(int argc, char **argv)
{
    // The benchmarks are fixed, and the relative columns need each
    // benchmark's baseline row in the same process: neither a
    // selection nor a shard applies.
    // 9 variants x 6 benchmarks: a smaller default budget than the
    // figure sweeps.
    const BenchArgs args = BenchArgs::parse(
        argc, argv, bench::Budget | bench::Batch, 2'000'000);

    std::vector<runner::BatchJob> jobs;
    for (const char *name : kBenchmarks) {
        for (const Variant &variant : kVariants) {
            runner::BatchJob job;
            job.workload = workloads::syntheticUri(name);
            bench::applyBudget(job.options, args.budget);
            variant.apply(job.options);
            jobs.push_back(std::move(job));
        }
    }
    const std::vector<runner::JobResult> results =
        bench::runBatch(args, jobs);

    std::printf("=== Feature ablation (cycles, relative to baseline) "
                "===\n");
    Table t({"benchmark", "variant", "cycles", "vs baseline",
             "overhead%"});
    uint64_t baseline_cycles = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const size_t variant = i % std::size(kVariants);
        const sim::BenchMetrics m = sim::collectMetrics(
            results[i].snapshot, results[i].name, results[i].suite);
        if (variant == 0)  // "baseline"
            baseline_cycles = m.cycles;

        t.beginRow();
        t.add(kBenchmarks[i / std::size(kVariants)]);
        t.add(kVariants[variant].name);
        t.addf("%llu", static_cast<unsigned long long>(m.cycles));
        t.addf("%+.1f%%",
               100.0 * (static_cast<double>(m.cycles) /
                            static_cast<double>(baseline_cycles) -
                        1.0));
        t.addf("%.1f", 100.0 * m.tolOverheadFrac());
    }
    bench::renderTable(t, args);
    return 0;
}
