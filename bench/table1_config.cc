/**
 * @file
 * Table I regeneration: the host processor microarchitectural
 * parameters used across all experiments.
 */

#include "bench_util.hh"
#include "timing/config.hh"

using namespace darco;

int
main(int argc, char **argv)
{
    // No workload runs here: every flag but --csv is unknown.
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv, 0);
    const timing::TimingConfig c;

    std::printf("=== Table I: host processor microarchitectural "
                "parameters ===\n");
    Table t({"component", "parameter", "value"});
    auto row = [&t](const char *comp, const char *param,
                    std::string value) {
        t.beginRow();
        t.add(comp);
        t.add(param);
        t.add(std::move(value));
    };

    row("General", "Issue width", strprintf("%u", c.issueWidth));
    row("Instruction queue", "Size", strprintf("%u", c.iqSize));
    row("Branch predictor", "Size of history register",
        strprintf("%u", c.bpHistoryBits));
    row("L1 I-Cache / L1 D-Cache", "Size",
        strprintf("%uKB", c.l1i.sizeBytes / 1024));
    row("L1 I-Cache / L1 D-Cache", "Block size/Associativity",
        strprintf("%uB/%u", c.l1i.lineBytes, c.l1i.ways));
    row("L1 I-Cache / L1 D-Cache", "Replacement policy", "PLRU");
    row("L1 I-Cache / L1 D-Cache", "Hit latency",
        strprintf("%u", c.l1i.hitLatency));
    row("Stride prefetcher", "Number of entries",
        strprintf("%u", c.prefetcherEntries));
    row("L2 U-Cache", "Size", strprintf("%uKB", c.l2.sizeBytes / 1024));
    row("L2 U-Cache", "Block size/Associativity",
        strprintf("%uB/%u", c.l2.lineBytes, c.l2.ways));
    row("L2 U-Cache", "Replacement policy", "PLRU");
    row("L2 U-Cache", "Hit latency", strprintf("%u", c.l2.hitLatency));
    row("Main memory", "Hit latency", strprintf("%u", c.memLatency));
    row("L1 TLB", "Entries",
        strprintf("%u/%u way", c.tlbL1Entries, c.tlbL1Ways));
    row("L1 TLB", "Replacement policy", "PLRU");
    row("L1 TLB", "Hit latency", strprintf("%u", c.tlbL1Latency));
    row("L2 TLB", "Entries",
        strprintf("%u/%u way", c.tlbL2Entries, c.tlbL2Ways));
    row("L2 TLB", "Replacement policy", "PLRU");
    row("L2 TLB", "Hit latency", strprintf("%u", c.tlbL2Latency));

    bench::renderTable(t, args);
    std::printf("(not in the paper's table, our defaults: BTB %ux%u-way,"
                " TLB walk %u cycles, mispredict penalty %u)\n",
                c.btbEntries / c.btbWays, c.btbWays, c.tlbWalkLatency,
                c.mispredictPenalty);
    return 0;
}
