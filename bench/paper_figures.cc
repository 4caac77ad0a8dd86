/**
 * @file
 * The paper's evaluation in one run: Table I (the host processor
 * microarchitectural parameters used across all experiments) and the
 * tables of Figures 5-11. One sweep runs every selected workload once
 * with all three extra timing pipes (TOL-module, TOL-only, APP-only),
 * so each workload is one job; the pipes are pure observers, so every
 * table prints the same numbers it would from a sweep with only the
 * pipes it reads. Each figure prints per-benchmark rows in suite
 * order followed by the four suite averages.
 *
 * Paper shapes to look for:
 *  - Fig 5, static (5a) and dynamic (5b) guest-code distribution
 *    over the TOL modes (IM, BBM, SBM): a large minority of static
 *    code never leaves IM; only a small static fraction reaches SBM,
 *    yet ~97% of the *dynamic* instruction stream executes in SBM.
 *  - Fig 6, execution time split into TOL overhead and application
 *    time, with the dynamic/static instruction ratio (log scale in
 *    the paper) and the number of SBM invocations: average overhead
 *    ~28% MediaBench, ~22% Physicsbench and SPEC INT, ~12% SPEC FP;
 *    overhead anti-correlates with the dynamic/static ratio;
 *    applications whose repetition sits close to the promotion
 *    threshold (many superblocks, little reuse) pay the most SBM
 *    overhead.
 *  - Fig 7, TOL time by module (TOL others = dispatch/transitions,
 *    IM = interpreter, BBM = translation + profiling, SBM =
 *    superblock optimization, Chaining, Code-cache lookups) with the
 *    dynamic guest indirect branches: indirect-branch-heavy
 *    applications (perlbench-like) are dominated by Code$ lookups +
 *    TOL-others; low-repetition applications by IM/BBM;
 *    near-threshold applications by SBM.
 *  - Fig 8, TOL in isolation (the timing simulator ignores every
 *    application instruction): TOL IPC varies widely across emulated
 *    applications (0.85-1.48 in the paper) even though TOL "repeats
 *    the same tasks"; the I$ impact is negligible (TOL's small code
 *    footprint fits L1-I).
 *  - Fig 9, cycles over the main bubble sources and retiring cycles,
 *    each split between TOL and the application: bubbles ~48% of
 *    execution time on average; D$-miss bubbles the largest class
 *    (~26%), then scheduling (~12%), I$ (~6%), branch (~4%).
 *    lbm-like applications show nearly no TOL share;
 *    ragdoll/jpg2000enc-like show large TOL bubble shares;
 *    perlbench-like splits bubbles across both sides.
 *  - Fig 10, cycles when TOL and the application do not share the
 *    microarchitecture (the TOL-only and APP-only pipes, relative to
 *    the combined run's attributed cycles, w/o vs w/): SPEC INT
 *    degrades ~10% from interaction (TOL ~4.2%, application ~5.8%),
 *    SPEC FP ~3%; lbm-like benchmarks ~0%; perlbench-like up to ~20%.
 *  - Fig 11, the potential gain if that interaction were eliminated,
 *    per bubble category, for TOL (11a) and the application (11b), as
 *    a percentage of total execution time: the data cache dominates
 *    (perlbench-like: ~7% of time for TOL, ~10.6% for the
 *    application); branch and I$ effects are smaller but not
 *    negligible.
 *
 * Figures 9-11 print, in text mode, only the four paper outliers and
 * the suite averages (printsRow).
 */

#include "bench_util.hh"
#include "timing/config.hh"

using namespace darco;
using bench::BenchArgs;
using timing::Bucket;
using timing::Module;

namespace {

using Rows = std::vector<sim::BenchMetrics>;

/**
 * Whether the §III-D figure tables (Figures 9-11) print the row of
 * @p m. CSV prints every row. Text prints the suite averages, the
 * four paper outliers (workloads::outlierBenchmarks) and every
 * workload named by `--benchmark=`, which are then the only
 * workloads the sweep ran.
 */
bool
printsRow(const BenchArgs &args, const sim::BenchMetrics &m)
{
    if (args.csv || !args.benchmarks.empty() ||
        m.suite.rfind("AVG", 0) == 0) {
        return true;
    }
    for (const workloads::BenchParams *p : workloads::outlierBenchmarks()) {
        if (p->name == m.name)
            return true;
    }
    return false;
}

void
table1(const BenchArgs &args)
{
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
}

void
fig5a(const Rows &all, const BenchArgs &args)
{
    std::printf("=== Figure 5a: static x86 code distribution (%%) ===\n");
    Table t({"benchmark", "suite", "static insts", "IM%", "BBM%",
             "SBM%"});
    for (const sim::BenchMetrics &m : all) {
        const double total =
            std::max<double>(1.0, static_cast<double>(m.staticTotal()));
        t.beginRow();
        t.add(m.name);
        t.add(m.suite);
        t.addf("%llu", static_cast<unsigned long long>(m.staticTotal()));
        t.addf("%.1f", 100.0 * static_cast<double>(m.staticIm) / total);
        t.addf("%.1f", 100.0 * static_cast<double>(m.staticBbm) / total);
        t.addf("%.1f", 100.0 * static_cast<double>(m.staticSbm) / total);
    }
    bench::renderTable(t, args);
}

void
fig5b(const Rows &all, const BenchArgs &args)
{
    std::printf("=== Figure 5b: dynamic x86 code distribution (%%) ===\n");
    Table t({"benchmark", "suite", "dyn insts", "IM%", "BBM%", "SBM%"});
    for (const sim::BenchMetrics &m : all) {
        const double total =
            std::max<double>(1.0, static_cast<double>(m.dynTotal()));
        t.beginRow();
        t.add(m.name);
        t.add(m.suite);
        t.addf("%llu", static_cast<unsigned long long>(m.dynTotal()));
        t.addf("%.2f", 100.0 * static_cast<double>(m.dynIm) / total);
        t.addf("%.2f", 100.0 * static_cast<double>(m.dynBbm) / total);
        t.addf("%.2f", 100.0 * static_cast<double>(m.dynSbm) / total);
    }
    bench::renderTable(t, args);
}

void
fig6(const Rows &all, const BenchArgs &args)
{
    std::printf("=== Figure 6: execution-time breakdown ===\n");
    Table t({"benchmark", "suite", "overhead%", "app%", "dyn/static",
             "SBM invocations", "cycles"});
    for (const sim::BenchMetrics &m : all) {
        t.beginRow();
        t.add(m.name);
        t.add(m.suite);
        t.addf("%.1f", 100.0 * m.tolOverheadFrac());
        t.addf("%.1f", 100.0 * (1.0 - m.tolOverheadFrac()));
        t.addf("%.0f", m.dynStaticRatio);
        t.addf("%llu", static_cast<unsigned long long>(m.sbInvocations));
        t.addf("%llu", static_cast<unsigned long long>(m.cycles));
    }
    bench::renderTable(t, args);
}

void
fig7(const Rows &all, const BenchArgs &args)
{
    std::printf("=== Figure 7: TOL execution-time breakdown "
                "(%% of TOL time) ===\n");
    Table t({"benchmark", "suite", "TOLothers%", "IM%", "BBM%", "SBM%",
             "Chain%", "Code$lookup%", "TOL-of-total%",
             "indirect branches"});
    for (const sim::BenchMetrics &m : all) {
        double tol_total = 0;
        for (unsigned mod = 1; mod < timing::kNumModules; ++mod)
            tol_total += m.moduleCycles[mod];
        const double denom = std::max(tol_total, 1.0);
        auto pct = [&](Module mod) {
            return 100.0 * m.moduleCycles[static_cast<unsigned>(mod)] /
                   denom;
        };
        t.beginRow();
        t.add(m.name);
        t.add(m.suite);
        t.addf("%.1f", pct(Module::TolOther));
        t.addf("%.1f", pct(Module::IM));
        t.addf("%.1f", pct(Module::BBM));
        t.addf("%.1f", pct(Module::SBM));
        t.addf("%.1f", pct(Module::Chaining));
        t.addf("%.1f", pct(Module::Lookup));
        t.addf("%.1f", 100.0 * m.tolOverheadFrac());
        t.addf("%llu", static_cast<unsigned long long>(m.guestIndirect));
    }
    bench::renderTable(t, args);
}

void
fig8(const Rows &all, const BenchArgs &args)
{
    std::printf("=== Figure 8: TOL performance characteristics "
                "(TOL in isolation) ===\n");
    Table t({"benchmark", "suite", "TOL IPC", "D$ miss%", "I$ miss%",
             "BP mispredict%"});
    double min_ipc = 1e9, max_ipc = 0;
    bool any_benchmark = false;
    for (const sim::BenchMetrics &m : all) {
        t.beginRow();
        t.add(m.name);
        t.add(m.suite);
        t.addf("%.2f", m.tolIpc);
        t.addf("%.2f", 100.0 * m.tolDmissRate);
        t.addf("%.2f", 100.0 * m.tolImissRate);
        t.addf("%.2f", 100.0 * m.tolBpMissRate);
        if (m.suite.rfind("AVG", 0) != 0) {
            min_ipc = std::min(min_ipc, m.tolIpc);
            max_ipc = std::max(max_ipc, m.tolIpc);
            any_benchmark = true;
        }
    }
    bench::renderTable(t, args);
    // An empty sweep (an empty shard) has no range to print.
    if (any_benchmark) {
        std::printf("TOL IPC range across benchmarks: %.2f .. %.2f "
                    "(paper: 0.85 .. 1.48)\n", min_ipc, max_ipc);
    }
}

void
fig9(const Rows &all, const BenchArgs &args)
{
    std::printf("=== Figure 9: cycle breakdown (%% of execution time; "
                "APP / TOL) ===\n");
    Table t({"benchmark", "D$miss A/T", "I$miss A/T", "branch A/T",
             "sched A/T", "insts A/T", "bubbles%"});
    for (const sim::BenchMetrics &m : all) {
        if (!printsRow(args, m))
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
}

void
fig10(const Rows &all, const BenchArgs &args)
{
    std::printf("=== Figure 10: relative cycles without interaction "
                "(w/o / w/) ===\n");
    Table t({"benchmark", "APP w/o ratio", "TOL w/o ratio",
             "degradation%", "APP part%", "TOL part%"});
    for (const sim::BenchMetrics &m : all) {
        if (!printsRow(args, m))
            continue;
        const double degr = m.appDegradation() + m.tolDegradation();
        t.beginRow();
        t.add(m.name);
        t.addf("%.3f", m.relAppWithout());
        t.addf("%.3f", m.relTolWithout());
        t.addf("%.1f", 100.0 * degr);
        t.addf("%.1f", 100.0 * m.appDegradation());
        t.addf("%.1f", 100.0 * m.tolDegradation());
    }
    bench::renderTable(t, args);
}

/**
 * One side of Figure 11: TOL's (@p tol_side) or the application's,
 * under @p title.
 */
void
fig11(const Rows &all, const BenchArgs &args, const char *title,
      bool tol_side)
{
    std::printf("%s\n", title);
    Table t({"benchmark", "D$miss%", "I$miss%", "sched%", "branch%",
             "total%"});
    for (const sim::BenchMetrics &m : all) {
        if (!printsRow(args, m))
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
}

void
fig11a(const Rows &all, const BenchArgs &args)
{
    fig11(all, args, "=== Figure 11a: potential improvement of TOL "
          "(% of execution time) ===", true);
}

void
fig11b(const Rows &all, const BenchArgs &args)
{
    fig11(all, args, "=== Figure 11b: potential improvement of the "
          "application (% of execution time) ===", false);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    sim::MetricsOptions options;
    sim::setPipeMask(options, sim::kAllPipes);
    const Rows all = bench::runSweep(args, options);

    table1(args);
    for (auto *figure : {fig5a, fig5b, fig6, fig7, fig8, fig9, fig10,
                         fig11a, fig11b}) {
        std::printf("\n");
        figure(all, args);
    }
    return 0;
}
