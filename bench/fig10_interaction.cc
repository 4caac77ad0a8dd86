/**
 * @file
 * Figure 10 regeneration: performance difference when TOL and the
 * application do not interact on the shared microarchitectural
 * resources. For each benchmark the same functional execution feeds
 * three timing instances — combined, TOL-only and APP-only — and the
 * isolated cycle counts are reported relative to the combined run's
 * attributed cycles (w/o vs w/).
 *
 * Paper shapes: SPEC INT degrades ~10% from interaction (TOL ~4.2%,
 * application ~5.8%), SPEC FP ~3%; lbm-like benchmarks ~0%;
 * perlbench-like up to ~20%.
 */

#include "bench_util.hh"

using namespace darco;
using bench::BenchArgs;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    sim::MetricsOptions options;
    options.tolOnlyPipe = true;
    options.appOnlyPipe = true;
    const auto all = bench::runSweep(args, options);

    std::printf("=== Figure 10: relative cycles without interaction "
                "(w/o / w/) ===\n");
    Table t({"benchmark", "APP w/o ratio", "TOL w/o ratio",
             "degradation%", "APP part%", "TOL part%"});
    for (const sim::BenchMetrics &m : all) {
        if (!bench::printsRow(args, m))
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
    return 0;
}
