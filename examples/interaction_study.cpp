/**
 * @file
 * Interaction study on one benchmark: runs the three timing
 * instances (combined, TOL-only, APP-only) from a single functional
 * execution and prints the §III-D decomposition — how much of the
 * execution time the TOL<->application resource sharing costs, and
 * which microarchitectural component would benefit most if the
 * interaction were eliminated.
 *
 *   $ ./interaction_study [benchmark-name]
 */

#include <cstdio>
#include <cstring>

#include "common/table.hh"
#include "sim/metrics.hh"

using namespace darco;
using timing::Bucket;

int
main(int argc, char **argv)
{
    const char *name = argc > 1 ? argv[1] : "400.perlbench";
    const workloads::BenchParams *params =
        workloads::findBenchmark(name);
    if (!params) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", name);
        return 1;
    }

    sim::MetricsOptions options;
    options.guestBudget = 2'000'000;
    options.tolConfig.bbToSbThreshold =
        sim::scaledSbThreshold(options.guestBudget);
    options.tolOnlyPipe = true;
    options.appOnlyPipe = true;

    std::printf("running %s with three timing instances...\n\n",
                name);
    const sim::BenchMetrics m = sim::collectMetrics(
        sim::snapshotRun(workloads::syntheticWorkload(*params), options),
        params->name, params->suite);

    std::printf("combined execution: %llu cycles "
                "(application stream %.0f, TOL software %.0f)\n",
                static_cast<unsigned long long>(m.cycles),
                m.appSrcCycles(), m.tolSrcCycles());
    std::printf("isolated:           application %llu cycles, "
                "TOL %llu cycles\n\n",
                static_cast<unsigned long long>(m.appOnlyCycles),
                static_cast<unsigned long long>(m.tolOnlyCycles));

    std::printf("relative cycles without interaction (w/o / w/):\n");
    std::printf("  application %.3f    TOL %.3f\n",
                m.relAppWithout(), m.relTolWithout());
    std::printf("interaction degradation: %.1f%% of execution time "
                "(application %.1f%%, TOL %.1f%%)\n\n",
                100.0 * (m.appDegradation() + m.tolDegradation()),
                100.0 * m.appDegradation(), 100.0 * m.tolDegradation());

    Table table({"category", "TOL potential %", "APP potential %"});
    struct Row
    {
        const char *label;
        Bucket bucket;
    };
    static const Row rows[] = {
        {"D$ miss bubbles", Bucket::DcacheBubble},
        {"I$ miss bubbles", Bucket::IcacheBubble},
        {"instruction scheduling", Bucket::SchedBubble},
        {"branch bubbles", Bucket::BranchBubble},
    };
    for (const Row &row : rows) {
        table.beginRow();
        table.add(row.label);
        table.addf("%.2f", 100.0 * m.potentialTol(row.bucket));
        table.addf("%.2f", 100.0 * m.potentialApp(row.bucket));
    }
    table.render();

    std::printf("\n(The paper's conclusion: the data cache is the "
                "component with the largest potential gain — TOL's "
                "code-cache lookup tables and the application's data "
                "ping-pong in the shared D$.)\n");
    return 0;
}
