/**
 * @file
 * Custom-workload example: define a new synthetic benchmark with the
 * workload parameter API and sweep one characteristic — indirect-
 * branch density — to watch TOL overhead react (the §III-B effect:
 * indirect branches force code-cache lookups and transitions).
 *
 *   $ ./custom_workload
 */

#include <cstdio>

#include "common/table.hh"
#include "sim/metrics.hh"

using namespace darco;

int
main()
{
    Table table({"dispatch iters/cycle", "indirect branches",
                 "TOL overhead %", "Code$ lookup % of TOL",
                 "IPC-relevant cycles"});

    for (uint32_t dispatch : {0u, 1000u, 4000u, 12000u, 24000u}) {
        workloads::BenchParams params;
        params.name = "custom.dispatch-sweep";
        params.suite = "custom";
        params.seed = 99;
        params.coldBlobInsts = 1000;
        params.warmLoops = 6;
        params.warmIters = 100;
        params.hotLoops = 2;
        params.hotIters = 8000;
        params.dispatchIters = dispatch;
        params.dispatchTargets = 512;  // many targets: IBTC pressure
        params.dataKb = 256;

        sim::MetricsOptions options;
        options.guestBudget = 1'500'000;
        options.tolConfig.bbToSbThreshold =
            sim::scaledSbThreshold(options.guestBudget);

        const sim::BenchMetrics m = sim::collectMetrics(
            sim::snapshotRun(workloads::syntheticWorkload(params),
                             options),
            params.name, params.suite);

        double tol_total = 0;
        for (unsigned mod = 1; mod < timing::kNumModules; ++mod)
            tol_total += m.moduleCycles[mod];
        const double lookup_share = tol_total > 0
            ? 100.0 * m.moduleCycles[static_cast<unsigned>(
                  timing::Module::Lookup)] / tol_total
            : 0;

        table.beginRow();
        table.addf("%u", dispatch);
        table.addf("%llu",
                   static_cast<unsigned long long>(m.guestIndirect));
        table.addf("%.1f", 100.0 * m.tolOverheadFrac());
        table.addf("%.1f", lookup_share);
        table.addf("%llu", static_cast<unsigned long long>(m.cycles));
    }

    std::printf("Indirect-branch density sweep (custom workload)\n");
    std::printf("More indirect dispatch -> more IBTC misses -> more "
                "code-cache lookups and TOL transitions (paper "
                "SIII-B).\n\n");
    table.render();
    return 0;
}
