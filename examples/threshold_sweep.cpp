/**
 * @file
 * Promotion-threshold sweep — the analysis the paper mentions but
 * does not show ("We assume the following promotion thresholds
 * (analysis not shown due to space limitations): IM/BBth = 5;
 * BB/SBth = 10K", §III-A).
 *
 * Sweeps both thresholds on a mixed workload and reports the
 * overhead/steady-state trade-off: a low BB/SBth optimizes cold code
 * whose optimization never pays for itself; a high one leaves hot
 * code running in instrumented BBM translations.
 *
 *   $ ./threshold_sweep
 */

#include <cstdio>

#include "common/table.hh"
#include "sim/metrics.hh"

using namespace darco;

namespace {

sim::BenchMetrics
runWith(uint32_t im_bb, uint32_t bb_sb)
{
    const workloads::Workload workload = workloads::resolveWorkload(
        workloads::syntheticUri("464.h264ref"));
    sim::MetricsOptions options;
    options.guestBudget = 1'500'000;
    options.tolConfig.imToBbThreshold = im_bb;
    options.tolConfig.bbToSbThreshold = bb_sb;
    return sim::collectMetrics(sim::snapshotRun(workload, options),
                               workload.name, workload.suite);
}

} // namespace

int
main()
{
    std::printf("BB/SB promotion threshold sweep on 464.h264ref "
                "(IM/BBth = 5)\n\n");
    Table sb_table({"BB/SBth", "overhead %", "SBM dyn %", "BBM dyn %",
                    "superblocks", "cycles"});
    for (uint32_t threshold :
         {25u, 100u, 300u, 1000u, 3000u, 10000u, 50000u}) {
        const sim::BenchMetrics m = runWith(5, threshold);
        const double dyn =
            std::max<double>(1.0, static_cast<double>(m.dynTotal()));
        sb_table.beginRow();
        sb_table.addf("%u", threshold);
        sb_table.addf("%.1f", 100.0 * m.tolOverheadFrac());
        sb_table.addf("%.1f", 100.0 * static_cast<double>(m.dynSbm) / dyn);
        sb_table.addf("%.1f", 100.0 * static_cast<double>(m.dynBbm) / dyn);
        sb_table.addf("%llu",
                      static_cast<unsigned long long>(m.sbInvocations));
        sb_table.addf("%llu", static_cast<unsigned long long>(m.cycles));
    }
    sb_table.render();

    std::printf("\nIM/BB promotion threshold sweep (BB/SBth = 300)\n\n");
    Table im_table({"IM/BBth", "overhead %", "IM dyn %", "BBs built",
                    "cycles"});
    for (uint32_t threshold : {1u, 3u, 5u, 10u, 50u, 200u}) {
        const sim::BenchMetrics m = runWith(threshold, 300);
        const double dyn =
            std::max<double>(1.0, static_cast<double>(m.dynTotal()));
        im_table.beginRow();
        im_table.addf("%u", threshold);
        im_table.addf("%.1f", 100.0 * m.tolOverheadFrac());
        im_table.addf("%.2f", 100.0 * static_cast<double>(m.dynIm) / dyn);
        im_table.addf("%llu", static_cast<unsigned long long>(
                                  m.staticBbm + m.staticSbm));
        im_table.addf("%llu", static_cast<unsigned long long>(m.cycles));
    }
    im_table.render();

    std::printf("\nThe sweet spot balances translation investment "
                "against time stuck in slower modes — the reason the "
                "paper uses a two-stage staged-compilation design.\n");
    return 0;
}
