/**
 * @file
 * Capture -> replay quickstart: snapshot any workload to a binary
 * trace (docs/traces.md), then replay the trace through the source
 * registry and verify the replay reproduces the capture run's
 * determinism fields bit-identically.
 *
 *   $ ./capture_replay                       # 462.libquantum
 *   $ ./capture_replay 429.mcf               # any synthetic name
 *   $ ./capture_replay 429.mcf 2000000       # ... with a budget
 *
 * The trace lands next to the binary as <name>.dtrc and can be fed
 * to any harness, e.g.:
 *
 *   $ ./paper_figures --benchmark=source://trace/429.mcf.dtrc
 */

#include <cstdio>
#include <cstdlib>

#include "sim/metrics.hh"
#include "sim/system.hh"
#include "workloads/source.hh"

using namespace darco;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "462.libquantum";
    const uint64_t budget =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1'000'000;
    const std::string trace_path = name + ".dtrc";

    // 1. Resolve the workload through the source registry. A bare
    //    name is shorthand for source://synthetic/<name>.
    const workloads::Workload workload =
        workloads::resolveWorkload(workloads::syntheticUri(name));
    std::printf("resolved  %s (%s, %zu code bytes)\n",
                workload.uri.c_str(), workload.suite.c_str(),
                workload.program.code.size());

    // 2. Run it live with capture enabled: the System snapshots the
    //    program image, the run recipe, and — after the run — the
    //    determinism pins into the trace file.
    sim::MetricsOptions options;
    options.guestBudget = budget;
    options.tolConfig.bbToSbThreshold =
        sim::scaledSbThreshold(budget);
    options.captureTracePath = trace_path;
    const sim::BenchMetrics live = sim::collectMetrics(
        sim::snapshotRun(workload, options), workload.name,
        workload.suite);
    std::printf("captured  %s (budget %llu, BB/SBth %u)\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(budget),
                options.tolConfig.bbToSbThreshold);

    // 3. Replay: resolve the trace and run it; snapshotRun re-applies
    //    its capture recipe (budget + promotion thresholds).
    const workloads::Workload replayed = workloads::resolveWorkload(
        workloads::traceUri(trace_path));
    const sim::BenchMetrics replay = sim::collectMetrics(
        sim::snapshotRun(replayed, sim::MetricsOptions{}), replayed.name,
        replayed.suite);

    // 4. The engine is deterministic, so the replay must reproduce
    //    the live run exactly — the same contract the round-trip
    //    tests (tests/test_trace_roundtrip.cc) enforce for every suite.
    struct Row
    {
        const char *field;
        uint64_t live, replay;
    } rows[] = {
        {"guest_retired", live.guestRetired, replay.guestRetired},
        {"sim_cycles", live.cycles, replay.cycles},
        {"dyn IM insts", live.dynIm, replay.dynIm},
        {"dyn BBM insts", live.dynBbm, replay.dynBbm},
        {"dyn SBM insts", live.dynSbm, replay.dynSbm},
        {"SBs created", live.sbInvocations, replay.sbInvocations},
        {"indirect branches", live.guestIndirect,
         replay.guestIndirect},
    };
    std::printf("\n%-18s %14s %14s\n", "field", "live", "replay");
    bool identical = true;
    for (const Row &row : rows) {
        std::printf("%-18s %14llu %14llu%s\n", row.field,
                    static_cast<unsigned long long>(row.live),
                    static_cast<unsigned long long>(row.replay),
                    row.live == row.replay ? "" : "  <-- MISMATCH");
        identical = identical && row.live == row.replay;
    }
    std::printf("\nreplay is %s\n",
                identical ? "bit-identical to the captured run"
                          : "DIVERGENT (simulator bug!)");
    return identical ? 0 : 1;
}
