/**
 * @file
 * BatchRunner quickstart: run a configuration sweep on a worker
 * pool, then prove the parallel results equal the serial ones.
 *
 * A "batch" is a vector of independent jobs — workload URI plus a
 * per-job MetricsOptions — and the runner executes them on a fixed
 * pool (one sim::System per job, one job per worker at a time),
 * returning results in job order regardless of which worker finished
 * when. Because the engine is deterministic and jobs share nothing,
 * the pool size changes only wall clock, never a metric; this
 * example A/Bs a 1-worker and an N-worker run of the same batch to
 * demonstrate exactly that (the real enforcement lives in
 * tests/test_batch_runner.cc).
 *
 *   $ ./example_batch_sweep [workers]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "runner/batch_runner.hh"
#include "workloads/source.hh"

using namespace darco;

namespace {

double
wallSeconds(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

runner::BatchConfig
withWorkers(unsigned workers)
{
    runner::BatchConfig cfg;
    cfg.workers = workers;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned workers =
        argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 0;

    // The batch: four benchmarks, each at two promotion thresholds —
    // the shape of every figure sweep (workloads x configurations).
    const char *benchmarks[] = {"429.mcf", "462.libquantum",
                                "464.h264ref", "473.astar"};
    std::vector<runner::BatchJob> batch;
    for (const char *name : benchmarks) {
        for (uint32_t threshold : {300u, 2000u}) {
            runner::BatchJob job;
            job.workload = workloads::syntheticUri(name);
            job.options.guestBudget = 500'000;
            job.options.tolConfig.bbToSbThreshold = threshold;
            batch.push_back(std::move(job));
        }
    }

    // Serial reference (1 worker), then the pool.
    std::vector<runner::JobResult> serial, parallel;
    const double serial_s = wallSeconds([&] {
        serial = runner::BatchRunner(withWorkers(1)).run(batch);
    });
    runner::BatchConfig config;
    config.workers = workers;
    const runner::BatchRunner pool(config);
    const unsigned used = pool.effectiveWorkers(batch.size());
    const double parallel_s =
        wallSeconds([&] { parallel = pool.run(batch); });

    std::printf("%-18s %9s %12s %12s %8s\n", "workload", "SBth",
                "guest insts", "cycles", "IPC");
    for (size_t i = 0; i < batch.size(); ++i) {
        const runner::JobResult &r = parallel[i];
        if (!r.ok) {
            std::printf("%-18s FAILED: %s\n", r.uri.c_str(),
                        r.error.c_str());
            continue;
        }
        std::printf("%-18s %9u %12llu %12llu %8.3f\n", r.name.c_str(),
                    batch[i].options.tolConfig.bbToSbThreshold,
                    static_cast<unsigned long long>(
                        r.snapshot.result.guestRetired),
                    static_cast<unsigned long long>(
                        r.snapshot.result.cycles),
                    r.snapshot.stats.ipc());
    }

    // Slot-by-slot bit-identity of the two runs.
    unsigned mismatches = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
        if (!serial[i].ok || !parallel[i].ok ||
            !sim::diffRunSnapshots(serial[i].snapshot,
                                   parallel[i].snapshot).empty())
            ++mismatches;
    }
    std::printf("\n%zu jobs: serial %.2fs, %u workers %.2fs "
                "(%.2fx); %s\n",
                batch.size(), serial_s, used, parallel_s,
                parallel_s > 0 ? serial_s / parallel_s : 0.0,
                mismatches == 0
                    ? "parallel metrics bit-identical to serial"
                    : "METRIC MISMATCH (should be impossible)");
    return mismatches == 0 ? 0 : 1;
}
