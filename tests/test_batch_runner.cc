/**
 * @file
 * Batch-execution gates (docs/concurrency.md): parallel sweeps must
 * be bit-identical to serial ones, results must land in job-index
 * order under any scheduling, a failing job must never take the
 * batch down, and the process-global services jobs share (workload
 * registry, trace capture) must be thread-safe. This suite is also
 * what the CI ThreadSanitizer job runs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <iterator>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "runner/batch_runner.hh"
#include "runner/result_cache.hh"
#include "sim/metrics.hh"
#include "sim/run_error.hh"
#include "timing/pipeline.hh"
#include "tol/stats.hh"
#include "trace/trace.hh"
#include "workloads/source.hh"

using namespace darco;

namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

std::vector<uint8_t>
readAll(const std::string &path)
{
    FILE *fp = std::fopen(path.c_str(), "rb");
    EXPECT_NE(fp, nullptr) << path;
    std::vector<uint8_t> bytes;
    if (!fp)
        return bytes;
    uint8_t buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), fp)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(fp);
    return bytes;
}

/** The representative synthetic set: one per paper suite. */
const char *kSuiteReps[] = {"464.h264ref", "436.cactusADM",
                            "104.novis_explosions", "005.h264enc"};

runner::BatchConfig
withWorkers(unsigned workers)
{
    runner::BatchConfig cfg;
    cfg.workers = workers;
    return cfg;
}

sim::MetricsOptions
smallOptions(uint64_t budget = 120'000)
{
    sim::MetricsOptions options;
    options.guestBudget = budget;
    options.tolConfig.bbToSbThreshold = sim::scaledSbThreshold(budget);
    return options;
}

runner::BatchJob
makeJob(std::string uri, sim::MetricsOptions options)
{
    runner::BatchJob job;
    job.workload = std::move(uri);
    job.options = std::move(options);
    return job;
}

/** Slot-by-slot bit-identity between two runs of the same batch. */
void
expectIdenticalResults(const std::vector<runner::JobResult> &a,
                       const std::vector<runner::JobResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(a[i].uri);
        EXPECT_EQ(a[i].ok, b[i].ok);
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(sim::diffRunSnapshots(a[i].snapshot, b[i].snapshot),
                  "");
        // Derived figure metrics are pure functions of the snapshot,
        // but spot-check the headline fields anyway.
        const sim::BenchMetrics ma =
            sim::collectMetrics(a[i].snapshot, a[i].name, a[i].suite);
        const sim::BenchMetrics mb =
            sim::collectMetrics(b[i].snapshot, b[i].name, b[i].suite);
        EXPECT_EQ(ma.dynSbm, mb.dynSbm);
        EXPECT_DOUBLE_EQ(ma.tolCycles, mb.tolCycles);
    }
}

// ---------------------------------------------------------------------
// Parallel-vs-serial bit-identity (the acceptance contract).
// ---------------------------------------------------------------------

TEST(BatchAB, ParallelMatchesSerialOnSyntheticWorkloads)
{
    // Mixed batch: four suites x two configs, so jobs differ in both
    // workload and options.
    std::vector<runner::BatchJob> batch;
    for (const char *name : kSuiteReps) {
        batch.push_back(makeJob(workloads::syntheticUri(name),
                                smallOptions(120'000)));
        runner::BatchJob tweaked;
        tweaked.workload = workloads::syntheticUri(name);
        tweaked.options = smallOptions(90'000);
        tweaked.options.tolConfig.bbToSbThreshold = 2000;
        batch.push_back(std::move(tweaked));
    }
    // Every optional snapshot part at once: the three isolation pipes
    // and the profile.
    sim::MetricsOptions everything = smallOptions(90'000);
    everything.tolOnlyPipe = true;
    everything.appOnlyPipe = true;
    everything.tolModulePipe = true;
    everything.profile = true;
    batch.push_back(
        makeJob(workloads::syntheticUri("429.mcf"), everything));

    const auto serial = runner::BatchRunner(withWorkers(1)).run(batch);
    const auto parallel = runner::BatchRunner(withWorkers(4)).run(batch);

    for (const runner::JobResult &r : serial)
        EXPECT_TRUE(r.ok) << r.error;
    const sim::RunSnapshot &last = serial.back().snapshot;
    EXPECT_TRUE(last.tolOnly && last.appOnly && last.tolModule &&
                last.profile);
    expectIdenticalResults(serial, parallel);

    // And the serial path itself equals the single-run path
    // (sim::snapshotRun), so the runner changed nothing end to end.
    for (size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE(i);
        const sim::RunSnapshot ref = sim::snapshotRun(
            workloads::resolveWorkload(batch[i].workload),
            batch[i].options);
        EXPECT_EQ(sim::diffRunSnapshots(ref, serial[i].snapshot), "");
    }
}

TEST(BatchAB, ParallelMatchesSerialProfiles)
{
    // Profiled sweeps (MetricsOptions::profile) must keep the
    // bit-identity contract: every worker count yields the same
    // reuse histograms and branch profiles in every slot.
    std::vector<runner::BatchJob> batch;
    for (const char *name : kSuiteReps) {
        sim::MetricsOptions options = smallOptions(90'000);
        options.profile = true;
        batch.push_back(makeJob(workloads::syntheticUri(name),
                                options));
    }

    const auto serial = runner::BatchRunner(withWorkers(1)).run(batch);
    const auto parallel = runner::BatchRunner(withWorkers(4)).run(batch);

    for (const runner::JobResult &r : serial) {
        EXPECT_TRUE(r.ok) << r.error;
        ASSERT_TRUE(r.snapshot.profile.has_value()) << r.uri;
        EXPECT_GT(r.snapshot.profile->dataReuse.totalAccesses(), 0u)
            << r.uri;
    }
    expectIdenticalResults(serial, parallel);
}

TEST(BatchAB, ParallelMatchesSerialOnTraceWorkloads)
{
    // Capture two workloads, then replay them through the batch
    // runner serially and in parallel: every slot bit-identical and
    // every in-file determinism pin reproduced (a pin mismatch would
    // fail the job, so r.ok doubles as the pin check).
    std::vector<runner::BatchJob> batch;
    std::vector<std::string> paths;
    for (const char *name : {"464.h264ref", "429.mcf"}) {
        const std::string path =
            tempPath(std::string("batch_") + name + ".dtrc");
        sim::MetricsOptions capture = smallOptions(100'000);
        capture.captureTracePath = path;
        sim::snapshotRun(
            workloads::resolveWorkload(workloads::syntheticUri(name)),
            capture);
        paths.push_back(path);
        batch.push_back(makeJob(workloads::traceUri(path),
                                sim::MetricsOptions{}));
    }

    const auto serial = runner::BatchRunner(withWorkers(1)).run(batch);
    const auto parallel = runner::BatchRunner(withWorkers(4)).run(batch);
    for (const runner::JobResult &r : parallel)
        EXPECT_TRUE(r.ok) << r.error;  // includes the pin check
    expectIdenticalResults(serial, parallel);

    for (const std::string &path : paths)
        std::remove(path.c_str());
}

TEST(BatchRunner, ExpectedPinsEnforced)
{
    // A correct expectedPins passes; a perturbed one fails the job
    // with a structured report naming the field.
    const runner::BatchJob probe = makeJob(
        workloads::syntheticUri("462.libquantum"), smallOptions());
    const auto probed = runner::BatchRunner(withWorkers(1)).run({probe});
    ASSERT_TRUE(probed[0].ok) << probed[0].error;

    trace::TracePins pins;
    pins.guestRetired = probed[0].snapshot.result.guestRetired;
    pins.simCycles = probed[0].snapshot.result.cycles;
    pins.hostRecords = probed[0].snapshot.stats.records;
    const tol::TolStats &ts = probed[0].snapshot.tolStats;
    pins.dynIm = ts.dynIm;
    pins.dynBbm = ts.dynBbm;
    pins.dynSbm = ts.dynSbm;
    pins.bbsTranslated = ts.bbsTranslated;
    pins.sbsCreated = ts.sbsCreated;
    pins.guestIndirectBranches = ts.guestIndirectBranches;

    runner::BatchJob pinned = probe;
    pinned.expectedPins = pins;
    runner::BatchJob broken = probe;
    broken.expectedPins = pins;
    broken.expectedPins->simCycles += 1;

    const auto results =
        runner::BatchRunner(withWorkers(2)).run({pinned, broken});
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("sim_cycles"), std::string::npos)
        << results[1].error;
}

TEST(BatchRunner, ReferenceCoreReplayFailsTheTimingCorePin)
{
    // A replay on the other timing core reproduces every counter
    // (the cores are bit-identical) but is a different experiment
    // than the capture pinned: only the timing_core pin catches it.
    const std::string path = tempPath("refcore.dtrc");
    sim::MetricsOptions capture = smallOptions(100'000);
    capture.captureTracePath = path;
    sim::snapshotRun(workloads::resolveWorkload(
                         workloads::syntheticUri("429.mcf")),
                     capture);

    runner::BatchJob refcore =
        makeJob(workloads::traceUri(path), sim::MetricsOptions{});
    refcore.options.timingConfig.eventCore = false;
    const auto results =
        runner::BatchRunner(withWorkers(1)).run({refcore});
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("timing_core"), std::string::npos)
        << results[0].error;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Scheduling properties: order, failure isolation, oversubscription.
// ---------------------------------------------------------------------

TEST(BatchRunner, ResultsLandInJobIndexOrder)
{
    // Jobs with very different runtimes (budgets 20k..400k) so
    // completion order differs from submission order; slots must
    // still follow submission order.
    std::vector<runner::BatchJob> batch;
    std::vector<std::string> expect_names;
    const uint64_t budgets[] = {400'000, 20'000, 250'000, 40'000,
                                150'000, 30'000};
    for (size_t i = 0; i < std::size(budgets); ++i) {
        const char *name = kSuiteReps[i % std::size(kSuiteReps)];
        batch.push_back(makeJob(workloads::syntheticUri(name),
                                smallOptions(budgets[i])));
        expect_names.push_back(name);
    }
    const auto results = runner::BatchRunner(withWorkers(3)).run(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(results[i].name, expect_names[i]);
        EXPECT_EQ(results[i].uri, batch[i].workload);
    }
}

TEST(BatchRunner, FailingJobsReportWithoutAbortingTheBatch)
{
    // Three failure shapes between healthy jobs: unknown synthetic
    // benchmark, unknown scheme, unreadable trace file. Each fails
    // structurally (fatal() converted to a JobResult error); the
    // healthy jobs still produce correct metrics.
    std::vector<runner::BatchJob> batch;
    batch.push_back(makeJob(workloads::syntheticUri("462.libquantum"),
                            smallOptions()));
    batch.push_back(makeJob("source://synthetic/no.such.benchmark",
                            smallOptions()));
    batch.push_back(makeJob("source://nosuchscheme/x", smallOptions()));
    batch.push_back(makeJob("source://trace/" + tempPath("missing.dtrc"),
                            smallOptions()));
    batch.push_back(makeJob(workloads::syntheticUri("429.mcf"),
                            smallOptions()));

    const auto results = runner::BatchRunner(withWorkers(4)).run(batch);
    ASSERT_EQ(results.size(), 5u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("unknown synthetic benchmark"),
              std::string::npos) << results[1].error;
    EXPECT_FALSE(results[2].ok);
    EXPECT_NE(results[2].error.find("unknown scheme"),
              std::string::npos) << results[2].error;
    EXPECT_FALSE(results[3].ok);
    EXPECT_TRUE(results[4].ok) << results[4].error;

    // The healthy slots equal a clean serial run of the same jobs.
    const auto clean = runner::BatchRunner(withWorkers(1))
                           .run({batch[0], batch[4]});
    EXPECT_EQ(timing::diffStats(results[0].snapshot.stats,
                                clean[0].snapshot.stats), "");
    EXPECT_EQ(timing::diffStats(results[4].snapshot.stats,
                                clean[1].snapshot.stats), "");
}

TEST(BatchRunner, FusionPrePassWithUnresolvableRepeatsMatchesInline)
{
    // The pre-pass resolves every repeated workload string: fused
    // groups for each suite representative, beside a missing trace
    // and an unknown benchmark, listed four and three times,
    // interleaved with them. Every slot must be the same classified
    // result at 4 workers as inline at 1.
    const std::string missing =
        "source://trace/" + tempPath("prepass_missing.dtrc");
    std::vector<runner::BatchJob> batch;
    for (const char *name : kSuiteReps) {
        sim::MetricsOptions tol_only = smallOptions(40'000);
        tol_only.tolOnlyPipe = true;
        sim::MetricsOptions app_only = smallOptions(40'000);
        app_only.appOnlyPipe = true;
        const std::string uri = workloads::syntheticUri(name);
        batch.push_back(makeJob(uri, smallOptions(40'000)));
        batch.push_back(makeJob(missing, smallOptions(40'000)));
        batch.push_back(makeJob(uri, tol_only));
        batch.push_back(makeJob(uri, app_only));
        if (name != kSuiteReps[0]) {
            batch.push_back(makeJob("source://synthetic/no.such.benchmark",
                                    smallOptions(40'000)));
        }
    }

    const auto serial = runner::BatchRunner(withWorkers(1)).run(batch);
    const auto parallel = runner::BatchRunner(withWorkers(4)).run(batch);
    expectIdenticalResults(serial, parallel);
    unsigned failed = 0, fused = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE(batch[i].workload);
        EXPECT_EQ(serial[i].runError.cls, parallel[i].runError.cls);
        EXPECT_EQ(serial[i].error, parallel[i].error);
        EXPECT_EQ(serial[i].fused, parallel[i].fused);
        EXPECT_EQ(serial[i].deduped, parallel[i].deduped);
        EXPECT_EQ(serial[i].attempts, parallel[i].attempts);
        const bool resolvable = batch[i].workload.find("no.such") ==
                                    std::string::npos &&
                                batch[i].workload != missing;
        EXPECT_EQ(serial[i].ok, resolvable) << serial[i].error;
        EXPECT_NE(serial[i].runError.cls == sim::RunErrorClass::None,
                  !resolvable);
        failed += !serial[i].ok;
        fused += serial[i].fused;
    }
    EXPECT_EQ(failed, 4u + 3u);
    // Each representative's two isolation jobs ride its base run.
    EXPECT_EQ(fused, 2u * std::size(kSuiteReps));
}

TEST(Fusion, PrePassFingerprintsMatchDirect)
{
    // One workload; each variant differs from the base in exactly one
    // listed field, and most come twice. The pre-pass fingerprints
    // each distinct config once and shares it by exact equality, so
    // 0.0 and -0.0 (which dump differently) must not share one.
    const std::string uri = workloads::syntheticUri("429.mcf");
    const sim::MetricsOptions base = smallOptions(20'000);
    sim::MetricsOptions pipe = base;
    pipe.tolOnlyPipe = true;
    sim::MetricsOptions zero = base;
    zero.tolConfig.sbBranchBias = 0.0;
    sim::MetricsOptions neg_zero = base;
    neg_zero.tolConfig.sbBranchBias = -0.0;
    sim::MetricsOptions geometry = base;
    geometry.timingConfig.l1d.ways = 2;
    runner::BatchJob halt = makeJob(uri, base);
    halt.requireHalt = true;
    const struct
    {
        runner::BatchJob job;
        bool repeat;
    } rows[] = {
        {makeJob(uri, base), false},     {makeJob(uri, base), true},
        {makeJob(uri, pipe), false},     {makeJob(uri, pipe), true},
        {makeJob(uri, zero), false},     {makeJob(uri, neg_zero), false},
        {makeJob(uri, neg_zero), true},  {halt, false},
        {halt, true},                    {makeJob(uri, geometry), false},
        {makeJob(uri, geometry), true},
    };
    std::vector<runner::BatchJob> batch;
    for (const auto &row : rows)
        batch.push_back(row.job);
    ASSERT_NE(runner::configFingerprint(zero, uri, false),
              runner::configFingerprint(neg_zero, uri, false));

    for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(workers);
        const auto results =
            runner::BatchRunner(withWorkers(workers)).run(batch);
        ASSERT_EQ(results.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(results[i].fingerprint,
                      runner::configFingerprint(batch[i].options, uri,
                                                batch[i].requireHalt));
            // A halt the budget-bound guest never reaches fails the
            // group's run; its members then run solo, undeduped.
            EXPECT_EQ(results[i].ok, !batch[i].requireHalt);
            EXPECT_EQ(results[i].deduped, rows[i].repeat && results[i].ok);
        }
        EXPECT_TRUE(results[2].fused);
    }
}

TEST(BatchRunner, OversubscriptionJobsFarExceedWorkers)
{
    // 24 jobs on 3 workers: the FIFO cursor must hand out every job
    // exactly once and the batch must complete with ordered slots.
    std::vector<runner::BatchJob> batch;
    for (int rep = 0; rep < 6; ++rep) {
        for (const char *name : kSuiteReps) {
            batch.push_back(makeJob(workloads::syntheticUri(name),
                                    smallOptions(25'000)));
        }
    }
    ASSERT_EQ(batch.size(), 24u);
    const auto parallel = runner::BatchRunner(withWorkers(3)).run(batch);
    const auto serial = runner::BatchRunner(withWorkers(1)).run(batch);
    expectIdenticalResults(serial, parallel);
    // Repeats of one workload are the same deterministic simulation.
    EXPECT_EQ(timing::diffStats(parallel[0].snapshot.stats,
                                parallel[20].snapshot.stats), "");
}

TEST(BatchRunner, DuplicateCapturePathsRejected)
{
    // A capture is a single run, so two jobs capturing to one path are
    // rejected before either writes the trace.
    const std::string trace_path = tempPath("dup.dtrc");
    std::remove(trace_path.c_str());
    std::vector<runner::BatchJob> batch;
    for (int i = 0; i < 2; ++i) {
        runner::BatchJob job = makeJob(
            workloads::syntheticUri("429.mcf"), smallOptions());
        job.options.captureTracePath = trace_path;
        batch.push_back(std::move(job));
    }
    ScopedFatalThrow fatal_throws;
    EXPECT_THROW(runner::BatchRunner(withWorkers(2)).run(batch),
                 FatalError);
    EXPECT_NE(::access(trace_path.c_str(), F_OK), 0);
}

// ---------------------------------------------------------------------
// Shared-service audits: logging seam, registry, trace capture.
// ---------------------------------------------------------------------

TEST(FatalThrowSeam, ScopedAndThreadLocal)
{
    // Inside the scope fatal() throws a FatalError carrying message
    // and site; the scope is per-thread, so another thread entering
    // its own scope observes its own fatal, not ours.
    try {
        ScopedFatalThrow fatal_throws;
        fatal("seam check %d", 7);
        FAIL() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("seam check 7"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("test_batch_runner"),
                  std::string::npos);
    }

    std::string other_thread_error;
    std::thread([&] {
        ScopedFatalThrow fatal_throws;
        try {
            fatal_if(true, "worker fatal");
        } catch (const FatalError &e) {
            other_thread_error = e.what();
        }
    }).join();
    EXPECT_NE(other_thread_error.find("worker fatal"),
              std::string::npos);
}

namespace {

/** Minimal source for registry-race tests: echoes the builtin
 *  synthetic resolution under a private scheme name. */
class StubSource : public workloads::WorkloadSource
{
  public:
    explicit StubSource(std::string scheme_name)
        : name(std::move(scheme_name))
    {}

    std::string scheme() const override { return name; }

    workloads::Workload
    resolve(const std::string &spec) const override
    {
        return workloads::resolveWorkload(
            workloads::syntheticUri(spec));
    }

  private:
    std::string name;
};

} // namespace

TEST(RegistryRace, ConcurrentRegistrationAndResolution)
{
    // Regression for the lazy-init data race (source.cc registry):
    // two threads register distinct schemes while four more hammer
    // resolution through the builtins. Under TSan this is the probe
    // that used to light up; functionally, both registrations must
    // land and every resolution must succeed.
    std::thread reg_a([] {
        workloads::registerSource(
            std::make_unique<StubSource>("race-a"));
    });
    std::thread reg_b([] {
        workloads::registerSource(
            std::make_unique<StubSource>("race-b"));
    });
    std::vector<std::thread> resolvers;
    std::atomic<unsigned> resolved{0};
    for (int t = 0; t < 4; ++t) {
        resolvers.emplace_back([&resolved] {
            for (int i = 0; i < 50; ++i) {
                const workloads::Workload w =
                    workloads::resolveWorkload("462.libquantum");
                if (w.name == "462.libquantum")
                    resolved.fetch_add(1);
            }
        });
    }
    reg_a.join();
    reg_b.join();
    for (std::thread &t : resolvers)
        t.join();
    EXPECT_EQ(resolved.load(), 200u);

    EXPECT_EQ(workloads::resolveWorkload("source://race-a/429.mcf")
                  .name, "429.mcf");
    EXPECT_EQ(workloads::resolveWorkload("source://race-b/473.astar")
                  .name, "473.astar");
}

TEST(RegistryRace, OneWinnerWhenTwoThreadsClaimOneScheme)
{
    std::atomic<unsigned> winners{0}, losers{0};
    std::vector<std::thread> claimants;
    for (int t = 0; t < 2; ++t) {
        claimants.emplace_back([&] {
            ScopedFatalThrow fatal_throws;
            try {
                workloads::registerSource(
                    std::make_unique<StubSource>("race-dup"));
                winners.fetch_add(1);
            } catch (const FatalError &) {
                losers.fetch_add(1);
            }
        });
    }
    for (std::thread &t : claimants)
        t.join();
    EXPECT_EQ(winners.load(), 1u);
    EXPECT_EQ(losers.load(), 1u);
}

TEST(ConcurrentCapture, TwoSystemsCapturingAreByteIdentical)
{
    // Two Systems capturing different workloads to different paths
    // on different threads must write byte-identical files to their
    // serial captures: capture is System-local state except for the
    // final file write, and the paths are distinct.
    const char *names[] = {"464.h264ref", "429.mcf"};
    std::vector<uint8_t> serial_bytes[2];
    for (int i = 0; i < 2; ++i) {
        const std::string path =
            tempPath(std::string("cap_serial_") + names[i] + ".dtrc");
        sim::MetricsOptions options = smallOptions(80'000);
        options.captureTracePath = path;
        sim::snapshotRun(workloads::resolveWorkload(
                             workloads::syntheticUri(names[i])),
                         options);
        serial_bytes[i] = readAll(path);
        std::remove(path.c_str());
        ASSERT_FALSE(serial_bytes[i].empty());
    }

    std::vector<uint8_t> threaded_bytes[2];
    std::vector<std::thread> capturers;
    for (int i = 0; i < 2; ++i) {
        capturers.emplace_back([i, &names, &threaded_bytes] {
            const std::string path = tempPath(
                std::string("cap_threaded_") + names[i] + ".dtrc");
            sim::MetricsOptions options = smallOptions(80'000);
            options.captureTracePath = path;
            sim::snapshotRun(workloads::resolveWorkload(
                                 workloads::syntheticUri(names[i])),
                             options);
            threaded_bytes[i] = readAll(path);
            std::remove(path.c_str());
        });
    }
    for (std::thread &t : capturers)
        t.join();

    EXPECT_EQ(threaded_bytes[0], serial_bytes[0]);
    EXPECT_EQ(threaded_bytes[1], serial_bytes[1]);
}

} // namespace
