/**
 * @file
 * Fault-tolerance gates (docs/robustness.md): every RunError class
 * must be producible and classified without message matching, the
 * retry policy must re-run exactly the transient classes with the
 * deterministic backoff schedule, a watchdog-cancelled job must
 * report Timeout with partial metrics while its batch completes, and
 * a SIGKILLed campaign must resume from its result cache
 * bit-identically to an uninterrupted run.
 *
 * This binary has a custom main: it arms fault-injection points from
 * DARCO_FAULTINJECT (so child processes can be armed through the
 * environment) and, when DARCO_FT_CAMPAIGN_CHILD is set, runs the
 * kill-and-resume campaign instead of the test suite. The parent
 * test re-execs itself (/proc/self/exe) in that mode with
 * cache-kill armed, so the process really dies mid-campaign with
 * SIGKILL — no in-process simulation of a crash.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/faultinject.hh"
#include "common/logging.hh"
#include "guest/assembler.hh"
#include "runner/batch_runner.hh"
#include "runner/result_cache.hh"
#include "sim/metrics.hh"
#include "sim/run_error.hh"
#include "timing/pipeline.hh"
#include "tol/stats.hh"
#include "trace/trace.hh"
#include "workloads/params.hh"
#include "workloads/source.hh"

using namespace darco;
namespace g = darco::guest;

namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

/** Names of the files in @p dir ("." and ".." excluded). */
std::vector<std::string>
listDir(const std::string &dir)
{
    std::vector<std::string> names;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (const dirent *e = ::readdir(d)) {
            const std::string name = e->d_name;
            if (name != "." && name != "..")
                names.push_back(name);
        }
        ::closedir(d);
    }
    return names;
}

/** Disarm every injection point on entry and exit, so a failing
 *  EXPECT cannot leak an armed point into the next test. */
struct FaultClear
{
    FaultClear() { faultinject::disarmAll(); }
    ~FaultClear() { faultinject::disarmAll(); }
};

sim::MetricsOptions
smallOptions(uint64_t budget)
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

/** A small guest that reaches HALT well inside its budget. */
trace::TraceFile
haltingTraceFile()
{
    g::Assembler as;
    as.mov(g::EAX, 0);
    as.mov(g::ECX, 400);
    auto loop = as.newLabel();
    as.bind(loop);
    as.add(g::EAX, g::ECX);
    as.dec(g::ECX);
    as.jcc(g::Cond::NE, loop);
    as.halt();

    trace::TraceFile file;
    file.meta.name = "ft-halting";
    file.meta.suite = "FT";
    file.meta.guestBudget = 20'000;
    file.meta.imToBbThreshold = 5;
    file.meta.bbToSbThreshold = 300;
    file.program.code = as.finalize(file.program.codeBase);
    file.program.entry = file.program.codeBase;
    return file;
}

/** A structurally valid trace whose code bytes are not decodable
 *  guest instructions (every opcode byte past Op::NumOps). */
trace::TraceFile
badOpcodeTraceFile()
{
    trace::TraceFile file;
    file.meta.name = "ft-badop";
    file.meta.suite = "FT";
    file.meta.guestBudget = 1000;
    file.meta.imToBbThreshold = 5;
    file.meta.bbToSbThreshold = 300;
    file.program.code.assign(64, 0xFF);
    file.program.entry = file.program.codeBase;
    return file;
}

std::string
writeTempTrace(const std::string &name, const trace::TraceFile &file)
{
    const std::string path = tempPath(name);
    trace::writeTrace(path, file);
    return path;
}

/**
 * The kill-and-resume campaign: 8 benchmarks x 3 budgets = 24 jobs.
 * Parent, child and the serial reference all build the batch through
 * this one function, so the fingerprints line up by construction.
 */
std::vector<runner::BatchJob>
campaignJobs()
{
    const auto &all = workloads::allBenchmarks();
    std::vector<runner::BatchJob> jobs;
    for (size_t i = 0; i < 8 && i < all.size(); ++i) {
        for (const uint64_t budget : {40'000u, 60'000u, 80'000u}) {
            jobs.push_back(makeJob(workloads::syntheticUri(all[i].name),
                                   smallOptions(budget)));
        }
    }
    return jobs;
}

/** Per-slot bit-identity: the resume acceptance currency. */
void
expectIdenticalSlots(const std::vector<runner::JobResult> &got,
                     const std::vector<runner::JobResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(want[i].uri + strprintf(" (job %zu)", i));
        EXPECT_TRUE(got[i].ok);
        EXPECT_TRUE(want[i].ok);
        EXPECT_EQ(got[i].name, want[i].name);
        EXPECT_EQ(got[i].suite, want[i].suite);
        EXPECT_EQ(sim::diffRunSnapshots(got[i].snapshot,
                                        want[i].snapshot), "");
        // Figure metrics are pure functions of the snapshot
        // (sim::collectMetrics); spot-check the headline fields.
        EXPECT_EQ(got[i].metrics.dynSbm, want[i].metrics.dynSbm);
        EXPECT_EQ(got[i].metrics.cycles, want[i].metrics.cycles);
        EXPECT_DOUBLE_EQ(got[i].metrics.tolCycles,
                         want[i].metrics.tolCycles);
    }
}

// ---------------------------------------------------------------------
// Taxonomy basics.
// ---------------------------------------------------------------------

TEST(RunErrorTaxonomy, ClassNamesAreDistinctAndNonEmpty)
{
    // Failure reports name the class, so no two classes may share a
    // name and none may print as nothing.
    using sim::RunErrorClass;
    std::set<std::string> names;
    for (const RunErrorClass cls : {
             RunErrorClass::None, RunErrorClass::BadWorkload,
             RunErrorClass::TraceCorrupt, RunErrorClass::GuestFault,
             RunErrorClass::BudgetExhausted, RunErrorClass::Timeout,
             RunErrorClass::IoTransient, RunErrorClass::Internal}) {
        const std::string name = sim::runErrorClassName(cls);
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(names.insert(name).second) << name;
    }
}

TEST(RunErrorTaxonomy, TransiencePolicy)
{
    using sim::RunErrorClass;
    const auto transient = [](RunErrorClass cls) {
        return sim::RunError{cls, "u", "c"}.transient();
    };
    EXPECT_TRUE(transient(RunErrorClass::Timeout));
    EXPECT_TRUE(transient(RunErrorClass::IoTransient));
    EXPECT_FALSE(transient(RunErrorClass::BadWorkload));
    EXPECT_FALSE(transient(RunErrorClass::TraceCorrupt));
    EXPECT_FALSE(transient(RunErrorClass::GuestFault));
    EXPECT_FALSE(transient(RunErrorClass::BudgetExhausted));
    EXPECT_FALSE(transient(RunErrorClass::Internal));

    const sim::RunError e{RunErrorClass::TraceCorrupt, "source://x",
                          "CSUM mismatch"};
    EXPECT_EQ(e.describe(), "TraceCorrupt (permanent): CSUM mismatch");
    const sim::RunError t{RunErrorClass::Timeout, "source://x",
                          "deadline"};
    EXPECT_EQ(t.describe(), "Timeout (transient): deadline");
}

TEST(RunErrorTaxonomy, BackoffIsDeterministicAndBounded)
{
    EXPECT_EQ(runner::backoffDelayMs(100, 0), 100u);
    EXPECT_EQ(runner::backoffDelayMs(100, 1), 200u);
    EXPECT_EQ(runner::backoffDelayMs(100, 5), 3200u);
    EXPECT_EQ(runner::backoffDelayMs(100, 6), 6400u);
    // Saturates: attempt 7, 20, ... all cap at base * 64.
    EXPECT_EQ(runner::backoffDelayMs(100, 7), 6400u);
    EXPECT_EQ(runner::backoffDelayMs(100, 20), 6400u);
}

TEST(FaultInject, ArmedCountSemantics)
{
    FaultClear clear;
    EXPECT_FALSE(faultinject::anyArmed());
    EXPECT_FALSE(faultinject::fire(faultinject::Point::TraceIoFail));

    faultinject::arm(faultinject::Point::TraceIoFail, 2, 7);
    EXPECT_TRUE(faultinject::anyArmed());
    EXPECT_EQ(faultinject::pending(faultinject::Point::TraceIoFail), 2u);
    EXPECT_EQ(faultinject::param(faultinject::Point::TraceIoFail), 7u);
    EXPECT_TRUE(faultinject::fire(faultinject::Point::TraceIoFail));
    EXPECT_TRUE(faultinject::fire(faultinject::Point::TraceIoFail));
    // Exhausted after `count` firings; other points never armed.
    EXPECT_FALSE(faultinject::fire(faultinject::Point::TraceIoFail));
    EXPECT_FALSE(faultinject::fire(faultinject::Point::MidRunThrow));
    EXPECT_FALSE(faultinject::anyArmed());
}

// ---------------------------------------------------------------------
// Classification: every class producible, correct retry behaviour.
// ---------------------------------------------------------------------

TEST(Classify, UnknownWorkloadIsBadWorkloadNeverRetried)
{
    runner::BatchConfig cfg;
    cfg.workers = 1;
    cfg.retries = 3;      // permanent => must not be used
    cfg.backoffBaseMs = 1;
    const auto results = runner::BatchRunner(cfg).run(
        {makeJob(workloads::syntheticUri("no-such-benchmark"),
                 smallOptions(50'000))});
    ASSERT_EQ(results.size(), 1u);
    const runner::JobResult &r = results[0];
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.runError.cls, sim::RunErrorClass::BadWorkload);
    EXPECT_FALSE(r.runError.transient());
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_EQ(r.backoffMsApplied, 0u);
}

TEST(Classify, CorruptTraceIsTraceCorruptNeverRetried)
{
    const std::string path =
        writeTempTrace("ft_corrupt.dtrc", haltingTraceFile());
    // Flip one byte in the middle: CSUM catches it, and the reader
    // reports Corrupt — re-reading the same bytes cannot help.
    FILE *fp = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, 0, SEEK_END);
    const long size = std::ftell(fp);
    std::fseek(fp, size / 2, SEEK_SET);
    const int byte = std::fgetc(fp);
    std::fseek(fp, size / 2, SEEK_SET);
    std::fputc(byte ^ 0xFF, fp);
    std::fclose(fp);

    runner::BatchConfig cfg;
    cfg.workers = 1;
    cfg.retries = 2;
    cfg.backoffBaseMs = 1;
    const auto results = runner::BatchRunner(cfg).run(
        {makeJob(workloads::traceUri(path), smallOptions(50'000))});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].runError.cls,
              sim::RunErrorClass::TraceCorrupt);
    EXPECT_EQ(results[0].attempts, 1u);
}

TEST(Classify, UndecodableGuestProgramIsGuestFault)
{
    const std::string path =
        writeTempTrace("ft_badop.dtrc", badOpcodeTraceFile());
    runner::BatchConfig cfg;
    cfg.workers = 1;
    cfg.retries = 2;
    cfg.backoffBaseMs = 1;
    const auto results = runner::BatchRunner(cfg).run(
        {makeJob(workloads::traceUri(path), smallOptions(50'000))});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].runError.cls, sim::RunErrorClass::GuestFault);
    EXPECT_EQ(results[0].attempts, 1u);
}

TEST(Classify, BudgetExhaustedWhenHaltRequired)
{
    // The paper benchmarks are budget-bound at 60k instructions, so
    // requiring HALT fails — permanently: a bigger budget would be a
    // different experiment, not a retry.
    runner::BatchJob job = makeJob(workloads::syntheticUri("464.h264ref"),
                                   smallOptions(60'000));
    job.requireHalt = true;
    runner::BatchConfig cfg;
    cfg.workers = 1;
    cfg.retries = 2;
    cfg.backoffBaseMs = 1;
    const auto results = runner::BatchRunner(cfg).run({job});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].runError.cls,
              sim::RunErrorClass::BudgetExhausted);
    EXPECT_FALSE(results[0].runError.transient());
    EXPECT_EQ(results[0].attempts, 1u);
    // The run itself completed: partial metrics are real.
    EXPECT_GT(results[0].snapshot.result.guestRetired, 0u);

    // A guest that does halt satisfies the same requirement.
    const std::string path =
        writeTempTrace("ft_halting.dtrc", haltingTraceFile());
    runner::BatchJob halting =
        makeJob(workloads::traceUri(path), smallOptions(50'000));
    halting.requireHalt = true;
    const auto ok = runner::BatchRunner(cfg).run({halting});
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_TRUE(ok[0].ok) << ok[0].error;
    EXPECT_TRUE(ok[0].snapshot.result.halted);
}

TEST(Classify, MidRunFatalIsInternalNeverRetried)
{
    FaultClear clear;
    faultinject::arm(faultinject::Point::MidRunThrow, 1);
    runner::BatchConfig cfg;
    cfg.workers = 1;
    cfg.retries = 3;      // Internal is permanent => unused
    cfg.backoffBaseMs = 1;
    const auto results = runner::BatchRunner(cfg).run(
        {makeJob(workloads::syntheticUri("464.h264ref"),
                 smallOptions(50'000))});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].runError.cls, sim::RunErrorClass::Internal);
    EXPECT_EQ(results[0].attempts, 1u);
}

TEST(Classify, FailingJobNeverTakesTheBatchDown)
{
    // One of each failure mixed with successes: every slot reports
    // independently, the good jobs finish untouched.
    const std::string corrupt =
        writeTempTrace("ft_mixed_corrupt.dtrc", haltingTraceFile());
    FILE *fp = std::fopen(corrupt.c_str(), "rb+");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, 16, SEEK_SET);
    std::fputc(0xEE, fp);
    std::fclose(fp);

    std::vector<runner::BatchJob> jobs;
    jobs.push_back(makeJob(workloads::syntheticUri("464.h264ref"),
                           smallOptions(50'000)));
    jobs.push_back(makeJob(workloads::syntheticUri("no-such"),
                           smallOptions(50'000)));
    jobs.push_back(makeJob(workloads::traceUri(corrupt),
                           smallOptions(50'000)));
    jobs.push_back(makeJob(workloads::syntheticUri("436.cactusADM"),
                           smallOptions(50'000)));

    runner::BatchConfig cfg;
    cfg.workers = 4;
    const auto results = runner::BatchRunner(cfg).run(jobs);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[1].runError.cls,
              sim::RunErrorClass::BadWorkload);
    EXPECT_EQ(results[2].runError.cls,
              sim::RunErrorClass::TraceCorrupt);
    EXPECT_TRUE(results[3].ok) << results[3].error;
}

// ---------------------------------------------------------------------
// Retry: transient failures re-run from scratch with backoff.
// ---------------------------------------------------------------------

TEST(Retry, TransientIoFailureSucceedsOnSecondAttempt)
{
    FaultClear clear;
    const std::string path =
        writeTempTrace("ft_transient.dtrc", haltingTraceFile());
    faultinject::arm(faultinject::Point::TraceIoFail, 1);

    runner::BatchConfig cfg;
    cfg.workers = 1;
    cfg.retries = 2;
    cfg.backoffBaseMs = 1;
    const auto results = runner::BatchRunner(cfg).run(
        {makeJob(workloads::traceUri(path), smallOptions(50'000))});
    ASSERT_EQ(results.size(), 1u);
    const runner::JobResult &r = results[0];
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.runError.cls, sim::RunErrorClass::None);
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_EQ(r.backoffMsApplied, runner::backoffDelayMs(1, 0));
    EXPECT_TRUE(r.snapshot.result.halted);
}

TEST(Retry, TransientFailureWithoutRetryBudgetFails)
{
    FaultClear clear;
    const std::string path =
        writeTempTrace("ft_transient_noretry.dtrc", haltingTraceFile());
    faultinject::arm(faultinject::Point::TraceIoFail, 1);

    runner::BatchConfig cfg;
    cfg.workers = 1;      // retries defaults to 0
    const auto results = runner::BatchRunner(cfg).run(
        {makeJob(workloads::traceUri(path), smallOptions(50'000))});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].runError.cls,
              sim::RunErrorClass::IoTransient);
    EXPECT_TRUE(results[0].runError.transient());
    EXPECT_EQ(results[0].attempts, 1u);
}

TEST(Retry, RetriedSuccessIsBitIdenticalToFirstTrySuccess)
{
    FaultClear clear;
    const std::string path =
        writeTempTrace("ft_retry_identity.dtrc", haltingTraceFile());
    const auto job = makeJob(workloads::traceUri(path),
                             smallOptions(50'000));

    runner::BatchConfig plain;
    plain.workers = 1;
    const auto first = runner::BatchRunner(plain).run({job});

    faultinject::arm(faultinject::Point::TraceIoFail, 1);
    runner::BatchConfig retrying;
    retrying.workers = 1;
    retrying.retries = 2;
    retrying.backoffBaseMs = 1;
    const auto retried = runner::BatchRunner(retrying).run({job});

    ASSERT_EQ(retried.size(), 1u);
    EXPECT_EQ(retried[0].attempts, 2u);
    expectIdenticalSlots(retried, first);
}

// ---------------------------------------------------------------------
// Watchdog: a stalled job is cancelled; the rest of the batch lives.
// ---------------------------------------------------------------------

TEST(Watchdog, StalledJobTimesOutWhileOthersComplete)
{
    FaultClear clear;
    // Exactly one job consumes the stall injection (atomic count 1)
    // and livelocks; which one is scheduling-dependent, so assert on
    // the count, not the index.
    faultinject::arm(faultinject::Point::GuestStall, 1);

    constexpr uint64_t kTimeoutMs = 600;
    runner::BatchConfig cfg;
    cfg.workers = 4;
    cfg.timeoutMs = kTimeoutMs;
    std::vector<runner::BatchJob> jobs;
    for (int i = 0; i < 4; ++i) {
        jobs.push_back(makeJob(workloads::syntheticUri("464.h264ref"),
                               smallOptions(60'000)));
    }
    const auto results = runner::BatchRunner(cfg).run(jobs);
    ASSERT_EQ(results.size(), 4u);

    unsigned timeouts = 0;
    for (const runner::JobResult &r : results) {
        if (r.runError.cls == sim::RunErrorClass::Timeout) {
            ++timeouts;
            EXPECT_FALSE(r.ok);
            EXPECT_TRUE(r.runError.transient());
            EXPECT_TRUE(r.snapshot.result.cancelled);
            // Partial metrics: the work done before cancellation is
            // exactly accounted.
            EXPECT_GT(r.snapshot.result.guestRetired, 0u);
            EXPECT_GT(r.metrics.cycles, 0u);
            // The acceptance bound: cancellation is cooperative but
            // must land within 2x the configured deadline.
            EXPECT_LT(r.durationMs, 2 * kTimeoutMs);
        } else {
            EXPECT_TRUE(r.ok) << r.error;
            EXPECT_FALSE(r.snapshot.result.cancelled);
        }
    }
    EXPECT_EQ(timeouts, 1u);
}

TEST(Watchdog, NormalJobsUnaffectedByEnabledWatchdog)
{
    // Same batch with and without a (generous) watchdog: the numbers
    // must be bit-identical — the deadline is wiring, not physics.
    const auto job = makeJob(workloads::syntheticUri("436.cactusADM"),
                             smallOptions(60'000));
    runner::BatchConfig plain;
    plain.workers = 1;
    runner::BatchConfig watched;
    watched.workers = 1;
    watched.timeoutMs = 60'000;
    const auto a = runner::BatchRunner(plain).run({job});
    const auto b = runner::BatchRunner(watched).run({job});
    expectIdenticalSlots(b, a);
}

// ---------------------------------------------------------------------
// Static mode list: materialized, sorted, on every way a run stops.
// ---------------------------------------------------------------------

namespace {

/** Static instructions per terminal mode: {IM, BBM, SBM}. */
std::array<uint64_t, 3>
staticTotals(const tol::TolStats &ts)
{
    std::array<uint64_t, 3> t{};
    ts.staticCounts(t[0], t[1], t[2]);
    return t;
}

/**
 * Check @p ts's static list is strictly sorted by EIP, holds only
 * real modes, and that staticCounts equals a recount through an
 * EIP -> highest-mode map, the representation the list replaced.
 */
void
expectWellFormedStaticList(const tol::TolStats &ts)
{
    std::unordered_map<uint32_t, uint8_t> modes;
    for (size_t i = 0; i < ts.staticMode.size(); ++i) {
        const auto [eip, mode] = ts.staticMode[i];
        if (i > 0) {
            EXPECT_LT(ts.staticMode[i - 1].first, eip) << "entry " << i;
        }
        EXPECT_LE(mode, static_cast<uint8_t>(tol::Mode::SBM));
        modes[eip] = std::max(modes[eip], mode);
    }
    std::array<uint64_t, 3> recount{};
    for (const auto &[eip, mode] : modes)
        ++recount[std::min<size_t>(mode, 2)];
    EXPECT_EQ(staticTotals(ts), recount);
}

} // namespace

TEST(StaticModes, ListIsSortedOnEveryExitPath)
{
    FaultClear clear;
    runner::BatchConfig cfg;
    cfg.workers = 1;

    // Totals pinned from the EIP -> mode map this list replaced.
    const std::string path =
        writeTempTrace("ft_static_halting.dtrc", haltingTraceFile());
    const auto halted = runner::BatchRunner(cfg).run(
        {makeJob(workloads::traceUri(path), smallOptions(50'000))});
    ASSERT_TRUE(halted[0].ok) << halted[0].error;
    EXPECT_TRUE(halted[0].snapshot.result.halted);
    expectWellFormedStaticList(halted[0].snapshot.tolStats);
    EXPECT_EQ(staticTotals(halted[0].snapshot.tolStats),
              (std::array<uint64_t, 3>{2, 0, 3}));

    const std::string mcf = workloads::syntheticUri("429.mcf");
    const auto budget =
        runner::BatchRunner(cfg).run({makeJob(mcf, smallOptions(60'000))});
    ASSERT_TRUE(budget[0].ok) << budget[0].error;
    EXPECT_FALSE(budget[0].snapshot.result.halted);
    const tol::TolStats &full = budget[0].snapshot.tolStats;
    expectWellFormedStaticList(full);
    EXPECT_EQ(staticTotals(full), (std::array<uint64_t, 3>{1150, 45, 11}));

    // A stalled run re-arms its budget at every dispatch, so it runs
    // the budget run's instruction stream and then keeps going until
    // the watchdog cancels it: its list must cover the budget run's,
    // entry by entry, at the same or a higher mode. The deadline
    // leaves a slow (sanitizer) build time to get past 60k.
    faultinject::arm(faultinject::Point::GuestStall, 1);
    cfg.timeoutMs = 1000;
    const auto cancelled =
        runner::BatchRunner(cfg).run({makeJob(mcf, smallOptions(60'000))});
    ASSERT_EQ(cancelled[0].runError.cls, sim::RunErrorClass::Timeout);
    EXPECT_TRUE(cancelled[0].snapshot.result.cancelled);
    EXPECT_GT(cancelled[0].snapshot.result.guestRetired, 60'000u);
    const tol::TolStats &partial = cancelled[0].snapshot.tolStats;
    expectWellFormedStaticList(partial);
    for (const auto &[eip, mode] : full.staticMode) {
        const auto it = std::lower_bound(
            partial.staticMode.begin(), partial.staticMode.end(),
            std::pair<uint32_t, uint8_t>{eip, 0});
        ASSERT_TRUE(it != partial.staticMode.end() && it->first == eip)
            << strprintf("eip 0x%08x missing", eip);
        EXPECT_GE(it->second, mode);
    }
}

// ---------------------------------------------------------------------
// Experiment identity: the fingerprint that keys resumed results.
// ---------------------------------------------------------------------

TEST(Journal, FingerprintKeysTheEffectiveExperiment)
{
    const sim::MetricsOptions base = smallOptions(50'000);
    const uint64_t fp = runner::configFingerprint(base, "w", false);
    EXPECT_EQ(runner::configFingerprint(base, "w", false), fp);

    sim::MetricsOptions budget = base;
    budget.guestBudget = 50'001;
    EXPECT_NE(runner::configFingerprint(budget, "w", false), fp);

    sim::MetricsOptions geometry = base;
    geometry.timingConfig.l1d.sizeBytes *= 2;
    EXPECT_NE(runner::configFingerprint(geometry, "w", false), fp);

    EXPECT_NE(runner::configFingerprint(base, "w2", false), fp);
    EXPECT_NE(runner::configFingerprint(base, "w", true), fp);

    // The cancel token is runtime wiring, not experiment identity.
    common::CancelToken token;
    sim::MetricsOptions wired = base;
    wired.cancel = &token;
    EXPECT_EQ(runner::configFingerprint(wired, "w", false), fp);
}

// ---------------------------------------------------------------------
// Kill-and-resume e2e: the process really dies, the campaign lives.
// ---------------------------------------------------------------------

TEST(KillAndResume, SigkilledCampaignResumesBitIdentically)
{
    // A fresh cache directory: entries a previous run of the suite
    // left behind would turn the child's work into hits.
    const std::string dir = tempPath("ft_kill_resume_cache");
    ::mkdir(dir.c_str(), 0777);
    for (const std::string &name : listDir(dir))
        ::unlink((dir + "/" + name).c_str());

    // Re-exec this binary in campaign-child mode with cache-kill armed
    // through the environment: the 8th published cache entry raises
    // SIGKILL, so the child dies for real, mid-campaign, with workers
    // in flight. The link must be resolved HERE: inside system()'s
    // shell, /proc/self/exe names the shell, not this binary.
    char self[4096];
    const ssize_t len =
        ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    ASSERT_GT(len, 0);
    self[len] = '\0';
    const std::string cmd =
        "DARCO_FT_CAMPAIGN_CHILD='" + dir +
        "' DARCO_FAULTINJECT=cache-kill:8 "
        "exec '" + std::string(self) + "' >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    ASSERT_NE(rc, -1);
    // With `exec` the shell IS the child and dies by signal; some
    // shells fork anyway and report 128+SIGKILL as an exit status.
    const bool killed =
        (WIFSIGNALED(rc) && WTERMSIG(rc) == SIGKILL) ||
        (WIFEXITED(rc) && WEXITSTATUS(rc) == 128 + SIGKILL);
    ASSERT_TRUE(killed) << "child status " << rc;

    // The 8 entries published before the kill survive. Stores are not
    // serialized, so the child's second worker may have published one
    // more before the signal landed; a store still in flight leaves
    // only a .tmp.* file, which is never read as an entry.
    size_t published = 0, in_flight = 0;
    for (const std::string &name : listDir(dir)) {
        if (name.ends_with(".dcache"))
            ++published;
        else if (name.find(".tmp.") != std::string::npos)
            ++in_flight;
    }
    ASSERT_GE(published, 8u);
    ASSERT_LE(published, 9u);

    // Resume the identical campaign over the same cache: exactly the
    // published jobs hit, the rest simulate, and every slot is
    // bit-identical to an uninterrupted serial execution.
    const std::vector<runner::BatchJob> jobs = campaignJobs();
    runner::BatchConfig resume;
    resume.workers = 3;
    resume.cacheDir = dir;
    const auto resumed = runner::BatchRunner(resume).run(jobs);
    size_t hits = 0, misses = 0;
    for (const runner::JobResult &r : resumed) {
        EXPECT_TRUE(r.ok) << r.uri << ": " << r.error;
        hits += r.cacheStatus == runner::CacheStatus::Hit;
        misses += r.cacheStatus == runner::CacheStatus::Miss;
    }
    EXPECT_EQ(hits, published) << in_flight << " temp file(s) left";
    EXPECT_EQ(misses, jobs.size() - published);

    runner::BatchConfig serial;
    serial.workers = 1;
    const auto reference = runner::BatchRunner(serial).run(jobs);
    expectIdenticalSlots(resumed, reference);
}

/** Campaign-child body (DARCO_FT_CAMPAIGN_CHILD): run the standard
 *  campaign against the given cache directory and report plain
 *  pass/fail — the parent expects this process to die by SIGKILL
 *  instead. */
int
runCampaignChild(const char *cache_dir)
{
    runner::BatchConfig cfg;
    cfg.workers = 2;
    cfg.cacheDir = cache_dir;
    const auto results = runner::BatchRunner(cfg).run(campaignJobs());
    for (const runner::JobResult &r : results) {
        if (!r.ok)
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Environment-driven arming first: child processes (and manual
    // fault drills) configure injection before any code can run.
    darco::faultinject::armFromEnv();
    if (const char *dir = std::getenv("DARCO_FT_CAMPAIGN_CHILD"))
        return runCampaignChild(dir);
    testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
