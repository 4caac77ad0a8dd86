/**
 * @file
 * Deterministic multi-worker batch execution of independent
 * simulations, with fault-tolerant campaign semantics.
 *
 * The paper's characterization campaign is batch-shaped: every
 * figure is a sweep of 48 benchmarks x configurations, and each
 * (workload, config) cell is an independent, deterministic
 * simulation. `BatchRunner` executes such a batch on a fixed-size
 * worker pool, one `sim::System` per job, one job per thread at a
 * time — the "one System per thread, no sharing" contract of
 * docs/concurrency.md.
 *
 * A batch holds pure jobs only: each job's product is its snapshot,
 * so a cache hit, a dedup copy or a fused slot can stand in for its
 * run. A run with a side effect — a trace capture — is a single run
 * (sim::snapshotRun, `run_benchmark --capture`), and run() rejects
 * a batch that holds one.
 *
 * Determinism: each job's metrics depend only on its (workload,
 * options) pair, never on scheduling, and results land in slots
 * ordered by job index — so a batch's output is bit-identical
 * whether it ran on 1 worker or 64, in whatever interleaving. The
 * equivalence is enforced by tests/test_batch_runner.cc, which A/Bs
 * parallel against serial sweeps with sim::diffRunSnapshots.
 *
 * Fault tolerance (docs/robustness.md): a job that fails reports a
 * classified sim::RunError in its slot; it never aborts the batch.
 * fatal() inside a job is converted via the ScopedFatalThrow seam
 * and classified by its ErrKind; panic() still aborts the process,
 * because an invariant violation poisons every number the process
 * could still report. On top of classification the runner offers
 *   - a per-job wall-clock watchdog (timeoutMs) that cancels a stuck
 *     run cooperatively and reports Timeout with partial metrics,
 *   - bounded-exponential-backoff re-runs of transiently failed jobs
 *     (retries/backoffBaseMs) — each attempt from scratch, so a
 *     retried success is bit-identical to a first-try success,
 *   - crash resume through the result cache (cacheDir, below): a
 *     campaign re-run over the same cache directory hits every job
 *     whose entry was published before the crash.
 *
 * Scale-out (docs/campaigns.md): on top of the fault tolerance the
 * runner offers
 *   - a content-addressed result cache (cacheDir): before simulating,
 *     each job is looked up by (workload URI, config fingerprint,
 *     engine version) and a valid entry satisfies the job without
 *     running it — a warm re-run of an identical campaign performs
 *     zero simulations. Opt-in verify-hits re-simulates every hit and hard-fails the
 *     job unless the cached snapshot is bit-identical to the fresh
 *     run,
 *   - deterministic sharding (shard): shard K of N executes exactly
 *     the jobs whose workload ordinal w (first-appearance order of
 *     the workload strings in the batch) satisfies w % N == K, so N
 *     independent processes sharing a cache directory cover a
 *     campaign exactly once and a fusion group (below) never spans
 *     shards. Out-of-shard slots are marked skipped and never
 *     executed,
 *   - intra-batch fusion: jobs whose effective configs differ at
 *     most in their isolation pipe sets (Figures 8/10/11 beside the
 *     base figures) share one functional run. The run attaches the
 *     union of their pipe sets; each slot takes the run's snapshot
 *     projected to its own set, with its own pin checks re-applied,
 *     so the batch output stays bit-identical to a serial run of
 *     each job alone. A failed shared run falls back to solo runs.
 *     A group is cached as the one run it performs: its only lookup
 *     is the union run's config fingerprint, a hit covers every
 *     member with no simulation, and a miss stores the union
 *     snapshot there — plus the base projection under the base
 *     jobs' own key, the entry their solo runs store.
 */

#ifndef DARCO_RUNNER_BATCH_RUNNER_HH
#define DARCO_RUNNER_BATCH_RUNNER_HH

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/metrics.hh"
#include "sim/run_error.hh"
#include "trace/trace.hh"

namespace darco::runner {

/** One independent simulation in a batch. */
struct BatchJob
{
    /** Workload URI (any registered scheme) or bare synthetic name. */
    std::string workload;
    /** Per-job run configuration; a trace workload's capture recipe
     *  is re-applied on top (sim::applyCaptureRecipe), exactly as
     *  sim::snapshotRun does. */
    sim::MetricsOptions options;
    /**
     * Optional externally pinned determinism expectations: when set,
     * the finished run must reproduce these fields exactly or the
     * job fails (structured, batch continues). Pins a trace workload
     * carries in-file are checked independently of this field.
     */
    std::optional<trace::TracePins> expectedPins;
    /** Verify in-file capture pins of trace workloads (default on). */
    bool checkCapturedPins = true;
    /**
     * Require the guest to reach HALT within the budget: a run that
     * merely exhausts the budget fails with BudgetExhausted
     * (permanent — a bigger budget is a different experiment, not a
     * retry). Off by default: budget-bounded sweeps are the normal
     * campaign shape.
     */
    bool requireHalt = false;
};

/** How the result cache participated in one job. */
enum class CacheStatus : uint8_t
{
    /** No cache configured, or slot not executed (skipped), or a
     *  fusion-group member other than its leader: the group's one
     *  lookup is reported on the leader's slot. */
    None,
    /** Satisfied from the cache without simulating. */
    Hit,
    /** Looked up, absent or invalid; simulated and stored. */
    Miss,
    /** Never produced: the runner rejects capture jobs, the only
     *  jobs that bypassed the cache. Kept only because
     *  benchmark/darco_bench.cc still counts it (runner.cache_bypass,
     *  always 0); it goes with the next benchmark change. */
    Bypass,
};

/** Outcome slot for one job, at the job's index in the batch. */
struct JobResult
{
    bool ok = false;
    /** Failure description when !ok (runError.describe(), or the raw
     *  pin-mismatch/fatal text); empty on success. */
    std::string error;
    /** Classified failure (cls == None on success). */
    sim::RunError runError;

    /** Resolved workload identity (empty if resolution failed). */
    std::string name;
    std::string suite;
    std::string uri;

    /** Raw result + full stats snapshots (the bit-identity currency:
     *  compare with timing::diffStats / tol::diffTolStats). A
     *  Timeout failure still carries the partial-run snapshot. */
    sim::RunSnapshot snapshot;
    /** Derived figure metrics: sim::collectMetrics of the
     *  snapshot. */
    sim::BenchMetrics metrics;

    /**
     * Execution attempts made (1 = no retry). 0 = satisfied without
     * simulating a run of its own: a cache hit, a dedup copy, or a
     * fused slot (a verify-hits audit counts its re-simulation).
     * Skipped slots also stay 0. A shared run's attempts, backoff and
     * duration are reported on the slot that led it.
     */
    unsigned attempts = 0;
    /** Total backoff slept before the final attempt. */
    uint64_t backoffMsApplied = 0;
    /** Wall-clock spent executing this job (all attempts; reporting
     *  only — never feeds any measured quantity). */
    uint64_t durationMs = 0;
    /** configFingerprint of the effective options (0 if the job
     *  failed before resolution). */
    uint64_t fingerprint = 0;

    /** Result cache participation (docs/campaigns.md). A fusion
     *  group performs one lookup, reported as Hit or Miss on its
     *  leader (lowest index); its other members report None. */
    CacheStatus cacheStatus = CacheStatus::None;
    /** Cache hit that was re-simulated by verify-hits mode and
     *  proven bit-identical. */
    bool verifiedHit = false;
    /** A copy of an earlier slot with the same exact config
     *  fingerprint (attempts == 0; per-slot pins were still
     *  checked). */
    bool deduped = false;
    /** Covered by the run or cache hit of its fusion group's
     *  leader, which has a different isolation pipe set, projected
     *  to this slot's set (attempts == 0; per-slot pins were still
     *  checked). Never also deduped. */
    bool fused = false;
    /** Slot not in this runner's shard: never executed, every other
     *  field is default. Consumers must not treat it as a failure. */
    bool skipped = false;
};

/**
 * Deterministic bounded exponential backoff: base << attempt,
 * saturating at base * 64. No randomized jitter — jobs in one
 * campaign retry independent inputs, there is no shared resource to
 * avoid stampeding, and a deterministic schedule keeps campaign
 * wall-clock reproducible enough to reason about.
 */
inline uint64_t
backoffDelayMs(uint64_t base_ms, unsigned attempt)
{
    return base_ms << std::min(attempt, 6u);
}

/**
 * Deterministic campaign partition by workload: number the distinct
 * workload strings of a batch 0, 1, 2, ... in order of first
 * appearance; this runner executes exactly the jobs whose workload's
 * number w satisfies w % count == index. Every job of one workload
 * lands in one shard, so a sharded campaign writes exactly the cache
 * entries an unsharded one does. The partition is a pure function of
 * the job order, so N runners given the same batch cover it exactly
 * once with no coordination beyond agreeing on (index, count). In a
 * batch whose workloads are all distinct, w is the job index.
 */
struct ShardSpec
{
    unsigned index = 0;
    unsigned count = 1;
};

struct BatchConfig
{
    /** Worker threads; 0 = std::thread::hardware_concurrency().
     *  Effective pool size is capped at the job count; 1 executes
     *  inline on the calling thread. */
    unsigned workers = 0;
    /**
     * Invoked after each job completes, serialized under an internal
     * mutex (safe to print from). Jobs COMPLETE in scheduling order,
     * which is nondeterministic for workers > 1 — only the returned
     * slot order is deterministic.
     */
    std::function<void(size_t index, const JobResult &result)> onJobDone;

    /**
     * Per-job wall-clock deadline in milliseconds; 0 disables the
     * watchdog. A job past its deadline is cancelled cooperatively
     * at the next record-batch boundary and fails with Timeout,
     * partial metrics attached (common/cancel.hh). Overrides any
     * options.cancel the job supplied.
     */
    uint64_t timeoutMs = 0;
    /** Extra from-scratch attempts for jobs whose RunError is
     *  transient (Timeout, IoTransient); permanent failures are
     *  never retried. 0 disables retry. */
    unsigned retries = 0;
    /** First retry backoff; doubles per attempt (backoffDelayMs). */
    uint64_t backoffBaseMs = 100;
    /** Shard of the batch this runner executes (default: all). */
    ShardSpec shard;
    /**
     * Result cache directory; "" disables the cache. When set, jobs
     * are looked up by (workload URI, config fingerprint, engine
     * version) before simulating, and successful simulations are
     * published back via atomic rename (runner/result_cache.hh).
     * Re-running a crashed campaign over the same directory is its
     * resume.
     */
    std::string cacheDir;
    /**
     * Re-simulate every cache hit and compare it bit-for-bit against
     * the cached snapshot (off = trust the cache). A divergent hit
     * fails the job (Internal, never retried): either the cache or
     * the engine broke determinism, and both poison the campaign.
     */
    bool verifyHits = false;
};

class BatchRunner
{
  public:
    explicit BatchRunner(BatchConfig config = {});

    /** Number of workers a batch of @p jobCount jobs would use. */
    unsigned effectiveWorkers(size_t jobCount) const;

    /**
     * Execute every job and return results indexed like @p jobs.
     * Jobs are dispatched FIFO (no stealing): a shared atomic cursor
     * hands each worker the lowest unclaimed index. fatal() before
     * any work if a job, in or out of shard, captures a trace (see
     * the file comment); individual job failures are reported in
     * their slots.
     */
    std::vector<JobResult> run(const std::vector<BatchJob> &jobs) const;

  private:
    BatchConfig cfg;
};

} // namespace darco::runner

#endif // DARCO_RUNNER_BATCH_RUNNER_HH
