#include "runner/batch_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/fields.hh"
#include "common/logging.hh"
#include "runner/result_cache.hh"
#include "runner/watchdog.hh"
#include "sim/system.hh"
#include "workloads/source.hh"

namespace darco::runner {

namespace {

/** Append a pin-mismatch line for every pin that diverged. */
void
diffPins(const char *label, const trace::TracePins &pins,
         const sim::RunSnapshot &snap, std::string &error)
{
    const trace::TracePins got = sim::capturePins(
        snap.result, snap.stats, snap.timingCore, snap.tolStats);
    fields::forEachMismatch(got, pins, [&](const std::string &key,
                                           const std::string &value,
                                           const std::string &pinned) {
        // An empty timing_core pins nothing. When set it is a
        // determinism field too: a replay that advanced time on a
        // different core than the capture is not the same
        // experiment, even if the counters happen to agree.
        if (pinned.empty())
            return;
        error += strprintf("%s pin mismatch: %s %s != pinned %s\n",
                           label, key.c_str(), value.c_str(),
                           pinned.c_str());
    });
}

/**
 * Every pin mismatch of @p snap against @p job's own expectations:
 * the in-file pins of its trace workload (if it checks them) and its
 * explicit expectedPins. Empty = the pins hold. No pin reads an
 * isolation pipe, so a union snapshot and its projections agree.
 */
std::string
pinErrors(const BatchJob &job, const workloads::Workload &workload,
          const sim::RunSnapshot &snap)
{
    std::string error;
    if (job.checkCapturedPins && workload.capturedPins)
        diffPins("capture", *workload.capturedPins, snap, error);
    if (job.expectedPins)
        diffPins("expected", *job.expectedPins, snap, error);
    return error;
}

/**
 * Identify @p uri without building a synthetic program, or nullopt if
 * identification fails (unknown scheme, unreadable trace): the
 * execute path then reports the failure per job with its proper
 * classification.
 */
std::optional<workloads::Workload>
tryIdentify(const std::string &uri)
{
    ScopedFatalThrow fatal_throws;
    try {
        return workloads::identifyWorkload(uri);
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

/** Per-batch execution services shared by every worker. */
struct ExecContext
{
    Watchdog *watchdog = nullptr;
    uint64_t timeoutMs = 0;
};

/**
 * A job's effective options, the part of execution that defines the
 * experiment without running it: @p job's options applied to its
 * @p workload (its identity suffices), with a trace workload's
 * capture recipe on top, as sim::snapshotRun applies it. Fingerprinted
 * with the job's workload string and requireHalt, they are the one
 * definition of "the same job": the execute path, the cache lookup
 * and the fusion pre-pass all derive it here.
 */
sim::MetricsOptions
effectiveOptions(const BatchJob &job, const workloads::Workload &workload)
{
    sim::MetricsOptions options = job.options;
    sim::applyCaptureRecipe(options, workload);
    return options;
}

/**
 * The distinct effective configs of one workload's jobs, each
 * fingerprinted at most once and only when asked: a campaign repeats
 * each config across the jobs of a workload, and its functional
 * config (pipes cleared) is often one of them. A repeat is found by
 * exact field-list equality (fields::equal), under which two configs
 * always have the same fingerprint dump, so a shared fingerprint is
 * the one each would have computed.
 */
class DistinctConfigs
{
  public:
    explicit DistinctConfigs(const std::string &workload)
        : workload(workload)
    {
    }

    /** The id of (@p options, @p requireHalt), added if new. */
    size_t
    find(const sim::MetricsOptions &options, bool requireHalt)
    {
        for (size_t id = 0; id < configs.size(); ++id) {
            if (configs[id].requireHalt == requireHalt &&
                fields::equal(configs[id].options, options)) {
                return id;
            }
        }
        configs.push_back({options, requireHalt, std::nullopt});
        return configs.size() - 1;
    }

    /** configFingerprint of config @p id. */
    uint64_t
    fingerprint(size_t id)
    {
        Config &c = configs[id];
        if (!c.fingerprint) {
            c.fingerprint =
                configFingerprint(c.options, workload, c.requireHalt);
        }
        return *c.fingerprint;
    }

  private:
    struct Config
    {
        sim::MetricsOptions options;
        bool requireHalt;
        std::optional<uint64_t> fingerprint;
    };

    const std::string &workload;
    std::vector<Config> configs;
};

/**
 * Run one attempt of one job start to finish on the calling thread.
 * Everything a job touches is job-local (its own System, memories,
 * pipelines, cancel token); the only shared services are the
 * workload registry, the logging switches, and the watchdog — all
 * thread-safe (docs/concurrency.md).
 */
JobResult
executeAttempt(const BatchJob &job, const ExecContext &ctx)
{
    JobResult r;
    // Identity up front, so a job that fails before (or during)
    // resolution still reports which workload it was.
    r.uri = job.workload;
    // fatal() anywhere below (unknown scheme, unreadable trace, bad
    // config) becomes a FatalError we classify into the taxonomy.
    ScopedFatalThrow fatal_throws;
    // Outlives the WatchdogArm scope below, as Watchdog requires.
    common::CancelToken token;
    try {
        const workloads::Workload workload =
            workloads::resolveWorkload(job.workload);
        sim::MetricsOptions options = effectiveOptions(job, workload);
        r.name = workload.name;
        r.suite = workload.suite;
        r.uri = workload.uri;
        // Fingerprint before wiring the cancel token: the token is
        // runtime plumbing, not part of the experiment definition.
        r.fingerprint =
            configFingerprint(options, job.workload, job.requireHalt);
        if (ctx.timeoutMs)
            options.cancel = &token;
        const sim::SimConfig cfg = sim::configFromOptions(options);

        WatchdogArm deadline(ctx.watchdog, &token, ctx.timeoutMs);
        sim::System sys(cfg);
        sys.load(workload);
        const sim::SystemResult res = sys.run();
        deadline.fired();  // disarm before any post-run work

        r.snapshot = sim::snapshotFromSystem(sys, res);

        if (res.cancelled) {
            r.runError = {sim::RunErrorClass::Timeout, r.uri,
                          strprintf("wall-clock deadline of %llu ms "
                                    "exceeded; cancelled after %llu "
                                    "guest instructions (partial "
                                    "metrics retained)",
                                    static_cast<unsigned long long>(
                                        ctx.timeoutMs),
                                    static_cast<unsigned long long>(
                                        res.guestRetired))};
            r.error = r.runError.describe();
            return r;
        }
        if (job.requireHalt && !res.halted) {
            r.runError = {sim::RunErrorClass::BudgetExhausted, r.uri,
                          strprintf("guest did not reach HALT within "
                                    "the %llu-instruction budget",
                                    static_cast<unsigned long long>(
                                        cfg.guestBudget))};
            r.error = r.runError.describe();
            return r;
        }

        r.error = pinErrors(job, workload, r.snapshot);
        if (!r.error.empty()) {
            // A determinism violation on intact inputs is an engine
            // defect: permanent, never retried.
            r.runError = {sim::RunErrorClass::Internal, r.uri,
                          r.error};
        }
        r.ok = r.error.empty();
    } catch (const FatalError &e) {
        r.ok = false;
        r.error = e.what();
        r.runError = sim::runErrorFromFatal(e, r.uri);
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
        r.runError = {sim::RunErrorClass::Internal, r.uri, e.what()};
    }
    return r;
}

/** executeAttempt plus the transient-failure retry loop. */
JobResult
executeJob(const BatchJob &job, const ExecContext &ctx,
           const BatchConfig &cfg)
{
    const auto start = std::chrono::steady_clock::now();
    JobResult r;
    uint64_t backoff_total = 0;
    for (unsigned attempt = 0;; ++attempt) {
        // From scratch every time: a retried attempt builds a fresh
        // System from the same (workload, options) pair, so its
        // numbers are bit-identical to a first-try success — retry
        // changes whether a result exists, never what it measures.
        r = executeAttempt(job, ctx);
        r.attempts = attempt + 1;
        if (r.ok || !r.runError.transient() || attempt >= cfg.retries)
            break;
        // The schedule is deterministic (attempt-indexed, no clock
        // reads, no jitter); only the sleeps themselves touch time.
        const uint64_t delay =
            backoffDelayMs(cfg.backoffBaseMs, attempt);
        backoff_total += delay;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delay));
    }
    r.backoffMsApplied = backoff_total;
    r.durationMs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    return r;
}

/**
 * Build @p job's result from a stored @p snapshot without simulating
 * (a cache hit, or the projection of a fusion group's run). The
 * engine is deterministic, so the snapshot IS what a fresh run of
 * this job would produce. The job's OWN pin expectations are
 * re-checked against the current workload resolution — a pin
 * mismatch fails the result exactly as a fresh run would have.
 */
JobResult
resultFromSnapshot(const BatchJob &job,
                   const workloads::Workload &workload,
                   uint64_t fingerprint, sim::RunSnapshot snapshot)
{
    JobResult r;
    r.name = workload.name;
    r.suite = workload.suite;
    r.uri = workload.uri;
    r.snapshot = std::move(snapshot);
    r.fingerprint = fingerprint;
    r.error = pinErrors(job, workload, r.snapshot);
    if (!r.error.empty()) {
        r.runError = {sim::RunErrorClass::Internal, r.uri, r.error};
        return r;
    }
    r.ok = true;
    return r;
}

/**
 * Try to satisfy @p job from the result cache. @p workload is its
 * identified workload and @p fingerprint its effective config's. The
 * entry must satisfy the pins of every job in @p pinned: @p job
 * itself, or every member of the fusion group whose run @p job is. A
 * valid, pin-clean hit returns a complete result without simulating;
 * verify-hits mode may additionally re-simulate @p job and either
 * bless the hit or fail it. nullopt = miss (absent, damaged, identity
 * mismatch or stale pins) — the caller simulates.
 */
std::optional<JobResult>
tryCacheHit(const BatchJob &job, const workloads::Workload &workload,
            uint64_t fingerprint,
            const std::vector<const BatchJob *> &pinned,
            ResultCache &cache, const ExecContext &ctx,
            const BatchConfig &cfg)
{
    std::optional<sim::RunSnapshot> snap = cache.lookup(
        {workload.uri, fingerprint, std::string(kEngineVersion)});
    if (!snap)
        return std::nullopt;

    // A trace whose in-file pins changed invalidates the cached
    // result: re-simulate rather than report a stale one.
    std::string stale;
    for (size_t i = 0; i < pinned.size() && stale.empty(); ++i)
        stale = pinErrors(*pinned[i], workload, *snap);
    if (!stale.empty()) {
        warn("result cache: %s: cached result no longer matches "
             "pins; re-simulating:\n%s",
             job.workload.c_str(), stale.c_str());
        return std::nullopt;
    }
    JobResult r = resultFromSnapshot(job, workload, fingerprint,
                                     std::move(*snap));
    r.cacheStatus = CacheStatus::Hit;

    if (cfg.verifyHits) {
        const JobResult fresh = executeJob(job, ctx, cfg);
        r.attempts = fresh.attempts;
        r.durationMs = fresh.durationMs;
        std::string diff;
        if (!fresh.ok)
            diff = "fresh run failed: " + fresh.error;
        else
            diff = sim::diffRunSnapshots(fresh.snapshot, r.snapshot);
        if (!diff.empty()) {
            // Either the cache or the engine broke determinism;
            // both poison the campaign. Hard-fail the job —
            // permanent, never retried.
            r.ok = false;
            r.error = strprintf(
                "verify-hits: cached snapshot for '%s' diverges "
                "from fresh simulation:\n%s",
                job.workload.c_str(), diff.c_str());
            r.runError = {sim::RunErrorClass::Internal, r.uri, r.error};
            return r;
        }
        r.verifiedHit = true;
    }
    return r;
}

/**
 * One fusion group: jobs of one shard whose effective configs differ
 * at most in their isolation pipe sets, so they share one functional
 * run attaching the union of their pipe sets (the pipes are pure
 * observers of that pass; sim::projectPipes). The group is cached as
 * that one run: its only key is the run's config fingerprint. The
 * lowest-index member leads: it looks the key up and fixes the plan.
 * On a hit every member takes the entry projected to its own pipe
 * set, and nobody simulates; on a miss the leader performs the run
 * and every member takes its projection.
 *
 * Every wait is on the leader, the lowest index of the group, which
 * FIFO dispatch claimed earlier, so waiting can never deadlock the
 * pool.
 */
struct FusionGroup
{
    struct Member
    {
        size_t index = 0;
        /** configFingerprint of the member's own effective config. */
        uint64_t fingerprint = 0;
        /** The member's own isolation pipes (sim::pipeMask). */
        sim::PipeMask pipes = 0;
    };

    /** Identified once in the pre-pass; every member names the
     *  same workload string. */
    workloads::Workload workload;
    /** Ascending job index; members.front() leads the group. */
    std::vector<Member> members;
    /** The union of the members' pipe sets: what the run attaches. */
    sim::PipeMask pipes = 0;
    /** The group's one run: the leader's job with `pipes` attached
     *  and its pins stripped, as every member checks its own. */
    BatchJob job;
    /** configFingerprint of `job`'s effective config: the group's
     *  cache key. */
    uint64_t fingerprint = 0;
    /** Exact fingerprint of the members without isolation pipes,
     *  when `pipes` is not empty (else it is `fingerprint`): a miss
     *  also stores the run's base projection there, the entry a base
     *  job's solo run stores, so base-only lookups keep hitting. */
    std::optional<uint64_t> baseFingerprint;

    // The plan: written once by plan() under the mutex, read-only
    // once waitPlanned() returns.
    /** The leader's cache hit on the group key (unprojected). */
    std::optional<JobResult> hit;

    const Member &
    member(size_t index) const
    {
        return *std::find_if(
            members.begin(), members.end(),
            [index](const Member &m) { return m.index == index; });
    }

    /** Whether an earlier member has @p m's exact fingerprint: the
     *  slot is then a dedup copy of that member's result. */
    bool
    duplicatesEarlier(const Member &m) const
    {
        return std::any_of(members.begin(), members.end(),
                           [&m](const Member &o) {
                               return o.index < m.index &&
                                      o.fingerprint == m.fingerprint;
                           });
    }

    /** Fix the plan from the leader's lookup: a hit covers every
     *  member, a miss (or no lookup) makes one run cover them all. */
    void
    plan(std::optional<JobResult> cacheHit)
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            hit = std::move(cacheHit);
            if (!hit)
                runReaders = members.size();
            planned = true;
        }
        cv.notify_all();
    }

    void
    waitPlanned()
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return planned; });
    }

    void
    publishRun(JobResult result)
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            run = std::make_shared<const JobResult>(std::move(result));
        }
        cv.notify_all();
    }

    /**
     * Wait for the run and take a reference to its result. The group
     * drops its own reference once every member has taken one, so a
     * finished group does not keep its union snapshot alive until the
     * batch ends.
     */
    std::shared_ptr<const JobResult>
    takeRun()
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return run != nullptr; });
        std::shared_ptr<const JobResult> out = run;
        if (--runReaders == 0)
            run.reset();
        return out;
    }

  private:
    std::mutex mu;
    std::condition_variable cv;
    bool planned = false;
    /** Members yet to take the run (counted by plan()). */
    size_t runReaders = 0;
    std::shared_ptr<const JobResult> run;
};

} // namespace

BatchRunner::BatchRunner(BatchConfig config) : cfg(std::move(config)) {}

unsigned
BatchRunner::effectiveWorkers(size_t jobCount) const
{
    unsigned workers = cfg.workers;
    if (workers == 0)
        workers = std::thread::hardware_concurrency();
    if (workers == 0)
        workers = 1;
    if (jobCount < workers)
        workers = static_cast<unsigned>(jobCount);
    return workers;
}

std::vector<JobResult>
BatchRunner::run(const std::vector<BatchJob> &jobs) const
{
    fatal_if(cfg.shard.count == 0,
             "batch runner: shard count must be >= 1");
    fatal_if(cfg.shard.index >= cfg.shard.count,
             "batch runner: shard index %u out of range for %u "
             "shard(s)",
             cfg.shard.index, cfg.shard.count);

    // A batch holds pure, cacheable jobs only. A trace capture is a
    // run with a side effect (the file it writes), which a cache hit,
    // a dedup copy or a fused slot would silently skip: it is a
    // single run. Checked batch-wide, before any work starts.
    for (size_t i = 0; i < jobs.size(); ++i) {
        fatal_if(!jobs[i].options.captureTracePath.empty(),
                 "batch runner: job %zu (%s) captures a trace to '%s'; "
                 "a capture is a single run: use sim::snapshotRun or "
                 "run_benchmark --capture",
                 i, jobs[i].workload.c_str(),
                 jobs[i].options.captureTracePath.c_str());
    }

    std::vector<JobResult> results(jobs.size());

    // Stable workload partition (ShardSpec): slots outside this shard
    // are marked and never executed, cached or reported.
    if (cfg.shard.count > 1) {
        std::unordered_map<std::string, size_t> ordinal;
        for (size_t i = 0; i < jobs.size(); ++i) {
            const size_t w =
                ordinal.try_emplace(jobs[i].workload, ordinal.size())
                    .first->second;
            results[i].skipped = w % cfg.shard.count != cfg.shard.index;
        }
    }

    std::unique_ptr<ResultCache> cache;
    if (!cfg.cacheDir.empty())
        cache = std::make_unique<ResultCache>(cfg.cacheDir);

    // Fusion pre-pass: group the jobs of this shard by functional
    // config — the effective config with the isolation pipes
    // cleared. Only workload strings appearing more than once can
    // share a run (the fingerprint folds the workload string in), so
    // identification — which builds no synthetic program but reads
    // and checksums a whole trace — is paid only for repeated
    // workloads. A workload that fails to identify is left ungrouped:
    // the execute path reports the failure per job with its proper
    // classification. Grouping compares configs exactly; only the
    // members' and the groups' own configs are fingerprinted, each
    // distinct one once.
    std::vector<std::shared_ptr<FusionGroup>> group_of(jobs.size());
    {
        std::unordered_map<std::string, std::vector<size_t>>
            by_workload;
        for (size_t i = 0; i < jobs.size(); ++i) {
            if (!results[i].skipped)
                by_workload[jobs[i].workload].push_back(i);
        }
        for (auto &[wl, indices] : by_workload) {
            if (indices.size() < 2)
                continue;
            std::optional<workloads::Workload> workload = tryIdentify(wl);
            if (!workload)
                continue;
            // A trace's identity carries its program, read to check the
            // file. A group reads only the identity, capture recipe and
            // pins, and its run resolves again in executeAttempt, so the
            // program is freed here: a batch never holds one per group.
            workload->program = {};
            DistinctConfigs configs(wl);
            std::unordered_map<size_t, std::vector<FusionGroup::Member>>
                by_functional;
            for (const size_t i : indices) {
                const bool halt = jobs[i].requireHalt;
                sim::MetricsOptions options =
                    effectiveOptions(jobs[i], *workload);
                const sim::PipeMask pipes = sim::pipeMask(options);
                const uint64_t fp =
                    configs.fingerprint(configs.find(options, halt));
                sim::setPipeMask(options, 0);
                by_functional[configs.find(options, halt)].push_back(
                    {i, fp, pipes});
            }
            for (auto &[functional, members] : by_functional) {
                if (members.size() < 2)
                    continue;
                auto grp = std::make_shared<FusionGroup>();
                grp->workload = *workload;
                grp->members = std::move(members);
                for (const FusionGroup::Member &m : grp->members) {
                    grp->pipes |= m.pipes;
                    group_of[m.index] = grp;
                }
                const auto base = std::find_if(
                    grp->members.begin(), grp->members.end(),
                    [](const FusionGroup::Member &m) {
                        return m.pipes == 0;
                    });
                if (grp->pipes != 0 && base != grp->members.end())
                    grp->baseFingerprint = base->fingerprint;
                grp->job = jobs[grp->members.front().index];
                sim::setPipeMask(grp->job.options, grp->pipes);
                grp->job.expectedPins.reset();
                grp->job.checkCapturedPins = false;
                grp->fingerprint = configs.fingerprint(
                    configs.find(effectiveOptions(grp->job, *workload),
                                 grp->job.requireHalt));
            }
        }
    }

    const unsigned workers = effectiveWorkers(jobs.size());
    std::optional<Watchdog> watchdog;
    if (cfg.timeoutMs > 0)
        watchdog.emplace();
    const ExecContext ctx{watchdog ? &*watchdog : nullptr,
                          cfg.timeoutMs};

    // Cache-aware execution of one still-pending job on the calling
    // thread: lookup-before-simulate, store-after-miss.
    auto run_one = [&](const BatchJob &job) -> JobResult {
        if (!cache)
            return executeJob(job, ctx, cfg);
        if (const std::optional<workloads::Workload> workload =
                tryIdentify(job.workload)) {
            if (std::optional<JobResult> hit = tryCacheHit(
                    job, *workload,
                    configFingerprint(effectiveOptions(job, *workload),
                                      job.workload, job.requireHalt),
                    {&job}, *cache, ctx, cfg)) {
                return std::move(*hit);
            }
        }
        JobResult r = executeJob(job, ctx, cfg);
        r.cacheStatus = CacheStatus::Miss;
        if (r.ok) {
            cache->store({r.uri, r.fingerprint,
                          std::string(kEngineVersion)},
                         r.snapshot);
        }
        return r;
    };

    // A miss publishes the group's run under its key, plus the base
    // projection under the base key — only a run every member's pins
    // accept, the same test a hit on it must pass.
    auto store_run = [&](const FusionGroup &grp, const JobResult &run) {
        for (const FusionGroup::Member &m : grp.members) {
            if (!pinErrors(jobs[m.index], grp.workload, run.snapshot)
                     .empty()) {
                return;
            }
        }
        const std::string engine(kEngineVersion);
        cache->store({grp.workload.uri, grp.fingerprint, engine},
                     run.snapshot);
        if (grp.baseFingerprint) {
            sim::RunSnapshot base = run.snapshot;
            sim::projectPipes(base, 0);
            cache->store({grp.workload.uri, *grp.baseFingerprint, engine},
                         base);
        }
    };

    // One member of a fusion group: its slot is the group's cache hit
    // or run, projected to the member's own pipe set.
    auto run_member = [&](FusionGroup &grp, size_t index) -> JobResult {
        const BatchJob &job = jobs[index];
        const FusionGroup::Member &me = grp.member(index);
        const bool leads = index == grp.members.front().index;
        if (leads) {
            std::optional<JobResult> hit;
            if (cache) {
                std::vector<const BatchJob *> pinned;
                for (const FusionGroup::Member &m : grp.members)
                    pinned.push_back(&jobs[m.index]);
                hit = tryCacheHit(grp.job, grp.workload, grp.fingerprint,
                                  pinned, *cache, ctx, cfg);
            }
            grp.plan(std::move(hit));
        } else {
            grp.waitPlanned();
        }

        // Only the leader reports the group's cache status, and the
        // attempts, backoff and duration of what it executed.
        auto slot = [&](const JobResult &source) {
            sim::RunSnapshot snap = source.snapshot;
            sim::projectPipes(snap, me.pipes);
            JobResult r = resultFromSnapshot(job, grp.workload,
                                             me.fingerprint,
                                             std::move(snap));
            if (leads) {
                r.attempts = source.attempts;
                r.backoffMsApplied = source.backoffMsApplied;
                r.durationMs = source.durationMs;
            } else if (grp.duplicatesEarlier(me)) {
                r.deduped = true;
            } else {
                r.fused = true;
            }
            return r;
        };

        if (grp.hit) {
            if (grp.hit->ok) {
                JobResult r = slot(*grp.hit);
                if (leads) {
                    r.cacheStatus = CacheStatus::Hit;
                    r.verifiedHit = grp.hit->verifiedHit;
                }
                return r;
            }
            // A failed verify-hits audit fails the leader's slot and
            // fans nothing out.
            if (!leads)
                return run_one(job);
            JobResult r = *grp.hit;
            r.fingerprint = me.fingerprint;
            sim::projectPipes(r.snapshot, me.pipes);
            return r;
        }

        if (leads)
            grp.publishRun(executeJob(grp.job, ctx, cfg));
        const std::shared_ptr<const JobResult> run = grp.takeRun();
        // Stored after publishing, so no member waits on disk I/O.
        if (leads && cache && run->ok)
            store_run(grp, *run);
        if (!run->ok) {
            // A failed run never poisons the members it was to cover:
            // each runs solo, so its slot carries its own classified
            // outcome. Only a leader whose own pipe set is the run's
            // already has that outcome.
            if (!leads || me.pipes != grp.pipes)
                return run_one(job);
            JobResult r = *run;
            if (cache)
                r.cacheStatus = CacheStatus::Miss;
            return r;
        }
        JobResult r = slot(*run);
        if (leads && cache)
            r.cacheStatus = CacheStatus::Miss;
        return r;
    };

    // FIFO dispatch, no stealing: the cursor hands each worker the
    // lowest unclaimed job index; each worker writes only its own
    // result slots, so the vector needs no lock.
    std::atomic<size_t> cursor{0};
    std::mutex done_mutex;
    auto drain = [&] {
        for (;;) {
            const size_t index =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (index >= jobs.size())
                return;
            if (results[index].skipped)
                continue;
            results[index] = group_of[index]
                                 ? run_member(*group_of[index], index)
                                 : run_one(jobs[index]);

            if (cfg.onJobDone) {
                std::lock_guard<std::mutex> lock(done_mutex);
                cfg.onJobDone(index, results[index]);
            }
        }
    };

    if (workers <= 1) {
        // Serial reference path: same executeJob, calling thread.
        drain();
        return results;
    }
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(drain);
    for (std::thread &t : pool)
        t.join();
    return results;
}

} // namespace darco::runner
