/**
 * @file
 * Shared harness for the figure-regeneration benches: argument
 * parsing (budget, suite filter, CSV output), the one batch path
 * every sweep runs on (runBatch over runner::BatchRunner) and suite
 * sweeps with per-suite averages, matching the paper's figure layout
 * (per-benchmark bars in suite order followed by the four suite
 * averages).
 */

#ifndef DARCO_BENCH_BENCH_UTIL_HH
#define DARCO_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "runner/batch_runner.hh"
#include "sim/metrics.hh"
#include "workloads/params.hh"
#include "workloads/source.hh"

namespace darco::bench {

/**
 * The flag groups a tool reads, declared by the tool when it parses
 * its arguments (a bit set). parse() rejects every flag outside the
 * declared groups as an unknown argument rather than ignore it;
 * `--csv` and `--help` are always accepted.
 */
enum Flags : unsigned
{
    /** `--budget=` (and DARCO_BUDGET): the tool runs workloads. */
    Budget = 1u << 0,
    /** `--suite=`, `--benchmark=`: the user picks the workloads. */
    Selection = 1u << 1,
    /** runBatch's flags but `--shard=`: `--jobs=`, `--timeout=`,
     *  `--retries=`, `--cache-dir=`, `--verify-hits`,
     *  `--require-hits`. */
    Batch = 1u << 2,
    /** `--shard=K/N`: the tool's output splits by workload. */
    Shard = 1u << 3,
    /** A figure sweep: every group. */
    Sweep = Budget | Selection | Batch | Shard,
};

struct BenchArgs
{
    /** Guest instructions per run unless a tool declares its own. */
    static constexpr uint64_t kDefaultBudget = 4'000'000;

    uint64_t budget = kDefaultBudget;
    std::string suite;  ///< empty = all suites
    /** `--benchmark=`, repeatable: names or URIs, in the order given;
     *  empty = all benchmarks. */
    std::vector<std::string> benchmarks;
    bool csv = false;
    /**
     * Worker threads for the sweep: 0 (default) = one per hardware
     * thread, 1 = inline on the calling thread, N = a fixed pool. The
     * engine is deterministic and every job independent, so results
     * are bit-identical at any value (tests/test_batch_runner.cc).
     */
    unsigned jobs = 0;
    /**
     * Fault tolerance for long sweeps (docs/robustness.md): per-job
     * wall-clock watchdog and transient-failure retries. Both off by
     * default. A crashed sweep resumes by re-running it with the same
     * `--cache-dir=`.
     */
    uint64_t timeoutMs = 0;
    unsigned retries = 0;
    /**
     * Campaign scale-out (docs/campaigns.md): a stable per-workload
     * shard of the sweep (`--shard=K/N`), a content-addressed result
     * cache directory shared between runs and shards
     * (`--cache-dir=`), re-simulating every cache hit and comparing
     * it bit-for-bit (`--verify-hits`), and failing unless every
     * executed job was satisfied by the cache (`--require-hits`,
     * needs `--cache-dir=`). All off by default.
     */
    runner::ShardSpec shard;
    std::string cacheDir;
    bool verifyHits = false;
    bool requireHits = false;

    /**
     * Parse the flags of the groups in @p flags. A tool that reads
     * `--budget=` runs @p defaultBudget instructions per workload
     * unless `--budget=` or DARCO_BUDGET says otherwise.
     */
    static BenchArgs
    parse(int argc, char **argv, unsigned flags = Sweep,
          uint64_t defaultBudget = kDefaultBudget)
    {
        BenchArgs args;
        args.budget = defaultBudget;
        if (const char *env = std::getenv("DARCO_BUDGET");
            env && (flags & Budget)) {
            args.budget = number<uint64_t>("DARCO_BUDGET", env);
        }
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            // The value after @p prefix, if @p arg is that flag and
            // the tool declared its @p group.
            auto value = [&](unsigned group,
                             const char *prefix) -> const char * {
                const size_t len = std::strlen(prefix);
                if ((flags & group) && arg.rfind(prefix, 0) == 0)
                    return arg.c_str() + len;
                return nullptr;
            };
            auto is = [&](unsigned group, const char *flag) {
                return (flags & group) && arg == flag;
            };
            if (arg == "--csv")
                args.csv = true;
            else if (arg == "--help" || arg == "-h")
                usage(flags, defaultBudget);
            else if (const char *v = value(Budget, "--budget="))
                args.budget = number<uint64_t>("--budget", v);
            else if (const char *v2 = value(Selection, "--suite="))
                args.suite = v2;
            else if (const char *v3 = value(Selection, "--benchmark="))
                args.benchmarks.emplace_back(v3);
            else if (const char *v4 = value(Batch, "--jobs="))
                args.jobs = number<unsigned>("--jobs", v4);
            else if (const char *v5 = value(Batch, "--timeout="))
                args.timeoutMs = number<uint64_t>("--timeout", v5);
            else if (const char *v6 = value(Batch, "--retries="))
                args.retries = number<unsigned>("--retries", v6);
            else if (const char *v8 = value(Shard, "--shard=")) {
                const auto shard = common::parseShard(v8);
                fatal_if(!shard, "--shard=%s: expected K/N with K < N "
                         "(e.g. --shard=0/3)", v8);
                args.shard.index = shard->first;
                args.shard.count = shard->second;
            }
            else if (const char *v9 = value(Batch, "--cache-dir="))
                args.cacheDir = v9;
            else if (is(Batch, "--verify-hits"))
                args.verifyHits = true;
            else if (is(Batch, "--require-hits"))
                args.requireHits = true;
            else
                fatal("unknown argument: %s", arg.c_str());
        }
        fatal_if(args.requireHits && args.cacheDir.empty(),
                 "--require-hits needs --cache-dir=");
        return args;
    }

  private:
    /** Print the declared flags and exit. */
    [[noreturn]] static void
    usage(unsigned flags, uint64_t defaultBudget)
    {
        std::printf("options: --csv");
        if (flags & Budget)
            std::printf(" --budget=N (default %llu)",
                        static_cast<unsigned long long>(defaultBudget));
        if (flags & Selection) {
            std::printf(
                " --suite=NAME --benchmark=NAME\n"
                "  suites: 'SPEC INT', 'SPEC FP', "
                "'Physics', 'Media'\n  benchmark: a synthetic name "
                "or a workload URI\n    (source://synthetic/<name>, "
                "source://trace/<file>); repeat to\n    select "
                "several, run in the order given");
        }
        std::printf("\n");
        if (flags & Batch) {
            std::printf(
                "batch: --jobs=N (0 = hardware threads, 1 = "
                "serial; same output)\n  --timeout=MS --retries=N%s "
                "--cache-dir=DIR\n  --verify-hits --require-hits (see "
                "docs/robustness.md,\n  docs/campaigns.md; re-run with "
                "the same --cache-dir to resume)\n",
                (flags & Shard) ? " --shard=K/N" : "");
        }
        if (flags & Budget)
            std::printf("env: DARCO_BUDGET\n");
        std::exit(0);
    }

    template <class T>
    static T
    number(const char *flag, const char *text)
    {
        const std::optional<T> n = common::parseUnsigned<T>(text);
        fatal_if(!n, "%s=%s: expected an unsigned integer", flag, text);
        return *n;
    }
};

/**
 * The shared System/config wiring every bench repeats: the guest
 * budget plus the budget-scaled BB->SB promotion threshold. Apply
 * before per-bench config tweaks (a grid point that overrides the
 * threshold simply assigns over it).
 */
inline void
applyBudget(sim::MetricsOptions &options, uint64_t budget)
{
    options.guestBudget = budget;
    options.tolConfig.bbToSbThreshold =
        sim::scaledSbThreshold(budget);
}

/**
 * Workload URIs selected by the args without resolving them
 * (resolution can be expensive — a trace URI reads and checksums the
 * whole file — so a sweep leaves it to the workers): every benchmark
 * of `--suite` in figure order, or the `--benchmark=` list in the
 * order given. A list entry is a full workload URI (any registered
 * scheme, kept whatever the suite filter) or a bare synthetic
 * benchmark name (dropped unless it is in `--suite`).
 */
inline std::vector<std::string>
selectWorkloadUris(const BenchArgs &args)
{
    std::vector<std::string> uris;
    auto in_suite = [&](const workloads::BenchParams &p) {
        return args.suite.empty() || p.suite == args.suite;
    };
    if (args.benchmarks.empty()) {
        for (const workloads::BenchParams &p : workloads::allBenchmarks()) {
            if (in_suite(p))
                uris.push_back(workloads::syntheticUri(p.name));
        }
    }
    for (const std::string &b : args.benchmarks) {
        if (workloads::isSourceUri(b)) {
            uris.push_back(b);
            continue;
        }
        const workloads::BenchParams *p = workloads::findBenchmark(b);
        fatal_if(!p, "unknown benchmark '%s'", b.c_str());
        if (in_suite(*p))
            uris.push_back(workloads::syntheticUri(b));
    }
    fatal_if(uris.empty(), "no benchmarks match the filters");
    return uris;
}

/**
 * Run @p jobs on runner::BatchRunner under the args' execution flags
 * (--jobs, --timeout, --retries, --shard, --cache-dir, --verify-hits,
 * --require-hits) and return the executed slots in job order. Every
 * job is an independent deterministic System, so the results are
 * bit-identical at any worker count, cached or not; only wall clock
 * changes (tests/test_batch_runner.cc). Out-of-shard slots are
 * dropped: with `--shard=K/N` only this shard's jobs come back. A
 * failed job is fatal, since a figure row must never silently go
 * missing. With a cache dir, a one-line cache summary goes to stderr,
 * and `--require-hits` is fatal if any executed slot missed the
 * cache: a fusion group reports its one lookup on its leader, so
 * every other member of a hit group counts as satisfied.
 */
inline std::vector<runner::JobResult>
runBatch(const BenchArgs &args, const std::vector<runner::BatchJob> &jobs)
{
    runner::BatchConfig config;
    config.workers = args.jobs;
    config.timeoutMs = args.timeoutMs;
    config.retries = args.retries;
    config.shard = args.shard;
    config.cacheDir = args.cacheDir;
    config.verifyHits = args.verifyHits;
    config.onJobDone = [](size_t, const runner::JobResult &r) {
        const char *via = r.cacheStatus == runner::CacheStatus::Hit
                              ? "(cache hit) "
                          : r.deduped ? "(deduped) "
                          : r.fused   ? "(fused) "
                                      : "";
        std::fprintf(stderr, "  finished %-24s %s%s\n",
                     r.name.empty() ? r.uri.c_str() : r.name.c_str(),
                     via, r.ok ? "" : "(FAILED)");
    };
    const runner::BatchRunner pool(config);
    std::fprintf(stderr, "  running %zu jobs on %u workers\n",
                 jobs.size(), pool.effectiveWorkers(jobs.size()));

    std::vector<runner::JobResult> results;
    size_t hits = 0, verified = 0, misses = 0;
    for (runner::JobResult &r : pool.run(jobs)) {
        // Another shard of the same campaign owns this slot.
        if (r.skipped)
            continue;
        fatal_if(!r.ok, "job %s failed (%s after %u attempt(s)):\n%s",
                 r.uri.c_str(), r.runError.name(), r.attempts,
                 r.error.c_str());
        hits += r.cacheStatus == runner::CacheStatus::Hit;
        verified += r.verifiedHit;
        misses += r.cacheStatus == runner::CacheStatus::Miss;
        results.push_back(std::move(r));
    }
    if (!args.cacheDir.empty()) {
        std::fprintf(stderr, "  cache: %zu hit(s) (%zu verified), "
                     "%zu miss(es)\n", hits, verified, misses);
        fatal_if(args.requireHits && misses > 0,
                 "--require-hits: %zu executed job(s) were not cache "
                 "hits", misses);
    }
    return results;
}

/**
 * One job per selected workload, all under @p options with the
 * budget applied. A replayed trace is a figure input like any other
 * workload: its in-file pins are enforced by the trace round-trip
 * tests, not by figure sweeps.
 */
inline std::vector<runner::BatchJob>
sweepJobs(const BenchArgs &args, sim::MetricsOptions options)
{
    applyBudget(options, args.budget);
    std::vector<runner::BatchJob> jobs;
    for (std::string &uri : selectWorkloadUris(args)) {
        runner::BatchJob job;
        job.workload = std::move(uri);
        job.options = options;
        job.checkCapturedPins = false;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/**
 * Run the selected workloads (runBatch over sweepJobs) and append
 * the four suite averages. A suite average appears only when the
 * sweep ran every member of the suite exactly once, so a sharded
 * sweep reports it only if its shard happens to cover a whole suite,
 * and a list that repeats a workload reports none for its suite.
 */
inline std::vector<sim::BenchMetrics>
runSweep(const BenchArgs &args, const sim::MetricsOptions &options)
{
    std::vector<sim::BenchMetrics> all;
    for (const runner::JobResult &r : runBatch(args, sweepJobs(args, options)))
        all.push_back(sim::collectMetrics(r.snapshot, r.name, r.suite));

    for (const char *suite : {"SPEC INT", "SPEC FP", "Physics", "Media"}) {
        std::vector<sim::BenchMetrics> members;
        std::vector<std::string> ran, expected;
        for (const sim::BenchMetrics &m : all) {
            if (m.suite == suite) {
                members.push_back(m);
                ran.push_back(m.name);
            }
        }
        for (const workloads::BenchParams *p :
             workloads::suiteBenchmarks(suite)) {
            expected.push_back(p->name);
        }
        std::sort(ran.begin(), ran.end());
        std::sort(expected.begin(), expected.end());
        if (!members.empty() && ran == expected) {
            all.push_back(sim::averageMetrics(
                members, std::string("AVG ") + suite));
        }
    }
    return all;
}

inline void
renderTable(const Table &table, const BenchArgs &args)
{
    if (args.csv)
        table.renderCsv();
    else
        table.render();
}

} // namespace darco::bench

#endif // DARCO_BENCH_BENCH_UTIL_HH
