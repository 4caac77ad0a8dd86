/**
 * @file
 * Shared harness for the figure-regeneration benches: argument
 * parsing (budget, suite filter, CSV output) and suite sweeps with
 * per-suite averages, matching the paper's figure layout (per-
 * benchmark bars in suite order followed by the four suite averages).
 */

#ifndef DARCO_BENCH_BENCH_UTIL_HH
#define DARCO_BENCH_BENCH_UTIL_HH

#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "runner/batch_runner.hh"
#include "sim/metrics.hh"
#include "workloads/params.hh"
#include "workloads/source.hh"

namespace darco::bench {

struct BenchArgs
{
    uint64_t budget = 4'000'000;
    std::string suite;      ///< empty = all suites
    std::string benchmark;  ///< empty = all benchmarks
    bool csv = false;
    /**
     * Worker threads for the sweep: 0 (default) = one per hardware
     * thread, 1 = the serial reference path, N = a fixed pool. The
     * engine is deterministic and every job independent, so results
     * are bit-identical at any value (tests/test_batch_runner.cc).
     */
    unsigned jobs = 0;
    /**
     * Fault tolerance for long sweeps (docs/robustness.md): per-job
     * wall-clock watchdog and transient-failure retries. Both off by
     * default — and they MUST stay off for committed perf baselines
     * (bench/check_perf.py). A crashed sweep resumes by re-running it
     * with the same `--cache-dir=`.
     */
    uint64_t timeoutMs = 0;
    unsigned retries = 0;
    /**
     * Campaign scale-out (docs/campaigns.md): a stable job-index
     * shard of the sweep (`--shard=K/N`), a content-addressed result
     * cache directory shared between runs and shards
     * (`--cache-dir=`), and the fraction of cache hits to
     * re-simulate and compare bit-for-bit (`--verify-hits=`). All
     * off by default — and the cache MUST stay off for committed
     * perf baselines (bench/check_perf.py).
     */
    runner::ShardSpec shard;
    std::string cacheDir;
    double verifyHits = 0.0;

    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs args;
        if (const char *env = std::getenv("DARCO_BUDGET"))
            args.budget = std::strtoull(env, nullptr, 10);
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&](const char *prefix) -> const char * {
                const size_t len = std::strlen(prefix);
                if (arg.rfind(prefix, 0) == 0)
                    return arg.c_str() + len;
                return nullptr;
            };
            if (const char *v = value("--budget="))
                args.budget = std::strtoull(v, nullptr, 10);
            else if (const char *v2 = value("--suite="))
                args.suite = v2;
            else if (const char *v3 = value("--benchmark="))
                args.benchmark = v3;
            else if (const char *v4 = value("--jobs="))
                args.jobs = static_cast<unsigned>(
                    std::strtoul(v4, nullptr, 10));
            else if (const char *v5 = value("--timeout="))
                args.timeoutMs = std::strtoull(v5, nullptr, 10);
            else if (const char *v6 = value("--retries="))
                args.retries = static_cast<unsigned>(
                    std::strtoul(v6, nullptr, 10));
            else if (const char *v8 = value("--shard=")) {
                char *end = nullptr;
                args.shard.index = static_cast<unsigned>(
                    std::strtoul(v8, &end, 10));
                fatal_if(!end || *end != '/',
                         "--shard expects K/N (e.g. --shard=0/3)");
                args.shard.count = static_cast<unsigned>(
                    std::strtoul(end + 1, nullptr, 10));
                fatal_if(args.shard.count == 0 ||
                             args.shard.index >= args.shard.count,
                         "--shard=%s: index must be < count", v8);
            }
            else if (const char *v9 = value("--cache-dir="))
                args.cacheDir = v9;
            else if (const char *v10 = value("--verify-hits="))
                args.verifyHits = std::strtod(v10, nullptr);
            else if (arg == "--csv")
                args.csv = true;
            else if (arg == "--help" || arg == "-h") {
                std::printf(
                    "options: --budget=N --suite=NAME --benchmark=NAME "
                    "--jobs=N --csv\n         --timeout=MS --retries=N\n"
                    "  suites: 'SPEC INT', 'SPEC FP', "
                    "'Physics', 'Media'\n  benchmark: a synthetic name "
                    "or a workload URI\n    (source://synthetic/<name>, "
                    "source://trace/<file>)\n  jobs: sweep worker "
                    "threads (0 = hardware threads, 1 = serial\n    "
                    "reference; results are bit-identical either way)\n"
                    "  timeout/retries: per-job watchdog, "
                    "transient-failure retries\n    (batch path only; "
                    "keep off for committed perf baselines)\n"
                    "  --shard=K/N --cache-dir=DIR --verify-hits=F: "
                    "campaign scale-out\n    (stable job-index shard, "
                    "content-addressed result cache,\n    fraction of "
                    "hits re-simulated and compared bit-for-bit;\n    "
                    "docs/campaigns.md — keep the cache off for perf "
                    "baselines;\n    re-run with the same --cache-dir "
                    "to resume a crashed sweep)\n"
                    "  env: DARCO_BUDGET\n");
                std::exit(0);
            } else {
                fatal("unknown argument: %s", arg.c_str());
            }
        }
        return args;
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

/** Fresh MetricsOptions pre-wired for the parsed args. */
inline sim::MetricsOptions
makeMetricsOptions(const BenchArgs &args)
{
    sim::MetricsOptions options;
    applyBudget(options, args.budget);
    return options;
}

/**
 * Workload URIs selected by the args, in figure order, without
 * resolving them (resolution can be expensive — a trace URI reads
 * and checksums the whole file — so the parallel sweep leaves it to
 * the workers). `--benchmark=` accepts a full workload URI (any
 * registered scheme) or a bare synthetic benchmark name.
 */
inline std::vector<std::string>
selectWorkloadUris(const BenchArgs &args)
{
    std::vector<std::string> uris;
    if (workloads::isSourceUri(args.benchmark)) {
        uris.push_back(args.benchmark);
        return uris;
    }
    for (const workloads::BenchParams &p : workloads::allBenchmarks()) {
        if (!args.suite.empty() && p.suite != args.suite)
            continue;
        if (!args.benchmark.empty() && p.name != args.benchmark)
            continue;
        uris.push_back(workloads::syntheticUri(p.name));
    }
    fatal_if(uris.empty(), "no benchmarks match the filters");
    return uris;
}

/** The selected workloads, resolved through the source registry. */
inline std::vector<workloads::Workload>
selectWorkloads(const BenchArgs &args)
{
    std::vector<workloads::Workload> selected;
    for (const std::string &uri : selectWorkloadUris(args))
        selected.push_back(workloads::resolveWorkload(uri));
    return selected;
}

/**
 * Run the selected workloads and append the four suite averages.
 *
 * `args.jobs` picks the execution path: 1 runs the serial reference
 * loop on the calling thread; any other value routes the sweep
 * through runner::BatchRunner on a worker pool (0 = one worker per
 * hardware thread). Every job is an independent deterministic
 * System, so the returned metrics are bit-identical across paths
 * and pool sizes — only wall clock changes
 * (tests/test_batch_runner.cc enforces this).
 *
 * `--shard=K/N` and `--cache-dir=` route through the batch path even
 * at --jobs=1 (sharding and the result cache are BatchRunner
 * features). A sharded sweep returns only this shard's metrics;
 * suite averages appear only when the shard happens to cover a whole
 * suite.
 */
inline std::vector<sim::BenchMetrics>
runSweep(const BenchArgs &args, sim::MetricsOptions options,
         bool progress = true)
{
    applyBudget(options, args.budget);
    std::vector<sim::BenchMetrics> all;
    // Sharding and the result cache live in the batch path; either
    // one routes the sweep through BatchRunner even at --jobs=1.
    const bool campaign =
        args.shard.count > 1 || !args.cacheDir.empty();
    if (args.jobs == 1 && !campaign) {
        // Serial reference path: unchanged semantics, no threads.
        for (const workloads::Workload &w : selectWorkloads(args)) {
            if (progress) {
                std::fprintf(stderr, "  running %-24s ...\n",
                             w.name.c_str());
            }
            sim::MetricsOptions per_workload = options;
            sim::applyCaptureRecipe(per_workload, w);
            all.push_back(sim::runWorkload(w, per_workload));
        }
    } else {
        // Workers resolve their own jobs (a trace URI reads the
        // whole file), so the sweep only selects URIs here.
        std::vector<runner::BatchJob> jobs;
        for (std::string &uri : selectWorkloadUris(args)) {
            runner::BatchJob job;
            job.workload = std::move(uri);
            job.options = options;
            // The serial reference path (runWorkload) does not
            // verify in-file capture pins, so the parallel path
            // must not either — the two would otherwise diverge on
            // a stale trace (pin enforcement lives in the trace
            // gates and engine_speed, not in figure sweeps).
            job.checkCapturedPins = false;
            jobs.push_back(std::move(job));
        }
        runner::BatchConfig config;
        config.workers = args.jobs;
        config.timeoutMs = args.timeoutMs;
        config.retries = args.retries;
        config.shard = args.shard;
        config.cacheDir = args.cacheDir;
        config.verifyHitFraction = args.verifyHits;
        if (progress) {
            config.onJobDone = [](size_t, const runner::JobResult &r) {
                const char *via =
                    r.cacheStatus == runner::CacheStatus::Hit
                        ? "(cache hit) "
                    : r.deduped ? "(deduped) "
                    : r.fused   ? "(fused) "
                                : "";
                std::fprintf(stderr, "  finished %-24s %s%s\n",
                             r.name.empty() ? r.uri.c_str()
                                            : r.name.c_str(),
                             via, r.ok ? "" : "(FAILED)");
            };
        }
        const runner::BatchRunner pool(config);
        if (progress) {
            std::fprintf(stderr,
                         "  sweeping %zu workloads on %u workers\n",
                         jobs.size(), pool.effectiveWorkers(jobs.size()));
        }
        for (runner::JobResult &r : pool.run(jobs)) {
            // Out-of-shard slots were never executed: another shard
            // of the same campaign owns them.
            if (r.skipped)
                continue;
            fatal_if(!r.ok, "sweep job %s failed (%s after %u "
                     "attempt(s)):\n%s",
                     r.uri.c_str(), r.runError.name(), r.attempts,
                     r.error.c_str());
            all.push_back(std::move(r.metrics));
        }
    }

    // Suite averages (only when the full suite ran).
    for (const char *suite : {"SPEC INT", "SPEC FP", "Physics", "Media"}) {
        std::vector<sim::BenchMetrics> members;
        for (const sim::BenchMetrics &m : all) {
            if (m.suite == suite)
                members.push_back(m);
        }
        if (!members.empty() &&
            members.size() == workloads::suiteBenchmarks(suite).size()) {
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

// ---------------------------------------------------------------------
// Simulator-throughput reporting (machine-readable perf trajectory)
// ---------------------------------------------------------------------

/**
 * Process-CPU-time stopwatch. CPU time (not wall clock) keeps the
 * perf trajectory comparable when the measuring machine is shared;
 * the simulator is single-threaded, so the two agree on an idle box.
 */
class CpuTimer
{
  public:
    CpuTimer() : start(sample()) {}

    double seconds() const { return sample() - start; }

  private:
    static double
    sample()
    {
        timespec ts{};
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }

    double start;
};

/** One measured engine scenario (e.g. interpreter-only execution). */
struct ThroughputSample
{
    std::string name;
    uint64_t guestRetired = 0;   ///< guest instructions simulated
    uint64_t hostRecords = 0;    ///< host-instruction records timed
    uint64_t cycles = 0;         ///< simulated cycles (determinism key)
    double seconds = 0;          ///< host process-CPU seconds
    /**
     * Which timing core actually advanced the clock in the timed run
     * ("event" / "reference"), recorded from the live pipeline — not
     * from the requested config — so a silent core switch shows up
     * in the committed JSON and fails bench/check_perf.py.
     */
    std::string timingCore;
    /**
     * Same scenario re-run on the cycle-stepped reference timing
     * core (0 = not measured): the in-process A/B that backs the
     * event_core_speedup field.
     */
    double steppedSeconds = 0;
    /**
     * How the scenario was executed: "serial" (alone on the process,
     * the only mode whose timings are comparable across PRs) or
     * "parallel" (shared the process with concurrent jobs).
     * bench/check_perf.py requires "serial" on every committed
     * engine_speed scenario — see the rationale there.
     */
    std::string execution = "serial";
    /**
     * Whether characterization profiling (MetricsOptions::profile)
     * was live during the timed run: "off" or "on". Profiling adds a
     * stack-distance update per memory access, so a committed perf
     * baseline with profiling on would not be comparable to any
     * other; bench/check_perf.py requires "off" on every committed
     * and fresh engine_speed scenario.
     */
    std::string profile = "off";
    /**
     * Whether the IR/regalloc verifier (TolConfig::verifyIr) was live
     * during the timed run: "off" or "on". Verification is a pure
     * observer (determinism fields cannot change), but it re-derives
     * dataflow for every translation, so a committed perf baseline
     * with it on times the verifier on top of the engine;
     * bench/check_perf.py requires "off" on every committed and fresh
     * engine_speed scenario.
     */
    std::string verify = "off";
    /**
     * Whether the event core's burst dispatcher was armed during the
     * timed run: "on" or "off", read back from the live pipeline
     * (timing::Pipeline::burstDispatchEnabled), not the requested
     * config. Burst dispatch is bit-identical by construction, but a
     * different dispatch engine is a different experiment, so it is
     * a determinism field in bench/check_perf.py (committed AND
     * fresh must both say "on").
     */
    std::string burst = "on";
    /**
     * Fraction of simulated cycles the burst dispatcher retired
     * (PipeStats::burstFraction). Purely informational for most
     * scenarios; check_perf.py enforces a floor on the dense
     * scenarios built to sit in the burst regime, so a predicate
     * regression that silently stops bursts from forming fails CI.
     */
    double burstFraction = 0;
    /**
     * Whether the scenario could have been satisfied from a result
     * cache: "off" or "on". A cache hit skips simulation entirely,
     * so a committed perf baseline measured with the cache on would
     * time file I/O instead of the engine; bench/check_perf.py
     * requires "off" on every committed and fresh engine_speed
     * scenario.
     */
    std::string cache = "off";

    /** Guest MIPS achieved (forward progress per host second). */
    double
    guestMips() const
    {
        return seconds > 0
            ? static_cast<double>(guestRetired) / seconds / 1e6 : 0;
    }

    /** Host-instruction records timed per host second. */
    double
    hostInstPerSec() const
    {
        return seconds > 0
            ? static_cast<double>(hostRecords) / seconds : 0;
    }

    /** Simulated cycles the timing core advanced per host second. */
    double
    simCyclesPerSec() const
    {
        return seconds > 0
            ? static_cast<double>(cycles) / seconds : 0;
    }

    /**
     * Simulated cycles per timed record (a determinism quantity:
     * workload character, not host speed).
     */
    double
    cyclesPerRecord() const
    {
        return hostRecords > 0
            ? static_cast<double>(cycles) /
              static_cast<double>(hostRecords)
            : 0;
    }
};

/**
 * Collects ThroughputSamples and emits BENCH_engine.json so future
 * PRs have a perf trajectory to compare against. If a baseline file
 * (same schema, recorded at an earlier engine state) is supplied, each
 * scenario additionally reports its speedup versus the baseline.
 */
class ThroughputReporter
{
  public:
    explicit ThroughputReporter(std::string engine_label)
        : label(std::move(engine_label))
    {}

    void add(ThroughputSample sample) { samples.push_back(sample); }

    /** Baseline guest-MIPS for a scenario ( <= 0 means unknown). */
    void
    addBaseline(const std::string &scenario, double guest_mips,
                double host_inst_per_sec)
    {
        baselines.push_back({scenario, guest_mips, host_inst_per_sec});
    }

    void
    write(const char *path = "BENCH_engine.json") const
    {
        FILE *out = std::fopen(path, "w");
        fatal_if(!out, "cannot open %s for writing", path);
        std::fprintf(out, "{\n  \"bench\": \"%s\",\n", label.c_str());
        std::fprintf(out, "  \"scenarios\": {\n");
        for (size_t i = 0; i < samples.size(); ++i) {
            const ThroughputSample &s = samples[i];
            std::fprintf(out,
                         "    \"%s\": {\n"
                         "      \"guest_retired\": %llu,\n"
                         "      \"host_records\": %llu,\n"
                         "      \"sim_cycles\": %llu,\n"
                         "      \"cycles_per_host_record\": %.4f,\n"
                         "      \"seconds\": %.6f,\n"
                         "      \"guest_mips\": %.3f,\n"
                         "      \"host_inst_per_sec\": %.0f,\n"
                         "      \"sim_cycles_per_sec\": %.0f",
                         s.name.c_str(),
                         static_cast<unsigned long long>(s.guestRetired),
                         static_cast<unsigned long long>(s.hostRecords),
                         static_cast<unsigned long long>(s.cycles),
                         s.cyclesPerRecord(), s.seconds, s.guestMips(),
                         s.hostInstPerSec(), s.simCyclesPerSec());
            if (!s.timingCore.empty()) {
                std::fprintf(out, ",\n      \"timing_core\": \"%s\"",
                             s.timingCore.c_str());
            }
            if (!s.execution.empty()) {
                std::fprintf(out, ",\n      \"execution\": \"%s\"",
                             s.execution.c_str());
            }
            if (!s.profile.empty()) {
                std::fprintf(out, ",\n      \"profile\": \"%s\"",
                             s.profile.c_str());
            }
            if (!s.verify.empty()) {
                std::fprintf(out, ",\n      \"verify\": \"%s\"",
                             s.verify.c_str());
            }
            if (!s.cache.empty()) {
                std::fprintf(out, ",\n      \"cache\": \"%s\"",
                             s.cache.c_str());
            }
            if (!s.burst.empty()) {
                std::fprintf(out,
                             ",\n      \"burst\": \"%s\",\n"
                             "      \"burst_fraction\": %.4f",
                             s.burst.c_str(), s.burstFraction);
            }
            if (s.steppedSeconds > 0) {
                std::fprintf(out,
                             ",\n      \"stepped_seconds\": %.6f,\n"
                             "      \"event_core_speedup\": %.2f",
                             s.steppedSeconds,
                             s.steppedSeconds / s.seconds);
            }
            for (const Baseline &b : baselines) {
                if (b.scenario != s.name || b.guestMips <= 0)
                    continue;
                std::fprintf(out,
                             ",\n      \"baseline_guest_mips\": %.3f,\n"
                             "      \"baseline_host_inst_per_sec\": %.0f,\n"
                             "      \"speedup_vs_baseline\": %.2f",
                             b.guestMips, b.hostInstPerSec,
                             s.guestMips() / b.guestMips);
            }
            std::fprintf(out, "\n    }%s\n",
                         i + 1 < samples.size() ? "," : "");
        }
        std::fprintf(out, "  }\n}\n");
        std::fclose(out);
        std::fprintf(stderr, "wrote %s\n", path);
    }

  private:
    struct Baseline
    {
        std::string scenario;
        double guestMips;
        double hostInstPerSec;
    };

    std::string label;
    std::vector<ThroughputSample> samples;
    std::vector<Baseline> baselines;
};

} // namespace darco::bench

#endif // DARCO_BENCH_BENCH_UTIL_HH
