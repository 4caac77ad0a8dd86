/**
 * @file
 * Command-line benchmark runner — the "controller" a DARCO user would
 * drive by hand: run any of the 48 workloads (or list them), set the
 * budget and thresholds, toggle TOL features, enable co-simulation,
 * and dump full statistics or the disassembly of the hottest
 * translated region.
 *
 *   $ ./run_benchmark --list
 *   $ ./run_benchmark 462.libquantum --budget=1000000 --cosim
 *   $ ./run_benchmark 400.perlbench --no-ibtc --dump-hottest
 *   $ ./run_benchmark 429.mcf --capture=mcf.dtrc
 *   $ ./run_benchmark source://trace/mcf.dtrc
 *   $ ./run_benchmark 429.mcf 462.libquantum 473.astar --jobs=4
 *
 * With several workloads, the runs execute on a BatchRunner worker
 * pool (--jobs workers) and print one summary line each; the
 * detailed single-workload report is unchanged.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "host/disasm.hh"
#include "runner/batch_runner.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "workloads/source.hh"

using namespace darco;

namespace {

void
usage()
{
    std::printf(
        "usage: run_benchmark <name-or-uri> [more workloads...] "
        "[options]\n"
        "       run_benchmark --list\n"
        "workload: a synthetic benchmark name, or a source URI\n"
        "  (source://synthetic/<name>, source://trace/<file>);\n"
        "  trace workloads replay their capture-time recipe unless\n"
        "  --budget/--sb-threshold override it\n"
        "options:\n"
        "  --budget=N        guest instructions (default 2000000)\n"
        "  --sb-threshold=N  BB->SB threshold (default: budget-scaled)\n"
        "  --jobs=N          worker threads for multiple workloads\n"
        "                    (0 = hardware threads, 1 = serial;\n"
        "                    results are identical either way)\n"
        "  --timeout=MS      per-workload wall-clock watchdog: a run\n"
        "                    past the deadline is cancelled and fails\n"
        "                    as Timeout with partial metrics\n"
        "  --retries=N       re-run transiently failed workloads up\n"
        "                    to N times (bounded exponential backoff)\n"
        "  --cache-dir=DIR   content-addressed result cache: completed\n"
        "                    (workload, config) runs are stored and a\n"
        "                    warm re-run simulates nothing; rerun the\n"
        "                    same command after a crash to resume\n"
        "                    (docs/campaigns.md)\n"
        "  --shard=K/N       execute only workloads at index i with\n"
        "                    i %% N == K — N runners sharing a cache\n"
        "                    dir cover the campaign exactly once\n"
        "  --verify-hits=F   re-simulate fraction F of cache hits and\n"
        "                    fail unless bit-identical to the cache\n"
        "  --require-hits    fail unless every executed workload was\n"
        "                    a cache hit or a duplicate of one\n"
        "                    (warm-rerun assertion)\n"
        "  --capture=PATH    snapshot the run to a replayable trace\n"
        "  --cosim           verify against the authoritative emulator\n"
        "  --no-chaining --no-ibtc --no-bbm-opts --no-sbm-opts\n"
        "  --no-scheduling --ibtc-2way --sb-partition --no-prefetcher\n"
        "  --isolation       also run TOL-only/APP-only instances\n"
        "  --dump-hottest    disassemble the most-executed region\n"
        "with several workloads (or --timeout/--retries, which run\n"
        "through the same batch machinery), --capture/\n"
        "--cosim/--isolation/--dump-hottest are single-run features\n"
        "and are rejected\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> names;
    sim::SimConfig cfg;
    cfg.guestBudget = 2'000'000;
    bool dump_hottest = false;
    bool threshold_set = false;
    bool budget_set = false;
    unsigned jobs = 0;
    uint64_t timeout_ms = 0;
    unsigned retries = 0;
    std::string cache_dir;
    runner::ShardSpec shard;
    double verify_hits = 0.0;
    bool require_hits = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            for (const std::string &uri : workloads::listWorkloadUris())
                std::printf("%s\n", uri.c_str());
            return 0;
        } else if (arg.rfind("--budget=", 0) == 0) {
            cfg.guestBudget = std::strtoull(arg.c_str() + 9, nullptr, 10);
            budget_set = true;
        } else if (arg.rfind("--jobs=", 0) == 0) {
            jobs = static_cast<unsigned>(
                std::strtoul(arg.c_str() + 7, nullptr, 10));
        } else if (arg.rfind("--timeout=", 0) == 0) {
            timeout_ms = std::strtoull(arg.c_str() + 10, nullptr, 10);
        } else if (arg.rfind("--retries=", 0) == 0) {
            retries = static_cast<unsigned>(
                std::strtoul(arg.c_str() + 10, nullptr, 10));
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            cache_dir = arg.substr(12);
        } else if (arg.rfind("--shard=", 0) == 0) {
            char *end = nullptr;
            shard.index = static_cast<unsigned>(
                std::strtoul(arg.c_str() + 8, &end, 10));
            if (!end || *end != '/') {
                std::fprintf(stderr,
                             "--shard expects K/N (e.g. --shard=0/3)\n");
                return 1;
            }
            shard.count = static_cast<unsigned>(
                std::strtoul(end + 1, nullptr, 10));
            if (shard.count == 0 || shard.index >= shard.count) {
                std::fprintf(stderr,
                             "--shard=%s: index must be < count\n",
                             arg.c_str() + 8);
                return 1;
            }
        } else if (arg.rfind("--verify-hits=", 0) == 0) {
            verify_hits = std::strtod(arg.c_str() + 14, nullptr);
        } else if (arg == "--require-hits") {
            require_hits = true;
        } else if (arg.rfind("--capture=", 0) == 0) {
            cfg.captureTracePath = arg.substr(10);
        } else if (arg.rfind("--sb-threshold=", 0) == 0) {
            cfg.tol.bbToSbThreshold = static_cast<uint32_t>(
                std::strtoul(arg.c_str() + 15, nullptr, 10));
            threshold_set = true;
        } else if (arg == "--cosim") {
            cfg.cosim = true;
        } else if (arg == "--no-chaining") {
            cfg.tol.enableChaining = false;
        } else if (arg == "--no-ibtc") {
            cfg.tol.enableIbtc = false;
        } else if (arg == "--no-bbm-opts") {
            cfg.tol.enableBbmOpts = false;
        } else if (arg == "--no-sbm-opts") {
            cfg.tol.enableSbmOpts = false;
        } else if (arg == "--no-scheduling") {
            cfg.tol.enableScheduling = false;
        } else if (arg == "--ibtc-2way") {
            cfg.tol.ibtcWays = 2;
        } else if (arg == "--sb-partition") {
            cfg.tol.sbPartitionPercent = 50;
        } else if (arg == "--no-prefetcher") {
            cfg.timing.prefetcherEnabled = false;
        } else if (arg == "--isolation") {
            cfg.tolOnlyPipe = true;
            cfg.appOnlyPipe = true;
            cfg.tolModulePipe = true;
        } else if (arg == "--dump-hottest") {
            dump_hottest = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] != '-') {
            names.push_back(arg);
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 1;
        }
    }

    if (names.empty()) {
        usage();
        return 1;
    }
    for (const std::string &n : names) {
        if (!workloads::isSourceUri(n) && !workloads::findBenchmark(n)) {
            std::fprintf(stderr,
                         "unknown benchmark '%s' (see --list)\n",
                         n.c_str());
            return 1;
        }
    }

    // Fault-tolerant execution (watchdog, retry) and the campaign
    // scale-out features (result cache, sharding) live in the
    // BatchRunner, so those flags route even a single workload
    // through the batch path (summary line instead of the detailed
    // report).
    const bool fault_tolerant = timeout_ms > 0 || retries > 0;
    const bool campaign = !cache_dir.empty() || shard.count > 1;
    if (require_hits && cache_dir.empty()) {
        std::fprintf(stderr,
                     "--require-hits needs --cache-dir=\n");
        return 1;
    }
    if (names.size() > 1 || fault_tolerant || campaign) {
        // Batch mode: independent Systems on a worker pool, one
        // summary line per workload in request order. The detailed
        // single-run reports (capture confirmation, cosim verdict,
        // isolation stats, hottest-region dump) have no column in
        // the summary, so the flags that exist only to feed them
        // are rejected rather than silently burning work.
        if (!cfg.captureTracePath.empty() || cfg.cosim ||
            dump_hottest || cfg.tolOnlyPipe) {
            std::fprintf(stderr,
                         "--capture/--cosim/--isolation/"
                         "--dump-hottest are single-workload "
                         "features\n");
            return 1;
        }
        sim::MetricsOptions options = sim::optionsFromConfig(cfg);
        if (!threshold_set) {
            options.tolConfig.bbToSbThreshold =
                sim::scaledSbThreshold(cfg.guestBudget);
        }
        std::vector<runner::BatchJob> batch;
        for (const std::string &n : names) {
            runner::BatchJob job;
            job.workload = n;
            job.options = options;
            // Same precedence as the single-workload path: a trace's
            // capture recipe supplies the defaults, an explicit
            // --budget/--sb-threshold wins. A budget override
            // changes the functional execution, so the in-file pins
            // no longer apply.
            if (budget_set) {
                job.guestBudgetOverride = cfg.guestBudget;
                job.checkCapturedPins = false;
            }
            if (threshold_set) {
                job.sbThresholdOverride = cfg.tol.bbToSbThreshold;
                job.checkCapturedPins = false;
            }
            batch.push_back(std::move(job));
        }
        runner::BatchConfig config;
        config.workers = jobs;
        config.timeoutMs = timeout_ms;
        config.retries = retries;
        config.cacheDir = cache_dir;
        config.shard = shard;
        config.verifyHitFraction = verify_hits;
        const runner::BatchRunner pool(config);
        std::fprintf(stderr, "running %zu workloads on %u workers\n",
                     batch.size(),
                     pool.effectiveWorkers(batch.size()));

        const std::vector<runner::JobResult> results = pool.run(batch);
        // A dedup follower of a hit was satisfied without simulating
        // too: --require-hits counts it alongside the hits.
        std::set<uint64_t> hit_fingerprints;
        for (const runner::JobResult &r : results) {
            if (r.cacheStatus == runner::CacheStatus::Hit)
                hit_fingerprints.insert(r.fingerprint);
        }

        bool all_ok = true;
        size_t hits = 0, misses = 0, bypasses = 0, executed = 0;
        size_t deduped_hits = 0;
        std::printf("%-24s %-10s %12s %12s %7s %6s %7s\n", "workload",
                    "suite", "guest insts", "cycles", "IPC", "halt",
                    "cache");
        for (const runner::JobResult &r : results) {
            // Out-of-shard slots belong to another runner of the
            // same campaign: no line, no exit-code influence.
            if (r.skipped)
                continue;
            ++executed;
            const char *cache_col = "-";
            switch (r.cacheStatus) {
              case runner::CacheStatus::Hit:
                ++hits;
                cache_col = r.verifiedHit ? "hit+v" : "hit";
                break;
              case runner::CacheStatus::Miss:
                ++misses;
                cache_col = "miss";
                break;
              case runner::CacheStatus::Bypass:
                ++bypasses;
                cache_col = "bypass";
                break;
              case runner::CacheStatus::None:
                if (r.deduped) {
                    cache_col = "dedup";
                    deduped_hits += hit_fingerprints.count(r.fingerprint);
                }
                break;
            }
            if (!r.ok) {
                // One classified line per failure: class, whether a
                // retry could help, attempts spent, and the detail —
                // and a non-zero exit below, so a campaign script
                // cannot mistake a half-failed sweep for a clean one.
                all_ok = false;
                std::printf("%-24s FAILED %s (%s, %u attempt%s): %s\n",
                            r.name.empty() ? r.uri.c_str()
                                           : r.name.c_str(),
                            r.runError.name(),
                            r.runError.transient() ? "transient"
                                                   : "permanent",
                            r.attempts, r.attempts == 1 ? "" : "s",
                            r.runError.context.c_str());
                continue;
            }
            const double cycles = std::max(
                1.0, static_cast<double>(r.snapshot.result.cycles));
            std::printf("%-24s %-10s %12llu %12llu %7.3f %6s %7s\n",
                        r.name.c_str(), r.suite.c_str(),
                        static_cast<unsigned long long>(
                            r.snapshot.result.guestRetired),
                        static_cast<unsigned long long>(
                            r.snapshot.result.cycles),
                        static_cast<double>(
                            r.snapshot.result.guestRetired) / cycles,
                        r.snapshot.result.halted ? "yes" : "no",
                        cache_col);
        }
        if (!cache_dir.empty()) {
            const size_t looked_up = hits + misses;
            std::printf("cache: %zu hit%s, %zu miss%s, %zu bypass "
                        "(hit rate %.1f%%)\n",
                        hits, hits == 1 ? "" : "s", misses,
                        misses == 1 ? "" : "es", bypasses,
                        looked_up
                            ? 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(looked_up)
                            : 0.0);
            const size_t satisfied = hits + deduped_hits;
            if (require_hits && satisfied != executed) {
                std::fprintf(stderr,
                             "--require-hits: %zu of %zu executed "
                             "workload(s) were not cache hits\n",
                             executed - satisfied, executed);
                all_ok = false;
            }
        }
        return all_ok ? 0 : 1;
    }

    const std::string &name = names.front();
    const workloads::Workload workload =
        workloads::resolveWorkload(name);
    if (workload.capturedMeta) {
        // Trace replay: the capture-time recipe applies unless the
        // command line explicitly overrides a field.
        const uint64_t user_budget = cfg.guestBudget;
        const uint32_t user_threshold = cfg.tol.bbToSbThreshold;
        sim::applyCaptureRecipe(cfg, workload);
        if (budget_set)
            cfg.guestBudget = user_budget;
        if (threshold_set)
            cfg.tol.bbToSbThreshold = user_threshold;
        else
            threshold_set = true;  // the recipe supplied it
    }
    if (!threshold_set) {
        cfg.tol.bbToSbThreshold =
            sim::scaledSbThreshold(cfg.guestBudget);
    }

    sim::System sys(cfg);
    sys.load(workload);
    const sim::SystemResult res = sys.run();

    const tol::TolStats &ts = sys.tolStats();
    const timing::PipeStats &ps = sys.combinedStats();
    const double cycles = std::max(1.0, static_cast<double>(ps.cycles));

    std::printf("== %s (%s) ==\n", workload.name.c_str(),
                workload.suite.c_str());
    if (!cfg.captureTracePath.empty()) {
        std::printf("captured     %s (replay with "
                    "source://trace/%s)\n",
                    cfg.captureTracePath.c_str(),
                    cfg.captureTracePath.c_str());
    }
    std::printf("guest insts  %-12llu halted %-5s cycles %llu "
                "(guest IPC %.3f)\n",
                static_cast<unsigned long long>(res.guestRetired),
                res.halted ? "yes" : "no",
                static_cast<unsigned long long>(res.cycles),
                static_cast<double>(res.guestRetired) / cycles);
    std::printf("modes        IM %llu / BBM %llu / SBM %llu dynamic; "
                "static %zu insts\n",
                static_cast<unsigned long long>(ts.dynIm),
                static_cast<unsigned long long>(ts.dynBbm),
                static_cast<unsigned long long>(ts.dynSbm),
                ts.staticMode.size());
    std::printf("translation  %llu BBs, %llu SBs, %llu chains, "
                "%llu flushes\n",
                static_cast<unsigned long long>(ts.bbsTranslated),
                static_cast<unsigned long long>(ts.sbsCreated),
                static_cast<unsigned long long>(ts.chainsPatched),
                static_cast<unsigned long long>(ts.codeCacheFlushes));
    std::printf("indirects    %llu executed, %llu IBTC misses, "
                "%llu map lookups\n",
                static_cast<unsigned long long>(ts.guestIndirectBranches),
                static_cast<unsigned long long>(ts.ibtcMisses),
                static_cast<unsigned long long>(ts.mapLookups));
    std::printf("time split   app %.1f%% / TOL %.1f%%\n",
                100.0 * ps.appCycles() / cycles,
                100.0 * ps.tolCycles() / cycles);
    std::printf("caches       L1D miss %.2f%%  L1I miss %.2f%%  "
                "L2 miss %.2f%%  BP mispredict %.2f%%\n",
                100.0 * ps.l1d.missRate(), 100.0 * ps.l1i.missRate(),
                100.0 * ps.l2.missRate(), 100.0 * ps.bp.mispredictRate());
    std::printf("bubbles      D$ %.1f%%  I$ %.1f%%  branch %.1f%%  "
                "sched %.1f%%\n",
                100.0 * ps.bucketTotal(timing::Bucket::DcacheBubble) /
                    cycles,
                100.0 * ps.bucketTotal(timing::Bucket::IcacheBubble) /
                    cycles,
                100.0 * ps.bucketTotal(timing::Bucket::BranchBubble) /
                    cycles,
                100.0 * ps.bucketTotal(timing::Bucket::SchedBubble) /
                    cycles);
    if (cfg.cosim) {
        std::printf("cosim        %llu commits checked: %s\n",
                    static_cast<unsigned long long>(
                        sys.checker()->commits()),
                    res.memoryDiff.empty() && sys.checker()->failures()
                                                  .empty()
                        ? "OK"
                        : "MISMATCH");
    }
    if (sys.tolModuleStats()) {
        const timing::PipeStats *tp = sys.tolModuleStats();
        std::printf("TOL isolated IPC %.2f  D$ %.2f%%  I$ %.2f%%  "
                    "BP %.2f%%\n",
                    tp->ipc(), 100.0 * tp->l1d.missRate(),
                    100.0 * tp->l1i.missRate(),
                    100.0 * tp->bp.mispredictRate());
    }

    if (dump_hottest) {
        // Walk the code cache for the most-executed region.
        host::CodeRegion *hottest = nullptr;
        for (uint32_t pc = host::amap::kCodeCacheBase;
             pc < host::amap::kCodeCacheLimit;) {
            host::CodeRegion *region =
                sys.tolRuntime().codeStore().find(pc);
            if (!region)
                break;
            if (!hottest || region->execCount > hottest->execCount)
                hottest = region;
            pc = region->hostLimit() + 16;
        }
        if (hottest) {
            std::printf("\nhottest region (executed %u times):\n%s",
                        hottest->execCount,
                        host::disassembleRegion(*hottest).c_str());
        }
    }
    return 0;
}
