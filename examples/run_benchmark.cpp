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
 *
 * It runs one workload. Sweeps over several workloads (worker pool,
 * result cache, shards) are the figure benches' job: each takes a
 * repeatable --benchmark= (bench/bench_util.hh).
 */

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/parse.hh"
#include "host/disasm.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "workloads/source.hh"

using namespace darco;

namespace {

/** Usage on @p out: stdout for --help, stderr beside an error. */
void
usage(FILE *out)
{
    std::fprintf(out,
        "usage: run_benchmark <name-or-uri> [options]\n"
        "       run_benchmark --list\n"
        "workload: a synthetic benchmark name, or a source URI\n"
        "  (source://synthetic/<name>, source://trace/<file>);\n"
        "  trace workloads replay their capture-time recipe unless\n"
        "  --budget/--sb-threshold override it\n"
        "options:\n"
        "  --budget=N        guest instructions (default 2000000)\n"
        "  --sb-threshold=N  BB->SB threshold (default: budget-scaled)\n"
        "  --capture=PATH    snapshot the run to a replayable trace\n"
        "  --cosim           verify against the authoritative emulator\n"
        "  --no-chaining --no-ibtc --no-bbm-opts --no-sbm-opts\n"
        "  --no-scheduling --ibtc-2way --sb-partition --no-prefetcher\n"
        "  --isolation       also run TOL-only/APP-only instances\n"
        "  --dump-hottest    disassemble the most-executed region\n"
        "several workloads: run a figure bench with repeated\n"
        "--benchmark= (bench/bench_util.hh)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    sim::MetricsOptions options;
    bool cosim = false;
    bool dump_hottest = false;
    bool threshold_set = false;
    bool budget_set = false;

    // Numeric flags parse strictly: a malformed value prints why and
    // exits 1, like any other bad argument.
    auto number = [](const std::string &arg, size_t prefix, auto &out) {
        using T = std::remove_reference_t<decltype(out)>;
        const std::optional<T> n =
            common::parseUnsigned<T>(std::string_view(arg).substr(prefix));
        if (!n) {
            std::fprintf(stderr, "%s: expected an unsigned integer\n",
                         arg.c_str());
            return false;
        }
        out = *n;
        return true;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            for (const std::string &uri : workloads::listWorkloadUris())
                std::printf("%s\n", uri.c_str());
            return 0;
        } else if (arg.rfind("--budget=", 0) == 0) {
            if (!number(arg, 9, options.guestBudget))
                return 1;
            budget_set = true;
        } else if (arg.rfind("--capture=", 0) == 0) {
            options.captureTracePath = arg.substr(10);
        } else if (arg.rfind("--sb-threshold=", 0) == 0) {
            if (!number(arg, 15, options.tolConfig.bbToSbThreshold))
                return 1;
            threshold_set = true;
        } else if (arg == "--cosim") {
            cosim = true;
        } else if (arg == "--no-chaining") {
            options.tolConfig.enableChaining = false;
        } else if (arg == "--no-ibtc") {
            options.tolConfig.enableIbtc = false;
        } else if (arg == "--no-bbm-opts") {
            options.tolConfig.enableBbmOpts = false;
        } else if (arg == "--no-sbm-opts") {
            options.tolConfig.enableSbmOpts = false;
        } else if (arg == "--no-scheduling") {
            options.tolConfig.enableScheduling = false;
        } else if (arg == "--ibtc-2way") {
            options.tolConfig.ibtcWays = 2;
        } else if (arg == "--sb-partition") {
            options.tolConfig.sbPartitionPercent = 50;
        } else if (arg == "--no-prefetcher") {
            options.timingConfig.prefetcherEnabled = false;
        } else if (arg == "--isolation") {
            sim::setPipeMask(options, sim::kAllPipes);
        } else if (arg == "--dump-hottest") {
            dump_hottest = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] != '-') {
            if (!name.empty()) {
                std::fprintf(stderr, "one workload per run (got '%s' "
                             "and '%s'); a figure bench with repeated "
                             "--benchmark= runs several\n",
                             name.c_str(), arg.c_str());
                return 1;
            }
            name = arg;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(stderr);
            return 1;
        }
    }

    if (name.empty()) {
        usage(stderr);
        return 1;
    }
    if (!workloads::isSourceUri(name) && !workloads::findBenchmark(name)) {
        std::fprintf(stderr, "unknown benchmark '%s' (see --list)\n",
                     name.c_str());
        return 1;
    }

    const workloads::Workload workload =
        workloads::resolveWorkload(name);
    if (workload.capturedMeta) {
        // Trace replay: the capture-time recipe applies unless the
        // command line explicitly overrides a field.
        const uint64_t user_budget = options.guestBudget;
        const uint32_t user_threshold = options.tolConfig.bbToSbThreshold;
        sim::applyCaptureRecipe(options, workload);
        if (budget_set)
            options.guestBudget = user_budget;
        if (threshold_set)
            options.tolConfig.bbToSbThreshold = user_threshold;
        else
            threshold_set = true;  // the recipe supplied it
    }
    if (!threshold_set) {
        options.tolConfig.bbToSbThreshold =
            sim::scaledSbThreshold(options.guestBudget);
    }

    // A live System rather than sim::snapshotRun: the report reads
    // the cosim checker and the code cache after the run.
    sim::SimConfig cfg = sim::configFromOptions(options);
    cfg.cosim = cosim;
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
                "static %llu insts\n",
                static_cast<unsigned long long>(ts.dynIm),
                static_cast<unsigned long long>(ts.dynBbm),
                static_cast<unsigned long long>(ts.dynSbm),
                static_cast<unsigned long long>(ts.staticTotal()));
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
    if (const timing::PipeStats *tp = sys.isolationStats(
            timing::Pipeline::Filter::TolModule)) {
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
