#include "sim/metrics.hh"

#include <sstream>
#include <type_traits>

#include "common/logging.hh"
#include "timing/pipeline.hh"
#include "tol/stats.hh"

namespace darco::sim {

SimConfig
configFromOptions(const MetricsOptions &options)
{
    SimConfig cfg;
    cfg.tol = options.tolConfig;
    cfg.timing = options.timingConfig;
    cfg.guestBudget = options.guestBudget;
    cfg.cosim = false;
    for (const IsolationPipe &pipe : kIsolationPipes)
        cfg.*pipe.simFlag = options.*pipe.optionFlag;
    cfg.profile = options.profile;
    cfg.captureTracePath = options.captureTracePath;
    cfg.cancel = options.cancel;
    return cfg;
}

RunSnapshot
snapshotFromSystem(const System &sys, const SystemResult &res)
{
    RunSnapshot snap;
    snap.result = res;
    snap.stats = sys.combinedStats();
    snap.tolStats = sys.tolStats();
    for (const IsolationPipe &pipe : kIsolationPipes) {
        if (const timing::PipeStats *ps = sys.isolationStats(pipe.filter))
            snap.*pipe.stats = *ps;
    }
    if (const profile::Collector *pc = sys.profileCollector())
        snap.profile = pc->profile();
    snap.timingCore = sys.timingCore();
    return snap;
}

PipeMask
pipeMask(const MetricsOptions &options)
{
    PipeMask pipes = 0;
    for (size_t i = 0; i < kIsolationPipes.size(); ++i)
        pipes |= PipeMask{options.*kIsolationPipes[i].optionFlag} << i;
    return pipes;
}

void
setPipeMask(MetricsOptions &options, PipeMask pipes)
{
    for (size_t i = 0; i < kIsolationPipes.size(); ++i)
        options.*kIsolationPipes[i].optionFlag = (pipes >> i) & 1;
}

void
projectPipes(RunSnapshot &snap, PipeMask keep)
{
    for (size_t i = 0; i < kIsolationPipes.size(); ++i) {
        if (!((keep >> i) & 1))
            (snap.*kIsolationPipes[i].stats).reset();
    }
}

BenchMetrics
collectMetrics(const RunSnapshot &snap, const std::string &name,
               const std::string &suite)
{
    BenchMetrics m;
    m.name = name;
    m.suite = suite;
    m.guestRetired = snap.result.guestRetired;
    m.cycles = snap.result.cycles;

    const tol::TolStats &ts = snap.tolStats;
    m.staticIm = ts.staticIm;
    m.staticBbm = ts.staticBbm;
    m.staticSbm = ts.staticSbm;
    m.dynIm = ts.dynIm;
    m.dynBbm = ts.dynBbm;
    m.dynSbm = ts.dynSbm;
    m.sbInvocations = ts.sbsCreated;
    m.guestIndirect = ts.guestIndirectBranches;
    m.dynStaticRatio = m.staticTotal()
        ? static_cast<double>(m.dynTotal()) /
          static_cast<double>(m.staticTotal())
        : 0;

    const timing::PipeStats &ps = snap.stats;
    m.tolCycles = ps.tolCycles();
    m.appCycles = ps.appCycles();
    for (unsigned mod = 0; mod < timing::kNumModules; ++mod) {
        m.moduleCycles[mod] =
            ps.moduleCycles(static_cast<timing::Module>(mod));
    }
    // Fractions are derived from the exact integer units with one
    // division each: summing the per-cell doubles first would round
    // at every cell for issue widths whose fixed-point denominator
    // is not a power of two (docs/timing-model.md §4).
    const double total_units = static_cast<double>(ps.cycles) *
                               static_cast<double>(ps.unitDenom);
    for (unsigned b = 0; b < timing::kNumBuckets; ++b) {
        const uint64_t app = ps.bucketUnits[b][0];
        uint64_t tol_side = 0;
        for (unsigned mod = 1; mod < timing::kNumModules; ++mod)
            tol_side += ps.bucketUnits[b][mod];
        m.bucketFrac[b][0] = total_units > 0
            ? static_cast<double>(app) / total_units : 0;
        m.bucketFrac[b][1] = total_units > 0
            ? static_cast<double>(tol_side) / total_units : 0;
        for (unsigned src = 0; src < 2; ++src) {
            m.bucketSrc[b][src] =
                static_cast<double>(ps.bucketSrcUnits[b][src]) /
                static_cast<double>(ps.unitDenom);
        }
    }

    if (snap.tolOnly) {
        m.tolOnlyCycles = snap.tolOnly->cycles;
        for (unsigned b = 0; b < timing::kNumBuckets; ++b) {
            m.tolOnlyBucket[b] = snap.tolOnly->bucketTotal(
                static_cast<timing::Bucket>(b));
        }
    }
    // Figure 8 characteristics come from the module-filtered TOL
    // instance (includes profiling instrumentation).
    if (snap.tolModule) {
        m.tolIpc = snap.tolModule->ipc();
        m.tolDmissRate = snap.tolModule->l1d.missRate();
        m.tolImissRate = snap.tolModule->l1i.missRate();
        m.tolBpMissRate = snap.tolModule->bp.mispredictRate();
    }
    if (snap.appOnly) {
        m.appOnlyCycles = snap.appOnly->cycles;
        for (unsigned b = 0; b < timing::kNumBuckets; ++b) {
            m.appOnlyBucket[b] = snap.appOnly->bucketTotal(
                static_cast<timing::Bucket>(b));
        }
    }
    return m;
}

RunSnapshot
snapshotRun(const workloads::Workload &workload,
            const MetricsOptions &options)
{
    MetricsOptions effective = options;
    applyCaptureRecipe(effective, workload);

    System sys(configFromOptions(effective));
    sys.load(workload);
    const SystemResult res = sys.run();
    return snapshotFromSystem(sys, res);
}

std::string
diffRunSnapshots(const RunSnapshot &a, const RunSnapshot &b)
{
    std::string diff;
    auto field = [&](const char *what, uint64_t va, uint64_t vb) {
        if (va != vb) {
            diff += strprintf("%s: %llu != %llu\n", what,
                              static_cast<unsigned long long>(va),
                              static_cast<unsigned long long>(vb));
        }
    };
    field("guest_retired", a.result.guestRetired, b.result.guestRetired);
    field("halted", a.result.halted, b.result.halted);
    field("sim_cycles", a.result.cycles, b.result.cycles);
    if (a.timingCore != b.timingCore) {
        diff += strprintf("timing_core: %s != %s\n", a.timingCore.c_str(),
                          b.timingCore.c_str());
    }
    diff += timing::diffStats(a.stats, b.stats);
    auto pipe = [&](const char *what,
                    const std::optional<timing::PipeStats> &pa,
                    const std::optional<timing::PipeStats> &pb) {
        if (pa.has_value() != pb.has_value()) {
            diff += strprintf("%s presence differs\n", what);
        } else if (pa) {
            // Labelled, so a tol_only cycle mismatch does not read
            // like a combined-pipe one.
            std::istringstream lines(timing::diffStats(*pa, *pb));
            for (std::string line; std::getline(lines, line);)
                diff += strprintf("%s %s\n", what, line.c_str());
        }
    };
    for (const IsolationPipe &p : kIsolationPipes)
        pipe(p.key, a.*p.stats, b.*p.stats);
    diff += tol::diffTolStats(a.tolStats, b.tolStats);
    if (a.profile.has_value() != b.profile.has_value())
        diff += "profile presence differs\n";
    else if (a.profile)
        diff += profile::diffProfiles(*a.profile, *b.profile);
    return diff;
}

BenchMetrics
averageMetrics(const std::vector<BenchMetrics> &all,
               const std::string &label)
{
    panic_if(all.empty(), "averageMetrics over empty set");
    BenchMetrics avg;
    for (const BenchMetrics &m : all) {
        fields::forEachLeafPair(avg, m, [](auto &sum, const auto &x) {
            sum += x;
        });
    }
    const double n = static_cast<double>(all.size());
    fields::forEachLeaf(avg, [n](auto &sum) {
        using T = std::remove_reference_t<decltype(sum)>;
        static_assert(std::is_same_v<T, double> ||
                      std::is_same_v<T, uint64_t>);
        if constexpr (std::is_same_v<T, double>)
            sum /= n;
        else  // rounded half up
            sum = static_cast<uint64_t>(static_cast<double>(sum) / n +
                                        0.5);
    });
    avg.name = label;
    avg.suite = label;
    return avg;
}

} // namespace darco::sim
