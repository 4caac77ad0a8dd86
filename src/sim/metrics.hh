/**
 * @file
 * Per-benchmark metric collection: everything Figures 5-11 need from
 * one simulation (plus the isolated-pipeline quantities for the
 * interaction study).
 */

#ifndef DARCO_SIM_METRICS_HH
#define DARCO_SIM_METRICS_HH

#include <optional>
#include <string>

#include "common/fields.hh"
#include "profile/profile.hh"
#include "sim/system.hh"
#include "workloads/params.hh"
#include "workloads/source.hh"

namespace darco::sim {

struct BenchMetrics
{
    std::string name;
    std::string suite;

    uint64_t guestRetired = 0;
    bool halted = false;
    uint64_t cycles = 0;

    // ----- Figure 5: code distribution ---------------------------------
    uint64_t staticIm = 0, staticBbm = 0, staticSbm = 0;
    uint64_t dynIm = 0, dynBbm = 0, dynSbm = 0;

    // ----- Figure 6: execution-time breakdown -----------------------------
    double tolCycles = 0, appCycles = 0;
    double dynStaticRatio = 0;
    uint64_t sbInvocations = 0;

    // ----- Figure 7: TOL module breakdown ---------------------------------
    /** Cycles per module (index = timing::Module). */
    double moduleCycles[timing::kNumModules] = {};
    uint64_t guestIndirect = 0;

    // ----- Figure 8: TOL performance (TOL-only pipeline) -----------------
    bool haveTolOnly = false;
    double tolIpc = 0;
    double tolDmissRate = 0;
    double tolImissRate = 0;
    double tolBpMissRate = 0;

    // ----- Figure 9: bucket breakdown (combined pipeline) ----------------
    /**
     * Fraction of total cycles: [bucket][0=app,1=tol] (by module),
     * derived from the pipeline's exact fixed-point cycle units
     * (PipeStats::bucketUnits) with one division per cell.
     */
    double bucketFrac[timing::kNumBuckets][2] = {};
    /** Cycles by stream source: [bucket][0=TOL software,1=region]. */
    double bucketSrc[timing::kNumBuckets][2] = {};

    // ----- Figures 10/11: interaction ---------------------------------
    bool haveIsolation = false;
    uint64_t tolOnlyCycles = 0;
    uint64_t appOnlyCycles = 0;
    /** Per-bucket cycles in the isolated runs. */
    double tolOnlyBucket[timing::kNumBuckets] = {};
    double appOnlyBucket[timing::kNumBuckets] = {};

    // ----- Characterization profiles (MetricsOptions::profile) -----------
    /** Summary scalars of the RunSnapshot's full RunProfile. */
    bool haveProfile = false;
    uint64_t profDataAccesses = 0;    ///< profiled LD/ST accesses
    uint64_t profDistinctLines = 0;   ///< data footprint in lines
    double profMedianReuse = 0;       ///< median finite reuse distance
    double profBranchEntropy = 0;     ///< weighted bits/branch
    double profTransitionRate = 0;    ///< conditional direction churn
    double profMispredictRate = 0;    ///< replica-predictor rate

    // Derived helpers --------------------------------------------------
    double tolOverheadFrac() const
    {
        const double total = tolCycles + appCycles;
        return total > 0 ? tolCycles / total : 0;
    }

    uint64_t staticTotal() const
    {
        return staticIm + staticBbm + staticSbm;
    }

    uint64_t dynTotal() const { return dynIm + dynBbm + dynSbm; }

    /**
     * Figures 10/11 use the *source-based* split (translated-region
     * stream vs TOL-software stream) so the combined attribution is
     * directly comparable with the isolated instances (see
     * timing/record.hh).
     */
    double
    appSrcCycles() const
    {
        double total = 0;
        for (unsigned b = 0; b < timing::kNumBuckets; ++b)
            total += bucketSrc[b][1];
        return total;
    }
    double
    tolSrcCycles() const
    {
        double total = 0;
        for (unsigned b = 0; b < timing::kNumBuckets; ++b)
            total += bucketSrc[b][0];
        return total;
    }

    /** Figure 10: relative cycles without interaction, per side. */
    double
    relTolWithout() const
    {
        const double with_i = tolSrcCycles();
        return with_i > 0
            ? static_cast<double>(tolOnlyCycles) / with_i : 0;
    }
    double
    relAppWithout() const
    {
        const double with_i = appSrcCycles();
        return with_i > 0
            ? static_cast<double>(appOnlyCycles) / with_i : 0;
    }

    /** Overall interaction degradation, split by side (of total). */
    double
    tolDegradation() const
    {
        return cycles ? (tolSrcCycles() - tolOnlyCycles) /
                        static_cast<double>(cycles) : 0;
    }
    double
    appDegradation() const
    {
        return cycles ? (appSrcCycles() - appOnlyCycles) /
                        static_cast<double>(cycles) : 0;
    }

    /** Figure 11: potential improvement per bucket (of total time). */
    double
    potentialTol(timing::Bucket b) const
    {
        const double with_i = bucketSrc[static_cast<unsigned>(b)][0];
        return cycles
            ? (with_i - tolOnlyBucket[static_cast<unsigned>(b)]) /
              static_cast<double>(cycles)
            : 0;
    }
    double
    potentialApp(timing::Bucket b) const
    {
        const double with_i = bucketSrc[static_cast<unsigned>(b)][1];
        return cycles
            ? (with_i - appOnlyBucket[static_cast<unsigned>(b)]) /
              static_cast<double>(cycles)
            : 0;
    }
};

struct MetricsOptions
{
    uint64_t guestBudget = 2'000'000;
    bool tolOnlyPipe = false;
    bool appOnlyPipe = false;
    /** Module-filtered TOL pipeline for Figure 8 characteristics. */
    bool tolModulePipe = false;
    /** Collect characterization profiles (SimConfig::profile
     *  passthrough; docs/metrics.md §5). */
    bool profile = false;
    /** Optional overrides applied to the default TolConfig. */
    tol::TolConfig tolConfig;
    timing::TimingConfig timingConfig;
    /** When non-empty, snapshot the run to this binary trace file
     *  (SimConfig::captureTracePath passthrough; docs/traces.md).
     *  A capture is a single run (snapshotRun): runner::BatchRunner
     *  rejects a job that sets it. */
    std::string captureTracePath;
    /** Cooperative cancellation (SimConfig::cancel passthrough;
     *  nullptr = never cancelled). Runtime wiring, not a determinism
     *  input — excluded from result-cache fingerprints. */
    const common::CancelToken *cancel = nullptr;

    /**
     * The experiment-defining fields, in declaration order:
     * configFingerprint dumps them (the two configs flattened into
     * their own fields).
     */
    template <class Self, class Visit>
    static constexpr void
    forEachField(Self &self, Visit &&visit)
    {
        visit("guestBudget", self.guestBudget);
        visit("tolOnlyPipe", self.tolOnlyPipe);
        visit("appOnlyPipe", self.appOnlyPipe);
        visit("tolModulePipe", self.tolModulePipe);
        visit("profile", self.profile);
        visit("tolConfig", self.tolConfig);
        visit("timingConfig", self.timingConfig);
    }
};
// Two members are deliberately unlisted, so no cache key depends on
// them. captureTracePath names an output file: a capture run writes
// a trace but simulates the same experiment (and the runner, the only
// user of cache keys, rejects capture jobs). cancel is runtime wiring.
static_assert(fields::listsEveryMember<MetricsOptions>(2));

/**
 * Budget-scaled BB->SB promotion threshold.
 *
 * The paper simulates 4B guest instructions with BB/SBth = 10000.
 * Reproduction runs are shorter; keeping the absolute threshold would
 * shift the entire transitional/steady-state balance (Fig 5b's ~97%
 * SBM share needs hot code to spend most of the run promoted). We
 * scale the threshold linearly with the budget and clamp it to
 * [300, 10000], so it reproduces the paper's value exactly at the
 * paper's budget while keeping the IM->BBM->SBM staging meaningful at
 * laptop-scale budgets. See docs/deviations.md §1.
 */
inline uint32_t
scaledSbThreshold(uint64_t guest_budget)
{
    const uint64_t linear = guest_budget / 400000;  // 10000 at 4B
    if (linear < 300)
        return 300;
    if (linear > 10000)
        return 10000;
    return static_cast<uint32_t>(linear);
}

/**
 * Re-apply a trace workload's capture-time recipe (budget +
 * promotion thresholds) so a replay reproduces the captured
 * functional execution bit-identically; no-op for workloads that
 * did not come from a trace. The single point of truth for which
 * TraceMeta fields constitute the recipe: snapshotRun and
 * runner::BatchRunner both go through it, so a recipe field added in
 * a future trace minor version is applied everywhere at once. The
 * host microarchitecture is deliberately untouched: traces exist to
 * compare one workload across timing configs (docs/traces.md §4).
 */
inline void
applyCaptureRecipe(MetricsOptions &options,
                   const workloads::Workload &workload)
{
    if (!workload.capturedMeta)
        return;
    options.guestBudget = workload.capturedMeta->guestBudget;
    options.tolConfig.imToBbThreshold =
        workload.capturedMeta->imToBbThreshold;
    options.tolConfig.bbToSbThreshold =
        workload.capturedMeta->bbToSbThreshold;
}

/**
 * The one MetricsOptions -> SimConfig translation: snapshotRun,
 * runner::BatchRunner and the callers that need a live System build
 * their SimConfig here, so they cannot diverge on which options take
 * effect. The result never co-simulates; a caller that wants cosim
 * sets it on the returned config.
 */
SimConfig configFromOptions(const MetricsOptions &options);

/**
 * Raw outcome of one run: the result plus full stats snapshots.
 * This is the round-trip gates' currency (tests/
 * test_trace_roundtrip.cc, GoldenDigests): everything
 * needed to prove two runs bit-identical (diffRunSnapshots below)
 * — and, since every figure metric is a pure
 * function of it (collectMetrics below), everything the result cache
 * needs to reconstruct a completed job without re-running it
 * (runner/result_cache.hh).
 */
struct RunSnapshot
{
    SystemResult result;
    timing::PipeStats stats;
    tol::TolStats tolStats;
    /** Isolated/filtered pipeline instances, when enabled (Figures
     *  8/10/11); absent otherwise. */
    std::optional<timing::PipeStats> tolOnly;
    std::optional<timing::PipeStats> appOnly;
    std::optional<timing::PipeStats> tolModule;
    /** Characterization profile, when MetricsOptions::profile was on
     *  (docs/metrics.md §5); compared with profile::diffProfiles. */
    std::optional<profile::RunProfile> profile;
    /** Core that advanced simulated time ("event" / "reference"),
     *  same encoding as trace::TracePins::timingCore. */
    std::string timingCore;
};

/** Snapshot everything a finished System run measured. */
RunSnapshot snapshotFromSystem(const System &sys,
                               const SystemResult &res);

/**
 * Derive the full figure-metrics record from a run snapshot. A pure
 * function of the snapshot — no live System required — so a job
 * satisfied from the result cache yields bit-identical metrics to
 * the run that produced the snapshot.
 */
BenchMetrics collectMetrics(const RunSnapshot &snap,
                            const std::string &name,
                            const std::string &suite);

/**
 * The one single-run path: one System run of @p workload under the
 * default configuration plus @p options overrides and the workload's
 * capture recipe (when it has one); @p options.captureTracePath
 * captures as usual. collectMetrics turns the snapshot into figure
 * metrics.
 */
RunSnapshot snapshotRun(const workloads::Workload &workload,
                        const MetricsOptions &options);

/**
 * Full bit-identity comparison of two snapshots, one line per
 * divergence (empty = identical): the run results, the timing core,
 * the combined and every isolation pipe's stats (timing::diffStats),
 * the TOL stats (tol::diffTolStats) and the profile
 * (profile::diffProfiles). The currency of verify-hits and of the
 * parallel-vs-serial, cache and isolation gates.
 */
std::string diffRunSnapshots(const RunSnapshot &a, const RunSnapshot &b);

/** Average metrics over a set (arithmetic mean of fractions). */
BenchMetrics averageMetrics(const std::vector<BenchMetrics> &all,
                            const std::string &label);

} // namespace darco::sim

#endif // DARCO_SIM_METRICS_HH
