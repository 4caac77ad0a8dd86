/**
 * @file
 * Branch-behavior profiles (the characterization layer's control-flow
 * axis): per-static-branch taken/not-taken counts, direction
 * transition rate, per-site and execution-weighted branch entropy,
 * and mispredict attribution.
 *
 * Mispredicts are attributed with a *replica* of the timing model's
 * own Gshare+BTB predictor (timing/branch_predictor.hh) fed the same
 * branch records in the same stream order the pipeline fetches them —
 * the engine is deterministic, so the replica's outcomes are
 * bit-identical to the combined pipeline's BpStats (asserted by
 * tests/test_profile.cc). This keeps the pipeline hot path untouched
 * when profiling is on, at the cost of one redundant predictor.
 */

#ifndef DARCO_PROFILE_BRANCH_HH
#define DARCO_PROFILE_BRANCH_HH

#include <cmath>
#include <cstdint>
#include <map>

#include "timing/branch_predictor.hh"
#include "timing/record.hh"

namespace darco::profile {

/** Dynamic behavior of one static branch site (host PC). */
struct BranchSite
{
    uint64_t taken = 0;
    uint64_t notTaken = 0;
    /** Direction changes between consecutive executions. */
    uint64_t transitions = 0;
    /** Wrong predictions attributed to this site (replica outcome). */
    uint64_t mispredicts = 0;
    bool isCond = false;
    bool isIndirect = false;

    uint64_t execs() const { return taken + notTaken; }

    /** Taken fraction (0 when never executed). */
    double
    takenRate() const
    {
        const uint64_t n = execs();
        return n ? static_cast<double>(taken) /
                   static_cast<double>(n)
                 : 0.0;
    }

    /**
     * Binary direction entropy in bits: 0 for a perfectly biased
     * site, 1 for an unbiased one. Exact at the extremes (p in
     * {0, 1/2, 1} hits 0.0 / 1.0 / 0.0 bit-for-bit), which the
     * closed-form tests assert.
     */
    double
    entropy() const
    {
        const double p = takenRate();
        if (p <= 0.0 || p >= 1.0)
            return 0.0;
        if (p == 0.5)
            return 1.0;
        return -p * std::log2(p) - (1 - p) * std::log2(1 - p);
    }

    /** transitions / (execs - 1): 1.0 = perfectly alternating. */
    double
    transitionRate() const
    {
        const uint64_t n = execs();
        return n > 1 ? static_cast<double>(transitions) /
                       static_cast<double>(n - 1)
                     : 0.0;
    }

    bool
    operator==(const BranchSite &other) const
    {
        return taken == other.taken && notTaken == other.notTaken &&
               transitions == other.transitions &&
               mispredicts == other.mispredicts &&
               isCond == other.isCond &&
               isIndirect == other.isIndirect;
    }
};

/** The whole run's branch profile (docs/metrics.md §5). */
struct BranchProfile
{
    /** Static site map, keyed by host branch PC. Ordered so
     *  iteration, serialization and equality are deterministic. */
    std::map<uint32_t, BranchSite> sites;

    // Dynamic aggregates (redundant with the site map; kept so
    // consumers need no reduction pass).
    uint64_t dynBranches = 0;       ///< every control transfer
    uint64_t dynCondBranches = 0;   ///< conditional subset
    uint64_t mispredicts = 0;       ///< replica-predictor total

    /** Conditional static sites executed at least once. */
    uint64_t
    staticCondSites() const
    {
        uint64_t n = 0;
        for (const auto &[pc, site] : sites)
            n += site.isCond && site.execs() ? 1 : 0;
        return n;
    }

    /**
     * Execution-weighted mean direction entropy over conditional
     * branches, in bits: sum(execs * entropy) / sum(execs). The
     * paper-style "how predictable is this workload's control flow"
     * scalar.
     */
    double
    weightedEntropy() const
    {
        double weighted = 0;
        uint64_t total = 0;
        for (const auto &[pc, site] : sites) {
            if (!site.isCond || !site.execs())
                continue;
            weighted += static_cast<double>(site.execs()) *
                        site.entropy();
            total += site.execs();
        }
        return total ? weighted / static_cast<double>(total) : 0.0;
    }

    /**
     * Aggregate transition rate over conditional branches:
     * total transitions / total (execs - 1). Exactly 1.0 for a
     * perfectly alternating workload, 0.0 for a fully biased one.
     */
    double
    transitionRate() const
    {
        uint64_t transitions = 0;
        uint64_t denom = 0;
        for (const auto &[pc, site] : sites) {
            if (!site.isCond || site.execs() < 2)
                continue;
            transitions += site.transitions;
            denom += site.execs() - 1;
        }
        return denom ? static_cast<double>(transitions) /
                       static_cast<double>(denom)
                     : 0.0;
    }

    /** Replica-predictor mispredict fraction of all transfers. */
    double
    mispredictRate() const
    {
        return dynBranches ? static_cast<double>(mispredicts) /
                             static_cast<double>(dynBranches)
                           : 0.0;
    }

    bool
    operator==(const BranchProfile &other) const
    {
        return sites == other.sites &&
               dynBranches == other.dynBranches &&
               dynCondBranches == other.dynCondBranches &&
               mispredicts == other.mispredicts;
    }
};

/** Online collector: feed branch records in stream order. */
class BranchCollector
{
  public:
    explicit BranchCollector(const timing::TimingConfig &config)
        : cfg(config), predictor(cfg)
    {}

    /** Record one executed control transfer (rec.isBranch). */
    void
    branch(const timing::Record &rec)
    {
        BranchSite &site = prof.sites[rec.pc];
        site.isCond = rec.isCondBranch;
        site.isIndirect = rec.isIndirect;
        if (rec.isCondBranch && site.execs() &&
            lastTaken[rec.pc] != rec.taken) {
            ++site.transitions;
        }
        lastTaken[rec.pc] = rec.taken;
        if (rec.taken)
            ++site.taken;
        else
            ++site.notTaken;
        ++prof.dynBranches;
        prof.dynCondBranches += rec.isCondBranch ? 1 : 0;
        const bool right = predictor.predict(
            rec.pc, rec.taken, rec.branchTarget, rec.isCondBranch,
            rec.isIndirect);
        if (!right) {
            ++site.mispredicts;
            ++prof.mispredicts;
        }
    }

    const BranchProfile &profile() const { return prof; }

  private:
    /** Own the config: BranchPredictor keeps a reference to it. */
    timing::TimingConfig cfg;
    timing::BranchPredictor predictor;
    BranchProfile prof;
    /** Previous direction per site (collector state, not profile). */
    std::map<uint32_t, bool> lastTaken;
};

} // namespace darco::profile

#endif // DARCO_PROFILE_BRANCH_HH
