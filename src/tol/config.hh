/**
 * @file
 * TOL configuration: promotion thresholds, structure sizes, feature
 * toggles, and the cost model's per-activity host-instruction
 * parameters. Defaults follow the paper (§III-A): IM/BBth = 5,
 * BB/SBth = 10000. Cost parameters are exposed so the ablation
 * benches can study their effect.
 */

#ifndef DARCO_TOL_CONFIG_HH
#define DARCO_TOL_CONFIG_HH

#include <cstdint>

#include "common/fields.hh"

namespace darco::tol {

struct TolConfig
{
    // ----- promotion thresholds (paper §III-A) ------------------------
    /** Interpreter executions of a branch target before BB translation. */
    uint32_t imToBbThreshold = 5;
    /** BB executions before superblock formation + optimization. */
    uint32_t bbToSbThreshold = 10000;

    // ----- region formation ----------------------------------------------
    uint32_t maxBbGuestInsts = 32;
    uint32_t maxSbGuestInsts = 64;
    /** Minimum branch bias to extend a superblock across a branch. */
    double sbBranchBias = 0.6;
    /** Minimum profile samples before trusting a branch bias. */
    uint32_t sbMinEdgeSamples = 16;
    /** Follow direct calls during trace formation. */
    bool sbFollowCalls = true;

    // ----- features -----------------------------------------------------
    bool enableChaining = true;
    bool enableIbtc = true;
    /** Run the BBM "simple optimizations" (constprop + DCE, §III-A). */
    bool enableBbmOpts = true;
    /** Run the full SBM pass pipeline. */
    bool enableSbmOpts = true;
    /** Run the instruction scheduler in SBM. */
    bool enableScheduling = true;
    /**
     * Run the static IR/regalloc verifier (src/analysis/verify.hh)
     * after every translation pass. Pure observation: no cost-model
     * charge, no records, so determinism fields are unaffected — only
     * host wall-clock (GoldenDigests runs every engine scenario both
     * ways and requires equal digests). Default-on so every ctest run
     * verifies every translation.
     */
    bool verifyIr = true;

    // ----- structure sizes ------------------------------------------------
    /** IBTC entries (power of two, 8 bytes each). */
    uint32_t ibtcEntries = 512;
    /**
     * IBTC associativity: 1 (direct-mapped, the baseline literature
     * design) or 2 (set-associative with MRU insertion — the §III-E
     * "software enhancement of indirect branches" extension; costs
     * two extra probe instructions on the way-1 path).
     */
    uint32_t ibtcWays = 1;
    /** Translation-map buckets (power of two, 8 bytes each). */
    uint32_t transMapBuckets = 1u << 16;
    /** Code cache capacity in bytes (full flush when exceeded). */
    uint32_t codeCacheBytes = 8u << 20;
    /**
     * Hot/cold code placement (§III-E "code placement in the code
     * cache"): allocate superblocks from a dedicated partition
     * (given as a percentage of the cache) so steady-state hot code
     * is densely packed. 0 disables partitioning.
     */
    uint32_t sbPartitionPercent = 0;

    // ----- cost model (host instructions per unit of real work) --------
    // Interpreter, per guest instruction (plus per-operand context
    // traffic and the real guest-memory access, emitted separately).
    uint32_t imDecodeAlus = 5;
    uint32_t imDispatchOverheadAlus = 2;
    // Translator (BBM), per guest instruction processed.
    uint32_t bbmDecodeAlus = 6;
    uint32_t bbmIrGenAlusPerInst = 4;
    // Optimizer (SBM) per-pass per-IR-inst visit costs.
    uint32_t passVisitAlus = 3;
    uint32_t cseHashAlus = 3;
    uint32_t regallocAlusPerInterval = 6;
    uint32_t schedAlusPerEdge = 2;
    // Code emission per host instruction produced.
    uint32_t emitAlusPerInst = 2;
    // Runtime services.
    uint32_t lookupHashAlus = 3;
    uint32_t chainPatchAlus = 4;
    uint32_t ibtcFillAlus = 3;

    /**
     * The field list, in declaration order; configFingerprint dumps
     * it as "key=value;" pairs (runner/result_cache.cc).
     */
    template <class Self, class Visit>
    static constexpr void
    forEachField(Self &self, Visit &&visit)
    {
        visit("imToBbThreshold", self.imToBbThreshold);
        visit("bbToSbThreshold", self.bbToSbThreshold);
        visit("maxBbGuestInsts", self.maxBbGuestInsts);
        visit("maxSbGuestInsts", self.maxSbGuestInsts);
        visit("sbBranchBias", self.sbBranchBias);
        visit("sbMinEdgeSamples", self.sbMinEdgeSamples);
        visit("sbFollowCalls", self.sbFollowCalls);
        visit("enableChaining", self.enableChaining);
        visit("enableIbtc", self.enableIbtc);
        visit("enableBbmOpts", self.enableBbmOpts);
        visit("enableSbmOpts", self.enableSbmOpts);
        visit("enableScheduling", self.enableScheduling);
        visit("verifyIr", self.verifyIr);
        visit("ibtcEntries", self.ibtcEntries);
        visit("ibtcWays", self.ibtcWays);
        visit("transMapBuckets", self.transMapBuckets);
        visit("codeCacheBytes", self.codeCacheBytes);
        visit("sbPartitionPercent", self.sbPartitionPercent);
        visit("imDecodeAlus", self.imDecodeAlus);
        visit("imDispatchOverheadAlus", self.imDispatchOverheadAlus);
        visit("bbmDecodeAlus", self.bbmDecodeAlus);
        visit("bbmIrGenAlusPerInst", self.bbmIrGenAlusPerInst);
        visit("passVisitAlus", self.passVisitAlus);
        visit("cseHashAlus", self.cseHashAlus);
        visit("regallocAlusPerInterval", self.regallocAlusPerInterval);
        visit("schedAlusPerEdge", self.schedAlusPerEdge);
        visit("emitAlusPerInst", self.emitAlusPerInst);
        visit("lookupHashAlus", self.lookupHashAlus);
        visit("chainPatchAlus", self.chainPatchAlus);
        visit("ibtcFillAlus", self.ibtcFillAlus);
    }
};
static_assert(fields::listsEveryMember<TolConfig>());

} // namespace darco::tol

#endif // DARCO_TOL_CONFIG_HH
