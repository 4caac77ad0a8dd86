/**
 * @file
 * Host microarchitecture configuration — Table I of the paper.
 *
 * Parameters the paper does not specify (BTB geometry, TLB walk
 * penalty, redirect depth) are exposed here with defaults documented
 * in DESIGN.md §4.5.
 */

#ifndef DARCO_TIMING_CONFIG_HH
#define DARCO_TIMING_CONFIG_HH

#include <cstdint>
#include <numeric>

namespace darco::timing {

/**
 * Widest supported issue width. The bound exists only so the exact
 * fixed-point cycle accounting stays overflow-safe: accountingDenom()
 * grows super-exponentially with the width (lcm(1..16) = 720720), and
 * per-run unit totals must fit in 64 bits.
 */
constexpr uint32_t kMaxIssueWidth = 16;

/**
 * Denominator of the exact fixed-point cycle accounting for a given
 * issue width: lcm(1..width). A cycle that issues k instructions
 * charges each one 1/k of the cycle; representing charges in integer
 * units of 1/lcm(1..W) makes every per-slot share (W/k units for
 * k <= W) an exact integer, so merging and reordering charges is
 * associative and the one conversion to doubles at finish() is
 * bit-identical regardless of accumulation order
 * (docs/timing-model.md §4).
 */
constexpr uint64_t
accountingDenom(uint32_t width)
{
    uint64_t denom = 1;
    for (uint64_t k = 2; k <= width; ++k)
        denom = std::lcm(denom, k);
    return denom;
}

struct CacheGeometry
{
    uint32_t sizeBytes;
    uint32_t lineBytes;
    uint32_t ways;
    uint32_t hitLatency;
    /**
     * Replace with exact (stamp-based) LRU instead of tree-PLRU.
     * Off for every Table I cache; the profile layer's analytic
     * cross-check (profile/analytic.hh) turns it on for a
     * fully-associative instance, because Mattson's stack model is
     * exact only for true LRU.
     */
    bool trueLru = false;
};

/** Host microarchitecture parameters (Table I + DESIGN.md §4.5). */
struct TimingConfig
{
    // General (Table I).
    /** In-order issue slots per cycle (1..kMaxIssueWidth). */
    uint32_t issueWidth = 2;
    uint32_t iqSize = 16;       ///< instruction-queue entries

    /**
     * Drive the pipeline with the event-driven core: advance the
     * clock directly to the next event (issue-ready, fetch-ready,
     * writeback, miss completion, branch resolve) instead of ticking
     * every cycle. Bit-identical to the cycle-stepped reference core
     * by construction at every issue width (see docs/timing-model.md;
     * enforced by the A/B determinism tests and their width sweep).
     */
    bool eventCore = true;

    // Branch prediction: Gshare with a 12-bit history register.
    uint32_t bpHistoryBits = 12;
    uint32_t btbEntries = 1024;     ///< not in Table I (DESIGN.md)
    uint32_t btbWays = 4;
    uint32_t mispredictPenalty = 6;

    // L1 caches: 32KB, 64B lines, 4-way, PLRU, 1-cycle hit.
    CacheGeometry l1i{32 * 1024, 64, 4, 1};
    CacheGeometry l1d{32 * 1024, 64, 4, 1};
    // L2 unified: 512KB, 128B lines, 8-way, PLRU, 16-cycle hit.
    CacheGeometry l2{512 * 1024, 128, 8, 16};
    uint32_t memLatency = 128;

    // Stride prefetcher: 256 entries.
    uint32_t prefetcherEntries = 256;
    bool prefetcherEnabled = true;

    // Data TLBs: L1 64-entry/8-way, L2 256-entry/8-way, PLRU.
    uint32_t tlbL1Entries = 64;
    uint32_t tlbL1Ways = 8;
    uint32_t tlbL1Latency = 1;
    uint32_t tlbL2Entries = 256;
    uint32_t tlbL2Ways = 8;
    uint32_t tlbL2Latency = 16;
    uint32_t tlbWalkLatency = 128;  ///< not in Table I (DESIGN.md)
    uint32_t pageBits = 12;

    // Execution latencies (Table I narrative).
    uint32_t intSimpleLatency = 1;
    uint32_t intComplexLatency = 2;
    uint32_t fpSimpleLatency = 2;
    uint32_t fpComplexLatency = 5;
};

} // namespace darco::timing

#endif // DARCO_TIMING_CONFIG_HH
