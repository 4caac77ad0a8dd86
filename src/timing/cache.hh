/**
 * @file
 * Set-associative cache with tree-PLRU replacement, write-back /
 * write-allocate, used for L1-I, L1-D and the unified L2 (Table I).
 */

#ifndef DARCO_TIMING_CACHE_HH
#define DARCO_TIMING_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "timing/config.hh"

namespace darco::timing {

/** Per-cache counters (docs/metrics.md §3). */
struct CacheStats
{
    uint64_t accesses = 0;      ///< demand accesses (not probes)
    uint64_t misses = 0;        ///< demand misses
    uint64_t writebacks = 0;    ///< dirty lines evicted downward
    uint64_t prefetchFills = 0; ///< lines installed by prefetches

    /** Demand miss ratio (0 when never accessed). */
    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                          static_cast<double>(accesses)
                        : 0.0;
    }
};

class Cache
{
  public:
    /**
     * @param geometry size/line/ways/latency
     * @param next     next level (nullptr = main memory)
     * @param mem_latency latency charged when next == nullptr
     */
    Cache(const CacheGeometry &geometry, Cache *next,
          uint32_t mem_latency);

    /**
     * Access @p addr. Returns the total latency in cycles including
     * lower levels on a miss; fills the line and handles dirty
     * writebacks.
     */
    uint32_t access(uint32_t addr, bool write, bool &miss_out);

    /** Hit check without any state change (for tests). */
    bool probe(uint32_t addr) const;

    /**
     * Prefetch @p addr into this cache (and lower levels), without a
     * latency charge. Counts as a prefetch fill, not an access.
     */
    void prefetch(uint32_t addr);

    /** Counters accumulated so far. */
    const CacheStats &stats() const { return stat; }

    /** Drop all contents (used between experiments). */
    void reset();

    /** Configured line size in bytes. */
    uint32_t lineBytes() const { return geom.lineBytes; }

  private:
    struct Way
    {
        uint32_t tag = 0;
        bool valid = false;
        bool dirty = false;
    };

    // Geometry is asserted power-of-two in the constructor, so the
    // per-access set/tag split is two shifts, not two divisions.
    uint32_t setIndex(uint32_t addr) const
    {
        return (addr >> lineShift) & (numSets - 1);
    }

    uint32_t tagOf(uint32_t addr) const
    {
        return addr >> (lineShift + setShift);
    }

    int findWay(uint32_t set, uint32_t tag) const;
    uint32_t plruVictim(uint32_t set) const;
    void plruTouch(uint32_t set, uint32_t way);
    /** Replacement dispatch: tree-PLRU or exact LRU (geom.trueLru). */
    uint32_t victimWay(uint32_t set) const;
    void touchWay(uint32_t set, uint32_t way);
    /** Insert a line, handling victim writeback. Returns way used. */
    uint32_t fillLine(uint32_t addr, bool dirty, bool charge_fill);

    CacheGeometry geom;
    Cache *nextLevel;
    uint32_t memLatency;
    uint32_t numSets;
    uint32_t lineShift = 0;        ///< log2(lineBytes)
    uint32_t setShift = 0;         ///< log2(numSets)
    std::vector<Way> ways;         ///< numSets * geom.ways
    std::vector<uint8_t> plruBits; ///< numSets * (ways - 1) tree bits

    /**
     * Exact-LRU state (geom.trueLru only): per-way recency stamps
     * from a monotone counter; the victim is the valid way with the
     * smallest stamp. The same-line fast path's skipped re-touch
     * stays correct — a fast-path hit means the most recent touch of
     * the set was this very way, so it already holds the set's
     * largest stamp.
     */
    std::vector<uint64_t> lruStamp; ///< numSets * geom.ways
    uint64_t lruClock = 0;

    /**
     * Per-set same-line fast path: the line and way of the most
     * recent access (or fill) in each set. A repeated access to that
     * line skips the set scan, and the PLRU re-touch it skips is a
     * no-op because the most recent touch of the set already points
     * the tree bits away from that way. Indexed by set so
     * alternating lines in different sets all stay on the fast path.
     */
    struct LastAccess
    {
        uint32_t line = 0xFFFFFFFFu;
        uint32_t way = 0;
    };
    std::vector<LastAccess> lastInSet;   ///< one entry per set

    CacheStats stat;
};

} // namespace darco::timing

#endif // DARCO_TIMING_CACHE_HH
