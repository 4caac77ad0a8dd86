/**
 * @file
 * Two-level data TLB (Table I: L1 64-entry 8-way, L2 256-entry 8-way,
 * PLRU). Exists only for data; TOL-space accesses bypass it because
 * TOL works with physical addresses (§II-A.2).
 */

#ifndef DARCO_TIMING_TLB_HH
#define DARCO_TIMING_TLB_HH

#include <cstdint>
#include <vector>

#include "timing/config.hh"

namespace darco::timing {

/** Data-TLB counters (docs/metrics.md §3). */
struct TlbStats
{
    uint64_t accesses = 0;   ///< translations requested
    uint64_t l1Misses = 0;   ///< first-level misses
    uint64_t l2Misses = 0;   ///< page walks
};

class Tlb
{
  public:
    explicit Tlb(const TimingConfig &config);

    /**
     * Translate the page of @p addr; returns the *additional* latency
     * beyond a first-level hit (0 on L1 hit; L2 latency on L1 miss;
     * plus the walk penalty on L2 miss).
     */
    uint32_t access(uint32_t addr);

    /** Counters accumulated so far. */
    const TlbStats &stats() const { return stat; }

    /** Invalidate both levels (used between experiments). */
    void reset();

  private:
    struct Level
    {
        uint32_t sets = 0;
        uint32_t ways = 0;
        uint32_t setShift = 0;   ///< log2(sets): tag = vpn >> setShift
        std::vector<uint32_t> tags;
        std::vector<bool> valid;
        std::vector<uint8_t> plru;

        void init(uint32_t entries, uint32_t num_ways);
        bool lookup(uint32_t vpn);
        void insert(uint32_t vpn);

      private:
        uint32_t victim(uint32_t set) const;
        void touch(uint32_t set, uint32_t way);
    };

    const TimingConfig &cfg;
    Level l1;
    Level l2;

    /**
     * Same-page fast path: the VPN of the previous access, which by
     * construction ended resident in L1. A repeated access returns
     * the L1-hit latency without the set scan; the skipped PLRU
     * re-touch is idempotent.
     */
    uint32_t lastVpn = 0xFFFFFFFFu;

    TlbStats stat;
};

} // namespace darco::timing

#endif // DARCO_TIMING_TLB_HH
