/**
 * @file
 * PC-indexed stride prefetcher (Table I: 256 entries). Trains on load
 * addresses per load PC; after two consecutive confirmations of the
 * same stride it prefetches the next line into the L2 (bringing data
 * near, but leaving the L1-D fill to demand misses — a conservative
 * timeliness model; see DESIGN.md).
 */

#ifndef DARCO_TIMING_PREFETCHER_HH
#define DARCO_TIMING_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "common/bitutils.hh"
#include "common/fields.hh"
#include "timing/cache.hh"

namespace darco::timing {

/** Stride-prefetcher counters (docs/metrics.md §3). */
struct PrefetcherStats
{
    uint64_t trains = 0;     ///< loads observed
    uint64_t prefetches = 0; ///< L2 fills launched

    template <class Self, class Visit>
    static constexpr void
    forEachField(Self &self, Visit &&visit)
    {
        visit("trains", self.trains);
        visit("prefetches", self.prefetches);
    }
};
static_assert(fields::listsEveryMember<PrefetcherStats>());

class StridePrefetcher
{
  public:
    StridePrefetcher(uint32_t num_entries, Cache &fill_target)
        : entries(num_entries), dcache(fill_target),
          entriesMask(isPowerOf2(num_entries) ? num_entries - 1 : 0),
          lineShift(floorLog2(fill_target.lineBytes())),
          tableStore(num_entries, Entry())
    {}

    /** Observe a load and possibly prefetch. */
    void
    train(uint32_t pc, uint32_t addr)
    {
        ++stat.trains;
        Entry &e = tableStore[index(pc)];
        if (e.tag == pc) {
            const int32_t stride =
                static_cast<int32_t>(addr - e.lastAddr);
            if (stride != 0 && stride == e.stride) {
                if (e.confidence < 3)
                    ++e.confidence;
            } else {
                e.stride = stride;
                e.confidence = stride != 0 ? 1 : 0;
            }
            e.lastAddr = addr;
            if (e.confidence >= 2 && e.stride != 0) {
                // Distance-4 lookahead so the prefetch stays ahead of
                // the stream and crosses lines even for small strides.
                const uint32_t next =
                    addr + 4 * static_cast<uint32_t>(e.stride);
                if ((next >> lineShift) != (addr >> lineShift)) {
                    dcache.prefetch(next);
                    ++stat.prefetches;
                }
            }
        } else {
            e.tag = pc;
            e.lastAddr = addr;
            e.stride = 0;
            e.confidence = 0;
        }
    }

    /** Counters accumulated so far. */
    const PrefetcherStats &stats() const { return stat; }

    /** Clear the training table (used between experiments). */
    void
    reset()
    {
        tableStore.assign(entries, Entry());
        stat = PrefetcherStats();
    }

  private:
    struct Entry
    {
        uint32_t tag = 0;
        uint32_t lastAddr = 0;
        int32_t stride = 0;
        uint8_t confidence = 0;
    };

    uint32_t
    index(uint32_t pc) const
    {
        // Mask when the table is a power of two (the common config).
        return entriesMask ? (pc >> 2) & entriesMask
                           : (pc >> 2) % entries;
    }

    uint32_t entries;
    Cache &dcache;
    uint32_t entriesMask;
    uint32_t lineShift;
    std::vector<Entry> tableStore;
    PrefetcherStats stat;
};

} // namespace darco::timing

#endif // DARCO_TIMING_PREFETCHER_HH
