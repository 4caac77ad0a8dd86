/**
 * @file
 * TOL activity counters: mode distribution (static and dynamic),
 * region/translation counts, control-flow service counts. These feed
 * Figures 5, 6 and 7 directly.
 */

#ifndef DARCO_TOL_STATS_HH
#define DARCO_TOL_STATS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>

#include "common/fields.hh"

namespace darco::tol {

/** Execution mode of a guest instruction (paper Figure 3). */
enum class Mode : uint8_t { IM = 0, BBM = 1, SBM = 2 };

struct TolStats
{
    // Dynamic guest instructions executed per mode (Figure 5b).
    uint64_t dynIm = 0;
    uint64_t dynBbm = 0;
    uint64_t dynSbm = 0;

    // Static mode map: guest EIP -> highest mode reached (Figure 5a).
    std::unordered_map<uint32_t, uint8_t> staticMode;

    /** noteStatic() fast path (never needs invalidation in place: the
     *  map only grows and its nodes never move). */
    struct StaticSlot
    {
        uint32_t eip = 0;
        uint8_t *slot = nullptr;
    };

    /**
     * The cached pointers alias this object's own staticMode nodes,
     * so a copied TolStats must NOT inherit them: copies start with
     * an empty cache and rebuild against their own map.
     */
    struct StaticCache : std::array<StaticSlot, 2048>
    {
        StaticCache() : std::array<StaticSlot, 2048>{} {}
        StaticCache(const StaticCache &) : StaticCache() {}
        StaticCache &
        operator=(const StaticCache &)
        {
            fill(StaticSlot{});
            return *this;
        }
    };
    StaticCache staticCache;

    // Translation activity (Figure 6 secondary axis).
    uint64_t bbsTranslated = 0;
    uint64_t sbsCreated = 0;        ///< "SBM invocations"
    uint64_t guestInstsTranslatedBb = 0;
    uint64_t guestInstsTranslatedSb = 0;
    uint64_t hostInstsEmittedBb = 0;
    uint64_t hostInstsEmittedSb = 0;

    // Runtime services.
    uint64_t dispatchLoops = 0;
    uint64_t mapLookups = 0;
    uint64_t mapHits = 0;
    uint64_t chainsPatched = 0;
    uint64_t entryForwards = 0;     ///< BB entries redirected to SBs
    uint64_t ibtcMisses = 0;
    uint64_t ibtcFills = 0;
    uint64_t promotions = 0;
    uint64_t codeCacheFlushes = 0;
    uint64_t contextFills = 0;      ///< ctx -> register transitions
    uint64_t contextSpills = 0;     ///< register -> ctx transitions

    // Guest-level dynamic characteristics (Figure 7 secondary axis).
    uint64_t guestIndirectBranches = 0;

    /** The counters; the keys are the snapshot codec's field names. */
    template <class Self, class Visit>
    static constexpr void
    forEachField(Self &self, Visit &&visit)
    {
        visit("dynIm", self.dynIm);
        visit("dynBbm", self.dynBbm);
        visit("dynSbm", self.dynSbm);
        visit("bbsTranslated", self.bbsTranslated);
        visit("sbsCreated", self.sbsCreated);
        visit("guestInstsTranslatedBb", self.guestInstsTranslatedBb);
        visit("guestInstsTranslatedSb", self.guestInstsTranslatedSb);
        visit("hostInstsEmittedBb", self.hostInstsEmittedBb);
        visit("hostInstsEmittedSb", self.hostInstsEmittedSb);
        visit("dispatchLoops", self.dispatchLoops);
        visit("mapLookups", self.mapLookups);
        visit("mapHits", self.mapHits);
        visit("chainsPatched", self.chainsPatched);
        visit("entryForwards", self.entryForwards);
        visit("ibtcMisses", self.ibtcMisses);
        visit("ibtcFills", self.ibtcFills);
        visit("promotions", self.promotions);
        visit("codeCacheFlushes", self.codeCacheFlushes);
        visit("contextFills", self.contextFills);
        visit("contextSpills", self.contextSpills);
        visit("guestIndirectBranches", self.guestIndirectBranches);
    }

    void
    noteStatic(uint32_t eip, Mode mode)
    {
        // Direct-mapped pointer cache in front of the hash map: this
        // runs once per interpreted guest instruction, and hot loops
        // revisit the same few EIPs. unordered_map references are
        // node-stable, so cached pointers survive growth.
        const uint8_t m = static_cast<uint8_t>(mode);
        StaticSlot &cached = staticCache[eip & (staticCache.size() - 1)];
        if (cached.slot && cached.eip == eip) {
            if (*cached.slot < m)
                *cached.slot = m;
            return;
        }
        uint8_t &slot = staticMode[eip];
        slot = std::max(slot, m);
        cached.eip = eip;
        cached.slot = &slot;
    }

    uint64_t dynTotal() const { return dynIm + dynBbm + dynSbm; }

    /** Static instruction counts per terminal mode (Figure 5a). */
    void
    staticCounts(uint64_t &im, uint64_t &bbm, uint64_t &sbm) const
    {
        im = bbm = sbm = 0;
        for (const auto &[eip, mode] : staticMode) {
            switch (mode) {
              case 0: ++im; break;
              case 1: ++bbm; break;
              default: ++sbm; break;
            }
        }
    }
};
// Every member but two is listed. staticMode is a map, not a
// counter: the codec stores it as sorted (eip, mode) pairs and
// diffTolStats compares its per-mode totals. staticCache is a lookup
// cache over staticMode's nodes that no copy inherits: not data.
static_assert(fields::listsEveryMember<TolStats>(2));

/**
 * Exact comparison of every TOL activity counter two runs produced
 * (including the per-mode static map), mirroring timing::diffStats:
 * returns a newline-separated description of each mismatching field,
 * empty when identical. The trace round-trip gates (tests, bench,
 * CI) use this to prove a replayed workload drove the TOL
 * bit-identically to the live run.
 */
inline std::string
diffTolStats(const TolStats &a, const TolStats &b)
{
    std::string diff;
    const auto mismatch = [&diff](const std::string &what,
                                  const std::string &va,
                                  const std::string &vb) {
        diff += "  " + what + ": " + va + " != " + vb + "\n";
    };
    fields::forEachMismatch(a, b, mismatch);
    uint64_t a_im, a_bbm, a_sbm, b_im, b_bbm, b_sbm;
    a.staticCounts(a_im, a_bbm, a_sbm);
    b.staticCounts(b_im, b_bbm, b_sbm);
    for (const auto &[what, va, vb] :
         {std::tuple{"staticIm", a_im, b_im},
          std::tuple{"staticBbm", a_bbm, b_bbm},
          std::tuple{"staticSbm", a_sbm, b_sbm}}) {
        if (va != vb)
            mismatch(what, fields::text(va), fields::text(vb));
    }
    return diff;
}

} // namespace darco::tol

#endif // DARCO_TOL_STATS_HH
