/**
 * @file
 * TOL activity counters: mode distribution (static and dynamic),
 * region/translation counts, control-flow service counts. These feed
 * Figures 5, 6 and 7 directly.
 */

#ifndef DARCO_TOL_STATS_HH
#define DARCO_TOL_STATS_HH

#include <cstdint>
#include <string>

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

    // Static guest instructions per highest mode reached (Figure 5a),
    // and an order-free digest of which EIP reached which mode, so a
    // run that moves EIPs between modes at equal totals still
    // differs. Written by Runtime::run from its StaticModeTracker
    // when the run returns.
    uint64_t staticIm = 0;
    uint64_t staticBbm = 0;
    uint64_t staticSbm = 0;
    uint64_t staticModeHash = 0;

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
        visit("staticIm", self.staticIm);
        visit("staticBbm", self.staticBbm);
        visit("staticSbm", self.staticSbm);
        visit("staticModeHash", self.staticModeHash);
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

    uint64_t dynTotal() const { return dynIm + dynBbm + dynSbm; }
    uint64_t staticTotal() const { return staticIm + staticBbm + staticSbm; }
};
static_assert(fields::listsEveryMember<TolStats>());

/**
 * Exact comparison of every TOL activity counter two runs produced,
 * mirroring timing::diffStats: returns a newline-separated
 * description of each mismatching field, empty when identical. The
 * trace round-trip gates (tests, bench, CI) use this to prove a
 * replayed workload drove the TOL bit-identically to the live run.
 */
inline std::string
diffTolStats(const TolStats &a, const TolStats &b)
{
    std::string diff;
    fields::forEachMismatch(a, b, [&diff](const std::string &what,
                                          const std::string &va,
                                          const std::string &vb) {
        diff += "  " + what + ": " + va + " != " + vb + "\n";
    });
    return diff;
}

} // namespace darco::tol

#endif // DARCO_TOL_STATS_HH
