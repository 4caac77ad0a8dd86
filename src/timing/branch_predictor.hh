/**
 * @file
 * Gshare branch predictor (12-bit global history, Table I) plus a
 * set-associative Branch Target Buffer. Conditional direction comes
 * from the gshare PHT; targets of taken/indirect transfers come from
 * the BTB's last-seen target (no return-address stack: the paper
 * never mentions one, and its absence is consistent with the paper's
 * emphasis on indirect-branch cost).
 */

#ifndef DARCO_TIMING_BRANCH_PREDICTOR_HH
#define DARCO_TIMING_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/fields.hh"
#include "timing/config.hh"

namespace darco::timing {

/** Branch-predictor counters (docs/metrics.md §3). */
struct BpStats
{
    uint64_t branches = 0;             ///< transfers predicted
    uint64_t condBranches = 0;         ///< conditional subset
    uint64_t mispredicts = 0;          ///< any wrong prediction
    uint64_t directionMispredicts = 0; ///< gshare direction wrong
    uint64_t targetMispredicts = 0;    ///< BTB target wrong/absent
    uint64_t indirectMispredicts = 0;  ///< JALR-class subset

    template <class Self, class Visit>
    static constexpr void
    forEachField(Self &self, Visit &&visit)
    {
        visit("branches", self.branches);
        visit("condBranches", self.condBranches);
        visit("mispredicts", self.mispredicts);
        visit("directionMispredicts", self.directionMispredicts);
        visit("targetMispredicts", self.targetMispredicts);
        visit("indirectMispredicts", self.indirectMispredicts);
    }

    /** Fraction of predicted transfers that were wrong. */
    double
    mispredictRate() const
    {
        return branches ? static_cast<double>(mispredicts) /
                          static_cast<double>(branches)
                        : 0.0;
    }
};
static_assert(fields::listsEveryMember<BpStats>());

class BranchPredictor
{
  public:
    explicit BranchPredictor(const TimingConfig &config);

    /**
     * Predict-and-update for one executed branch.
     *
     * @param pc        branch host PC
     * @param taken     actual direction
     * @param target    actual target (valid when taken)
     * @param is_cond   conditional branch
     * @param is_indirect JALR-class transfer
     * @return true if both direction and target were predicted right.
     */
    bool predict(uint32_t pc, bool taken, uint32_t target, bool is_cond,
                 bool is_indirect);

    /** Counters accumulated so far. */
    const BpStats &stats() const { return stat; }

    /** Clear PHT, history and BTB (used between experiments). */
    void reset();

  private:
    const TimingConfig &cfg;
    std::vector<uint8_t> pht;   ///< 2-bit counters
    uint32_t history = 0;
    uint32_t historyMask;

    struct BtbEntry
    {
        uint32_t tag = 0;
        uint32_t target = 0;
        bool valid = false;
        uint8_t lru = 0;
    };
    std::vector<BtbEntry> btb;
    uint32_t btbSets;
    uint32_t btbSetShift = 0;   ///< log2(btbSets): tag = pc>>2 >> shift

    BpStats stat;

    bool btbLookup(uint32_t pc, uint32_t &target_out,
                   uint32_t &way_out);
    void btbUpdate(uint32_t pc, uint32_t target, bool hit,
                   uint32_t hit_way);
};

} // namespace darco::timing

#endif // DARCO_TIMING_BRANCH_PREDICTOR_HH
