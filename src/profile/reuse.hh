/**
 * @file
 * Exact Mattson stack-distance engine for data-reuse-distance
 * profiles (the characterization layer's locality axis).
 *
 * The reuse (stack) distance of an access is the number of *distinct*
 * other lines touched since the previous access to the same line; a
 * first touch has infinite distance ("cold"). The histogram of these
 * distances is the canonical locality signature of a workload, and —
 * because an L-line fully-associative LRU cache hits exactly the
 * accesses with distance < L — it doubles as an analytic oracle for
 * the cache model (profile/analytic.hh, docs/metrics.md §5).
 *
 * Implementation: the classic hash-map + Fenwick-tree formulation of
 * Mattson's stack algorithm. Each line's most recent access time is
 * marked in a Fenwick (binary indexed) tree; the stack distance of a
 * re-access is the count of marked times newer than the line's own
 * mark — one prefix-sum difference, O(log N) per access instead of
 * the naive stack scan's O(N). Time slots are compacted in place
 * whenever the tree is mostly dead marks, so memory stays
 * O(distinct lines), not O(accesses).
 */

#ifndef DARCO_PROFILE_REUSE_HH
#define DARCO_PROFILE_REUSE_HH

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace darco::profile {

/**
 * Reuse-distance histogram at line granularity. Distances are exact
 * stack distances (0 = immediate re-reference to the same line);
 * cold first-touch accesses are counted separately, since their
 * distance is infinite. Sparse by construction: a real workload
 * touches few distinct distances relative to its access count.
 * Ordered map so iteration, serialization and equality are
 * deterministic.
 */
struct ReuseHistogram
{
    /** distance -> number of accesses at that distance. */
    std::map<uint64_t, uint64_t> counts;
    /** First-touch accesses (infinite distance) = distinct lines. */
    uint64_t coldAccesses = 0;

    /** Every profiled access (finite + cold). */
    uint64_t
    totalAccesses() const
    {
        uint64_t total = coldAccesses;
        for (const auto &[dist, n] : counts)
            total += n;
        return total;
    }

    /** Distinct lines ever touched (== cold accesses, by definition). */
    uint64_t distinctLines() const { return coldAccesses; }

    bool
    operator==(const ReuseHistogram &other) const
    {
        return coldAccesses == other.coldAccesses &&
               counts == other.counts;
    }
};

/**
 * The online engine: feed line identifiers in access order, read the
 * histogram at any point. Line identifiers are opaque 64-bit keys
 * (callers pass `addr >> lineShift`; the full 64-bit space is
 * supported so external traces with wide addresses profile exactly).
 */
class ReuseStack
{
  public:
    ReuseStack();

    /** Record one access to @p line, in stream order. */
    void access(uint64_t line);

    /** Histogram accumulated so far. */
    const ReuseHistogram &histogram() const { return hist; }

    /** Distinct lines currently tracked. */
    uint64_t distinctLines() const { return lastAccess.size(); }

  private:
    /** Sum of marks in [1, i]. */
    uint64_t prefix(uint64_t i) const;
    /** Add @p delta at time slot @p i (1-based, i <= capacity). */
    void update(uint64_t i, int64_t delta);
    /** Remap live time slots to 1..D and rebuild the tree. */
    void compact();

    ReuseHistogram hist;
    /** line -> its most recent (marked) access time, 1-based. */
    std::unordered_map<uint64_t, uint64_t> lastAccess;
    /** Fenwick tree over time slots; fenwick[0] unused. */
    std::vector<uint64_t> fenwick;
    uint64_t capacity;   ///< usable time slots (power of two)
    uint64_t clock = 0;  ///< last time slot handed out
};

} // namespace darco::profile

#endif // DARCO_PROFILE_REUSE_HH
