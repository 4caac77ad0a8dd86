/**
 * @file
 * Storage for translated host code regions and the host-PC -> region
 * mapping used by the functional executor.
 *
 * Regions live at simulated code-cache addresses (so the timing
 * model's L1-I sees real code-cache locality); instructions are held
 * as HostInst structs, 4 simulated bytes each. Patching (chaining,
 * entry forwarding) rewrites instructions in place.
 */

#ifndef DARCO_HOST_CODE_STORE_HH
#define DARCO_HOST_CODE_STORE_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "host/isa.hh"
#include "timing/record.hh"

namespace darco::host {

/** Kind of a translated region. */
enum class RegionKind : uint8_t { BasicBlock, Superblock };

/** Static description of one region exit. */
struct ExitInfo
{
    /** Index of the patchable transfer instruction for this exit. */
    uint32_t branchIndex = 0;
    /** Guest EIP this exit statically targets (0 for indirect). */
    uint32_t guestTarget = 0;
    /** Guest instructions retired when leaving through this exit. */
    uint32_t guestInstsRetired = 0;
    /** The exit target is computed at run time (IBTC path). */
    bool indirect = false;
    /** Guest HALT exit. */
    bool halt = false;
    /** Flag registers x40..x43 valid here (fmask bits Z,S,C,O). */
    uint8_t flagMask = 0;
    /** Already chained to a successor region. */
    bool chained = false;
};

/** One translated code region (basic block or superblock). */
struct CodeRegion
{
    RegionKind kind = RegionKind::BasicBlock;
    uint32_t guestEntry = 0;          ///< guest EIP this region starts at
    uint32_t hostBase = 0;            ///< simulated code-cache address
    std::vector<HostInst> insts;
    /**
     * Per-instruction timing-record template: every Record field that
     * is static for the instruction (pc, opcode properties, register
     * ids with FP mapping applied, attribution) precomputed at
     * install time, so the executor's per-instruction work is one
     * struct copy plus the dynamic fields (memAddr, taken, target).
     * Rebuilt for an instruction whenever it is patched in place.
     */
    std::vector<timing::Record> recTemplates;
    std::vector<ExitInfo> exits;
    /** Guest EIP per guest-instruction index (for mid-region stops). */
    std::vector<uint32_t> guestEips;
    /** Dynamic execution count (bookkeeping; profiling is in-memory). */
    uint32_t execCount = 0;
    /** Region was replaced by a superblock (entry forwards). */
    bool superseded = false;

    uint32_t hostLimit() const { return hostBase + insts.size() * 4; }
    uint32_t numGuestInsts() const
    {
        return static_cast<uint32_t>(guestEips.size());
    }

    /** Recompute the record template for instruction @p index. */
    void rebuildTemplate(size_t index);
};

/**
 * Region allocator + PC lookup. Owns all regions. Allocation is a
 * bump pointer over the code-cache range; flush() drops everything
 * (the classic full-flush policy the TOL code cache uses when full).
 *
 * Optional hot/cold partitioning (the paper's §III-E "code placement
 * in the code cache" suggestion): superblocks allocate from a
 * dedicated upper partition so the steady-state hot code is densely
 * packed and stops sharing instruction-cache sets with cold BB
 * translations.
 */
class CodeStore
{
  public:
    CodeStore(uint32_t base, uint32_t limit)
        : cacheBase(base), cacheLimit(limit), nextAddr(base),
          hotBase(limit), hotNext(limit)
    {}

    /**
     * Enable hot/cold partitioning: superblocks allocate from the
     * upper @p hot_fraction_percent of the cache. Call before any
     * install.
     */
    void partitionForSuperblocks(unsigned hot_fraction_percent);

    /**
     * Install a region: assigns its hostBase, stores it, returns a
     * stable pointer. Returns nullptr if the cache is full (caller
     * must flush and retranslate).
     */
    CodeRegion *install(std::unique_ptr<CodeRegion> region);

    /**
     * Region containing host address @p pc, or nullptr. A
     * direct-mapped PC lookup cache sits in front of the ordered-map
     * search; flush() invalidates it wholesale.
     */
    CodeRegion *
    find(uint32_t pc)
    {
        const LookupEntry &cached = lookupCache[lookupSlot(pc)];
        if (cached.region && cached.pc == pc)
            return cached.region;
        return findSlow(pc);
    }

    /** Drop all regions (code-cache flush). */
    void flush();

    /** Total capacity in bytes. */
    uint32_t capacity() const { return cacheLimit - cacheBase; }

    /** Number of live regions. */
    size_t numRegions() const { return regions.size(); }

    /** Generation counter (bumped on every flush). */
    uint32_t generation() const { return gen; }

  private:
    /** Direct-mapped PC -> region cache entry (exact-PC match). */
    struct LookupEntry
    {
        uint32_t pc = 0;
        CodeRegion *region = nullptr;
    };

    static constexpr unsigned kLookupCacheBits = 12;

    static size_t
    lookupSlot(uint32_t pc)
    {
        return (pc >> 2) & ((size_t(1) << kLookupCacheBits) - 1);
    }

    /** Ordered-map search behind the lookup cache (fills it). */
    CodeRegion *findSlow(uint32_t pc);

    uint32_t cacheBase;
    uint32_t cacheLimit;
    uint32_t nextAddr;
    /** Superblock partition ([hotBase, cacheLimit); == limit when off). */
    uint32_t hotBase;
    uint32_t hotNext;
    uint32_t gen = 0;
    /** base address -> region, ordered for upper_bound lookup. */
    std::map<uint32_t, std::unique_ptr<CodeRegion>> regions;
    CodeRegion *lastHit = nullptr;
    std::array<LookupEntry, size_t(1) << kLookupCacheBits> lookupCache{};
};

} // namespace darco::host

#endif // DARCO_HOST_CODE_STORE_HH
