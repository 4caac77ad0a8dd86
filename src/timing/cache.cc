#include "timing/cache.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace darco::timing {

Cache::Cache(const CacheGeometry &geometry, Cache *next,
             uint32_t mem_latency)
    : geom(geometry), nextLevel(next), memLatency(mem_latency)
{
    panic_if(!isPowerOf2(geom.lineBytes), "line size must be 2^n");
    panic_if(geom.sizeBytes % (geom.lineBytes * geom.ways) != 0,
             "cache size not divisible by way size");
    numSets = geom.sizeBytes / (geom.lineBytes * geom.ways);
    panic_if(!isPowerOf2(numSets), "number of sets must be 2^n");
    panic_if(!isPowerOf2(geom.ways), "associativity must be 2^n");
    lineShift = floorLog2(geom.lineBytes);
    setShift = floorLog2(numSets);
    ways.assign(static_cast<size_t>(numSets) * geom.ways, Way());
    plruBits.assign(static_cast<size_t>(numSets) * (geom.ways - 1), 0);
    if (geom.trueLru)
        lruStamp.assign(static_cast<size_t>(numSets) * geom.ways, 0);
    lastInSet.assign(numSets, LastAccess());
}

void
Cache::reset()
{
    for (Way &w : ways)
        w = Way();
    for (uint8_t &b : plruBits)
        b = 0;
    for (uint64_t &s : lruStamp)
        s = 0;
    lruClock = 0;
    lastInSet.assign(numSets, LastAccess());
    stat = CacheStats();
}

int
Cache::findWay(uint32_t set, uint32_t tag) const
{
    const size_t base = static_cast<size_t>(set) * geom.ways;
    for (uint32_t w = 0; w < geom.ways; ++w) {
        if (ways[base + w].valid && ways[base + w].tag == tag)
            return static_cast<int>(w);
    }
    return -1;
}

uint32_t
Cache::plruVictim(uint32_t set) const
{
    // Tree-PLRU: bit value 0 means "left side is LRU-er". Walk toward
    // the least recently used leaf.
    const size_t base = static_cast<size_t>(set) * (geom.ways - 1);
    uint32_t node = 0;
    uint32_t levels = floorLog2(geom.ways);
    for (uint32_t l = 0; l < levels; ++l) {
        const uint8_t bit = plruBits[base + node];
        node = 2 * node + 1 + bit;
    }
    return node - (geom.ways - 1);
}

void
Cache::plruTouch(uint32_t set, uint32_t way)
{
    // Flip bits along the path so they point away from `way`.
    const size_t base = static_cast<size_t>(set) * (geom.ways - 1);
    uint32_t node = way + (geom.ways - 1);
    while (node != 0) {
        const uint32_t parent = (node - 1) / 2;
        const bool is_right = (node == 2 * parent + 2);
        plruBits[base + parent] = is_right ? 0 : 1;
        node = parent;
    }
}

uint32_t
Cache::victimWay(uint32_t set) const
{
    if (!geom.trueLru)
        return plruVictim(set);
    const size_t base = static_cast<size_t>(set) * geom.ways;
    uint32_t victim = 0;
    for (uint32_t w = 1; w < geom.ways; ++w) {
        if (lruStamp[base + w] < lruStamp[base + victim])
            victim = w;
    }
    return victim;
}

void
Cache::touchWay(uint32_t set, uint32_t way)
{
    if (!geom.trueLru) {
        plruTouch(set, way);
        return;
    }
    lruStamp[static_cast<size_t>(set) * geom.ways + way] = ++lruClock;
}

uint32_t
Cache::fillLine(uint32_t addr, bool dirty, bool charge_fill)
{
    const uint32_t set = setIndex(addr);
    const uint32_t tag = tagOf(addr);
    const size_t base = static_cast<size_t>(set) * geom.ways;

    int way = findWay(set, tag);
    if (way < 0) {
        // Prefer an invalid way.
        for (uint32_t w = 0; w < geom.ways; ++w) {
            if (!ways[base + w].valid) {
                way = static_cast<int>(w);
                break;
            }
        }
        if (way < 0) {
            way = static_cast<int>(victimWay(set));
            Way &victim = ways[base + way];
            if (victim.valid && victim.dirty) {
                ++stat.writebacks;
                if (nextLevel) {
                    // Write back into the next level (no stall: the
                    // write buffer hides it; docs/deviations.md §4).
                    bool dummy = false;
                    const uint32_t victim_addr =
                        (victim.tag * numSets + set) * geom.lineBytes;
                    (void)nextLevel->access(victim_addr, true, dummy);
                }
            }
        }
        ways[base + way].tag = tag;
        ways[base + way].valid = true;
        ways[base + way].dirty = false;
        if (charge_fill)
            ++stat.prefetchFills;
    }
    if (dirty)
        ways[base + way].dirty = true;
    touchWay(set, static_cast<uint32_t>(way));
    return static_cast<uint32_t>(way);
}

uint32_t
Cache::access(uint32_t addr, bool write, bool &miss_out)
{
    ++stat.accesses;
    const uint32_t line = addr >> lineShift;
    const uint32_t set = line & (numSets - 1);
    const uint32_t tag = line >> setShift;

    // Same-line fast path (see lastInSet): every access and fill in
    // this set updates the entry, so a match means the most recent
    // touch of the set was this very way — the skipped re-touch is
    // idempotent and the way cannot have been evicted since.
    LastAccess &last = lastInSet[set];
    if (line == last.line) {
        Way &w = ways[static_cast<size_t>(set) * geom.ways + last.way];
        if (w.valid && w.tag == tag) {
            miss_out = false;
            w.dirty |= write;
            return geom.hitLatency;
        }
    }

    const int way = findWay(set, tag);
    if (way >= 0) {
        miss_out = false;
        touchWay(set, static_cast<uint32_t>(way));
        if (write)
            ways[static_cast<size_t>(set) * geom.ways + way].dirty = true;
        last.line = line;
        last.way = static_cast<uint32_t>(way);
        return geom.hitLatency;
    }

    ++stat.misses;
    miss_out = true;
    uint32_t below;
    if (nextLevel) {
        bool next_miss = false;
        below = nextLevel->access(addr, false, next_miss);
    } else {
        below = memLatency;
    }
    // fillLine may evict another line; record the new occupant so the
    // fast path stays coherent for this set.
    lastInSet[set].line = line;
    lastInSet[set].way = fillLine(addr, write, false);
    return geom.hitLatency + below;
}

bool
Cache::probe(uint32_t addr) const
{
    return findWay(setIndex(addr), tagOf(addr)) >= 0;
}

void
Cache::prefetch(uint32_t addr)
{
    const uint32_t set = setIndex(addr);
    const uint32_t tag = tagOf(addr);
    if (findWay(set, tag) >= 0)
        return;
    if (nextLevel)
        nextLevel->prefetch(addr);
    // The prefetch fill touches (and may evict within) this set;
    // point the fast path at the prefetched line.
    lastInSet[set].line = addr >> lineShift;
    lastInSet[set].way = fillLine(addr, false, true);
}

} // namespace darco::timing
