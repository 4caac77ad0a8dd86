/**
 * @file
 * Cycle-level model of the host processor (Figure 4): a 2-issue
 * in-order pipeline with an AC/IF/DEC front-end, a 16-entry
 * instruction queue, scoreboarded issue, and EXE-resolved branches
 * with a 6-cycle misprediction penalty; backed by the Table I memory
 * hierarchy (split L1, unified L2, data TLB, stride prefetcher) and a
 * Gshare+BTB predictor.
 *
 * Every cycle is attributed to exactly one accounting bucket
 * {instructions, D$-miss bubble, I$-miss bubble, branch bubble,
 * instruction scheduling} and, within the bucket, to the module
 * (application or one of the TOL components) responsible — the
 * Figure 7 / Figure 9 decomposition. Bucket totals sum exactly to
 * total cycles (asserted by tests).
 *
 * Three instances are fed from one functional pass (combined,
 * TOL-only, APP-only) to reproduce the paper's isolation methodology
 * (§III-C, §III-D): a filter drops records of the other side before
 * they touch this instance's pipeline or hierarchy.
 *
 * Two interchangeable cores drive the model (docs/timing-model.md):
 * the cycle-stepped reference core ticks every cycle, and the
 * event-driven core advances the clock directly to the next event
 * (issue-ready, fetch-ready, writeback, miss completion, branch
 * resolve). They are bit-identical in every metric — enforced by the
 * A/B determinism tests — and selected by TimingConfig::eventCore.
 */

#ifndef DARCO_TIMING_PIPELINE_HH
#define DARCO_TIMING_PIPELINE_HH

#include <array>
#include <string>
#include <vector>

#include "timing/branch_predictor.hh"
#include "timing/cache.hh"
#include "timing/config.hh"
#include "timing/prefetcher.hh"
#include "timing/record.hh"
#include "timing/tlb.hh"

namespace darco::timing {

/** Cycle accounting buckets (Figure 9 categories). */
enum class Bucket : uint8_t {
    Insts = 0,       ///< at least one instruction issued
    DcacheBubble,    ///< waiting on a load (or DTLB) miss
    IcacheBubble,    ///< front-end starved by an instruction miss
    BranchBubble,    ///< front-end starved by a misprediction redirect
    SchedBubble,     ///< IQ head not issuable: dependencies/latency
    NumBuckets,
};

/** Human-readable bucket label (stable, used in tables). */
const char *bucketName(Bucket b);

struct PipeStats;

/**
 * Exact comparison of everything two pipeline instances measured:
 * integers compared as integers, doubles with == (the bit-identical
 * contract, not closeness). Returns a newline-separated description
 * of every mismatching field — empty means identical. The single
 * source of truth for the A/B determinism gates (the engine_speed
 * harness and tests/test_timing_ab.cc both use it, so the covered
 * field set cannot drift between them).
 */
std::string diffStats(const PipeStats &a, const PipeStats &b);

/** Number of attribution modules (array extents). */
constexpr unsigned kNumModules =
    static_cast<unsigned>(Module::NumModules);
/** Number of accounting buckets (array extents). */
constexpr unsigned kNumBuckets =
    static_cast<unsigned>(Bucket::NumBuckets);

/** Everything one pipeline instance measures (docs/metrics.md). */
struct PipeStats
{
    uint64_t cycles = 0;    ///< total simulated cycles
    uint64_t records = 0;   ///< records accepted past the filter
    /**
     * Always 0: nothing in the simulator writes it. Kept only
     * because benchmark/darco_bench.cc still reads it (digestOf
     * zeroes it; the timing.burst_fraction metric divides it by
     * cycles); delete it together with those readers. Not part of
     * diffStats.
     */
    uint64_t burstCycles = 0;
    /** Instructions issued, by attributed module. */
    std::array<uint64_t, kNumModules> insts{};
    /**
     * Fixed-point denominator of the exact integer accounting:
     * lcm(1..issueWidth) (timing::accountingDenom). bucketUnits /
     * bucketSrcUnits hold integer multiples of 1/unitDenom cycles;
     * the double views below are derived from them once at finish().
     */
    uint64_t unitDenom = 1;
    /** Exact cycle units (1/unitDenom cycles): [bucket][module]. */
    std::array<std::array<uint64_t, kNumModules>, kNumBuckets>
        bucketUnits{};
    /** Exact cycle units by stream source: [bucket][0=TOL,1=region]. */
    std::array<std::array<uint64_t, 2>, kNumBuckets> bucketSrcUnits{};
    /** Fractional cycles: [bucket][module] (bucketUnits/unitDenom). */
    std::array<std::array<double, kNumModules>, kNumBuckets> bucket{};
    /**
     * Secondary accounting by stream source for the isolation study
     * (Figures 10/11): [bucket][0 = TOL software, 1 = region code].
     */
    std::array<std::array<double, 2>, kNumBuckets> bucketSrc{};

    CacheStats l1i, l1d, l2;    ///< memory-hierarchy counters
    TlbStats tlb;               ///< data-TLB counters
    BpStats bp;                 ///< branch-predictor counters
    PrefetcherStats prefetch;   ///< stride-prefetcher counters

    /** Cycles charged to @p b, summed over all modules. */
    double bucketTotal(Bucket b) const;
    /** Cycles attributed to module @p m, summed over all buckets. */
    double moduleCycles(Module m) const;
    /** Cycles by stream source (0 = TOL software, 1 = region code). */
    double sourceCycles(bool region) const;
    /** Cycles attributed (by module) to any TOL component. */
    double tolCycles() const;
    /** Cycles attributed (by module) to the application. */
    double appCycles() const;
    /** Instructions attributed to any TOL component. */
    uint64_t tolInsts() const;
    /** Instructions attributed to the application. */
    uint64_t appInsts() const;
    /** Issued instructions per cycle over the whole run. */
    double ipc() const;
};

class Pipeline : public RecordSink
{
  public:
    /**
     * All: every record. TolOnly/AppOnly: split by stream *source*
     * (TOL software vs translated-region code; Figures 10/11).
     * TolModule: everything attributed to TOL by *module* including
     * the profiling instrumentation embedded in regions — the
     * population Figure 8 characterizes.
     */
    enum class Filter : uint8_t { All, TolOnly, AppOnly, TolModule };

    /**
     * Which core advances the clock. CycleStepped is the reference
     * implementation (one step() per cycle); EventDriven advances
     * straight to the next event and is bit-identical to it
     * (docs/timing-model.md).
     */
    enum class Engine : uint8_t { CycleStepped, EventDriven };

    Pipeline(const TimingConfig &config, Filter filter);

    void consume(const Record &rec) override;
    void consumeBatch(const Record *recs, size_t count) override;

    /** Drain everything in flight and snapshot component stats. */
    void finish();

    /** Measured quantities so far (complete only after finish()). */
    const PipeStats &stats() const { return stat; }

    /** Current simulated cycle. */
    uint64_t cyclesNow() const { return now; }

    /** The core driving this instance (TimingConfig::eventCore). */
    Engine engine() const { return eng; }

  private:
    /**
     * Cache-line aligned so a window slot never straddles two lines;
     * the per-cycle loops touch several slots each.
     */
    struct alignas(64) InFlight
    {
        Record rec;
        uint64_t arrival = 0;     ///< first issueable cycle
        bool mispredicted = false;
    };

    /** Reference core: simulate exactly one cycle. */
    void step();
    /** True while any instruction is still in flight. */
    bool workRemains() const;
    /** Issue up to issueWidth and account the cycle's bucket. */
    void issuePhase(unsigned &issued_count);
    /** Move front-end arrivals into the IQ, then fetch new records. */
    void fetchPhase();
    /** Execute one issued instruction's side effects. */
    void issueOne(InFlight &inst);

    /**
     * Advance until the pending backlog is at most @p pending_floor
     * (or, with @p to_empty, until nothing is in flight), using the
     * selected core. The single clock-advancing entry point: both
     * consume paths and finish() go through here.
     */
    void drain(size_t pending_floor, bool to_empty);

    /**
     * Event-driven core (docs/timing-model.md): one merged
     * issue/fetch cycle body over register-resident pipeline state,
     * and an event-horizon fast-forward that advances the clock in
     * one jump across any interval in which every phase is provably
     * inert. Exact at every issue width via the 1/unitDenom
     * fixed-point accounting.
     *
     * @param ext optional borrowed tail of the pending backlog (a
     *     producer batch, in emission order after the ring's own
     *     pending segment): fetch reads records from it in place and
     *     copies each into the ring only when it enters the
     *     front-end, so backlog records are staged exactly once.
     * @return how many @p ext records were consumed; the caller owns
     *     staging the remainder before the buffer dies.
     */
    size_t runEventCore(size_t pending_floor, bool to_empty,
                        const Record *ext, size_t ext_count);

    /**
     * The core's loop body, specialized on the issue width (W = 0
     * keeps it a runtime value): the single-width instantiation lets
     * the compiler unroll the issue and fetch slot loops.
     */
    template <unsigned W>
    size_t runEventCoreImpl(size_t pending_floor, bool to_empty,
                            const Record *ext, size_t ext_count);

    /** Does @p rec belong to this instance's filtered stream? */
    bool
    passesFilter(const Record &rec) const
    {
        // Isolation instances split by stream source so the two
        // sides never share instruction-cache lines (see record.hh).
        if (filter == Filter::TolOnly && rec.fromRegion)
            return false;
        if (filter == Filter::AppOnly && !rec.fromRegion)
            return false;
        if (filter == Filter::TolModule && rec.module == Module::App)
            return false;
        return true;
    }

    /** Filter check + enqueue for one record (shared consume body). */
    void accept(const Record &rec);

    const TimingConfig &cfg;
    Filter filter;
    Engine eng;

    // Hot config scalars copied at construction: the compiler cannot
    // prove the external config unaliased by window stores, so going
    // through `cfg` would reload them on every per-cycle check.
    uint32_t issueWidth;
    uint32_t iqSize;
    uint32_t mispredictPenalty;
    bool prefetcherEnabled;

    Cache l2c;
    Cache l1ic;
    Cache l1dc;
    Tlb dtlb;
    BranchPredictor bp;
    StridePrefetcher pf;

    /**
     * All in-flight instructions in one ring window, in program
     * order, segmented into three FIFO stages by counters alone:
     * [0, iqCount) is the instruction queue, [iqCount, iqCount +
     * feCount) the AC/IF/DEC front-end, and the rest the accepted
     * -but-unfetched backlog. Stage transitions move a counter and
     * patch the element in place — no copying between stage queues on
     * the per-cycle path.
     */
    std::vector<InFlight> window;
    size_t winMask = 0;     ///< window.size() - 1 (power of two)
    size_t head = 0;        ///< ring index of the IQ head
    size_t inFlight = 0;    ///< total elements in the window
    size_t iqCount = 0;
    size_t feCount = 0;

    size_t pendingCount() const { return inFlight - iqCount - feCount; }

    /** Element @p logical positions past the IQ head. */
    InFlight &
    slotAt(size_t logical)
    {
        return window[(head + logical) & winMask];
    }

    void pushPending(const Record &rec);
    void growWindow();

    uint64_t now = 0;
    uint64_t fetchBlockedUntil = 0;
    bool fetchHaltedForBranch = false;
    uint32_t lastFetchLine = 0xFFFFFFFFu;
    /** log2(L1-I line bytes), hoisted off the per-record fetch path. */
    uint32_t l1iLineShift = 0;
    /** Execution latency by host opcode (hoists issueOne's switch). */
    std::array<uint32_t, static_cast<size_t>(host::HOp::NumOps)>
        opLatency{};

    /**
     * Exact integer cycle accounting in units of 1/unitDenom cycles,
     * unitDenom = lcm(1..issueWidth): a cycle issuing k instructions
     * charges each one unitDenom/k units (an exact integer for every
     * k <= issueWidth), a stalled cycle charges unitDenom units to
     * one cell. Integer addition is associative, so bulk-charging a
     * stall run or reordering per-slot charges is bit-identical to
     * the reference per-cycle additions after the single conversion
     * to doubles at finish() — while breaking the FP-add latency
     * chain on the per-cycle path and letting stall runs account in
     * O(1). Both cores accumulate these same units at every width.
     */
    uint64_t unitDenom;
    /** unitDenom / k for k issued instructions (no hot-path divide). */
    std::array<uint64_t, kMaxIssueWidth + 1> unitsPerIssue{};
    std::array<std::array<uint64_t, kNumModules>, kNumBuckets>
        bucketUnits{};
    std::array<std::array<uint64_t, 2>, kNumBuckets> bucketSrcUnits{};

    /** Sticky cause of front-end starvation for empty-IQ accounting. */
    Bucket starveBucket = Bucket::IcacheBubble;
    Module starveModule = Module::App;
    bool starveSrcRegion = true;

    // Scoreboard over 96 register ids (64 int + 32 fp). One struct
    // per register so an issue/stall touches one cache line, not
    // four.
    struct RegState
    {
        uint64_t ready = 0;       ///< first cycle the value is ready
        Module producer = Module::App;
        bool producerSrc = false;
        bool loadMiss = false;
    };
    std::array<RegState, 96> regs{};

    PipeStats stat;
    bool finished = false;
};

/** Fan-out sink: forwards each record to several pipelines. */
class RecordFanout : public RecordSink
{
  public:
    /** Register a downstream sink (not owned). */
    void add(RecordSink *sink) { sinks.push_back(sink); }

    /** Forward one record to every registered sink. */
    void
    consume(const Record &rec) override
    {
        for (RecordSink *s : sinks)
            s->consume(rec);
    }

    /** Forward a batch to every registered sink. */
    void
    consumeBatch(const Record *recs, size_t count) override
    {
        for (RecordSink *s : sinks)
            s->consumeBatch(recs, count);
    }

  private:
    std::vector<RecordSink *> sinks;
};

} // namespace darco::timing

#endif // DARCO_TIMING_PIPELINE_HH
