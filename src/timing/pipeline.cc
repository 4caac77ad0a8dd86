#include "timing/pipeline.hh"

#include <algorithm>
#include <cstdio>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "host/address_map.hh"

namespace darco::timing {

const char *
bucketName(Bucket b)
{
    static const char *names[] = {
        "instructions", "dcache-bubble", "icache-bubble",
        "branch-bubble", "scheduling",
    };
    return names[static_cast<unsigned>(b)];
}

const char *
moduleName(Module m)
{
    static const char *names[] = {
        "app", "tol-other", "im", "bbm", "sbm", "chaining", "lookup",
    };
    return names[static_cast<unsigned>(m)];
}

std::string
diffStats(const PipeStats &a, const PipeStats &b)
{
    std::string diff;
    char line[160];
    auto mismatch_u64 = [&](const char *what, uint64_t va,
                            uint64_t vb) {
        if (va != vb) {
            std::snprintf(line, sizeof(line),
                          "%s: %llu != %llu\n", what,
                          static_cast<unsigned long long>(va),
                          static_cast<unsigned long long>(vb));
            diff += line;
        }
    };
    auto mismatch_f64 = [&](const char *what, unsigned i, unsigned j,
                            double va, double vb) {
        if (!(va == vb)) {
            std::snprintf(line, sizeof(line),
                          "%s[%u][%u]: %.17g != %.17g\n", what, i, j,
                          va, vb);
            diff += line;
        }
    };

    auto mismatch_u64_cell = [&](const char *what, unsigned i,
                                 unsigned j, uint64_t va, uint64_t vb) {
        if (va != vb) {
            std::snprintf(line, sizeof(line),
                          "%s[%u][%u]: %llu != %llu\n", what, i, j,
                          static_cast<unsigned long long>(va),
                          static_cast<unsigned long long>(vb));
            diff += line;
        }
    };

    mismatch_u64("cycles", a.cycles, b.cycles);
    mismatch_u64("records", a.records, b.records);
    mismatch_u64("unitDenom", a.unitDenom, b.unitDenom);
    for (unsigned m = 0; m < kNumModules; ++m)
        mismatch_u64(moduleName(static_cast<Module>(m)), a.insts[m],
                     b.insts[m]);
    for (unsigned bk = 0; bk < kNumBuckets; ++bk) {
        for (unsigned m = 0; m < kNumModules; ++m) {
            mismatch_u64_cell("bucketUnits", bk, m,
                              a.bucketUnits[bk][m],
                              b.bucketUnits[bk][m]);
            mismatch_f64("bucket", bk, m, a.bucket[bk][m],
                         b.bucket[bk][m]);
        }
        for (unsigned s = 0; s < 2; ++s) {
            mismatch_u64_cell("bucketSrcUnits", bk, s,
                              a.bucketSrcUnits[bk][s],
                              b.bucketSrcUnits[bk][s]);
            mismatch_f64("bucketSrc", bk, s, a.bucketSrc[bk][s],
                         b.bucketSrc[bk][s]);
        }
    }

    const CacheStats *cas[] = {&a.l1i, &a.l1d, &a.l2};
    const CacheStats *cbs[] = {&b.l1i, &b.l1d, &b.l2};
    const char *cnames[] = {"l1i", "l1d", "l2"};
    for (unsigned c = 0; c < 3; ++c) {
        std::string p = cnames[c];
        mismatch_u64((p + ".accesses").c_str(), cas[c]->accesses,
                     cbs[c]->accesses);
        mismatch_u64((p + ".misses").c_str(), cas[c]->misses,
                     cbs[c]->misses);
        mismatch_u64((p + ".writebacks").c_str(), cas[c]->writebacks,
                     cbs[c]->writebacks);
        mismatch_u64((p + ".prefetchFills").c_str(),
                     cas[c]->prefetchFills, cbs[c]->prefetchFills);
    }

    mismatch_u64("tlb.accesses", a.tlb.accesses, b.tlb.accesses);
    mismatch_u64("tlb.l1Misses", a.tlb.l1Misses, b.tlb.l1Misses);
    mismatch_u64("tlb.l2Misses", a.tlb.l2Misses, b.tlb.l2Misses);

    mismatch_u64("bp.branches", a.bp.branches, b.bp.branches);
    mismatch_u64("bp.condBranches", a.bp.condBranches,
                 b.bp.condBranches);
    mismatch_u64("bp.mispredicts", a.bp.mispredicts,
                 b.bp.mispredicts);
    mismatch_u64("bp.directionMispredicts", a.bp.directionMispredicts,
                 b.bp.directionMispredicts);
    mismatch_u64("bp.targetMispredicts", a.bp.targetMispredicts,
                 b.bp.targetMispredicts);
    mismatch_u64("bp.indirectMispredicts", a.bp.indirectMispredicts,
                 b.bp.indirectMispredicts);

    mismatch_u64("prefetch.trains", a.prefetch.trains,
                 b.prefetch.trains);
    mismatch_u64("prefetch.prefetches", a.prefetch.prefetches,
                 b.prefetch.prefetches);
    return diff;
}

// The derived cycle sums below are computed over the exact integer
// units and divided once, so they are independent of summation order
// and close exactly (summing the per-cell doubles first would round
// at every cell for denominators that are not powers of two).

double
PipeStats::bucketTotal(Bucket b) const
{
    uint64_t units = 0;
    for (unsigned m = 0; m < kNumModules; ++m)
        units += bucketUnits[static_cast<unsigned>(b)][m];
    return static_cast<double>(units) /
           static_cast<double>(unitDenom);
}

double
PipeStats::sourceCycles(bool region) const
{
    uint64_t units = 0;
    for (unsigned b = 0; b < kNumBuckets; ++b)
        units += bucketSrcUnits[b][region ? 1 : 0];
    return static_cast<double>(units) /
           static_cast<double>(unitDenom);
}

double
PipeStats::moduleCycles(Module m) const
{
    uint64_t units = 0;
    for (unsigned b = 0; b < kNumBuckets; ++b)
        units += bucketUnits[b][static_cast<unsigned>(m)];
    return static_cast<double>(units) /
           static_cast<double>(unitDenom);
}

double
PipeStats::tolCycles() const
{
    uint64_t units = 0;
    for (unsigned b = 0; b < kNumBuckets; ++b)
        for (unsigned m = 1; m < kNumModules; ++m)
            units += bucketUnits[b][m];
    return static_cast<double>(units) /
           static_cast<double>(unitDenom);
}

double
PipeStats::appCycles() const
{
    return moduleCycles(Module::App);
}

uint64_t
PipeStats::tolInsts() const
{
    uint64_t total = 0;
    for (unsigned m = 1; m < kNumModules; ++m)
        total += insts[m];
    return total;
}

uint64_t
PipeStats::appInsts() const
{
    return insts[static_cast<unsigned>(Module::App)];
}

double
PipeStats::ipc() const
{
    uint64_t total = 0;
    for (unsigned m = 0; m < kNumModules; ++m)
        total += insts[m];
    return cycles ? static_cast<double>(total) /
                    static_cast<double>(cycles)
                  : 0.0;
}

Pipeline::Pipeline(const TimingConfig &config, Filter f)
    : cfg(config), filter(f),
      eng(config.eventCore ? Engine::EventDriven
                           : Engine::CycleStepped),
      issueWidth(config.issueWidth), iqSize(config.iqSize),
      mispredictPenalty(config.mispredictPenalty),
      prefetcherEnabled(config.prefetcherEnabled),
      l2c(config.l2, nullptr, config.memLatency),
      l1ic(config.l1i, &l2c, config.memLatency),
      l1dc(config.l1d, &l2c, config.memLatency),
      dtlb(config),
      bp(config),
      pf(config.prefetcherEntries, l2c),
      l1iLineShift(floorLog2(config.l1i.lineBytes)),
      unitDenom(accountingDenom(config.issueWidth))
{
    panic_if(issueWidth == 0 || issueWidth > kMaxIssueWidth,
             "issueWidth %u out of range [1, %u]", issueWidth,
             kMaxIssueWidth);
    for (uint32_t k = 1; k <= issueWidth; ++k)
        unitsPerIssue[k] = unitDenom / k;
    // Power-of-two ring; grows on demand via pushPending. The event
    // core's borrowed-batch staging writes one slot past IQ + FE
    // without a grow check (it can only run when the ring pending
    // segment is empty), so the initial size must already cover
    // iqSize + front-end(8) + 1 even for oversized-IQ sweeps.
    size_t slots = 128;
    while (slots < static_cast<size_t>(iqSize) + 8 + 1)
        slots *= 2;
    window.resize(slots);
    winMask = window.size() - 1;
    for (size_t op = 0;
         op < static_cast<size_t>(host::HOp::NumOps); ++op) {
        switch (host::hopInfo(static_cast<host::HOp>(op)).execClass) {
          case host::ExecClass::IntSimple:
            opLatency[op] = cfg.intSimpleLatency;
            break;
          case host::ExecClass::IntComplex:
            opLatency[op] = cfg.intComplexLatency;
            break;
          case host::ExecClass::FpSimple:
            opLatency[op] = cfg.fpSimpleLatency;
            break;
          case host::ExecClass::FpComplex:
            opLatency[op] = cfg.fpComplexLatency;
            break;
          default:
            opLatency[op] = 1;
            break;
        }
    }
}

void
Pipeline::pushPending(const Record &rec)
{
    if (inFlight == window.size())
        growWindow();
    InFlight &slot = window[(head + inFlight) & winMask];
    slot.rec = rec;
    slot.arrival = 0;
    slot.mispredicted = false;
    ++inFlight;
}

void
Pipeline::growWindow()
{
    std::vector<InFlight> bigger(window.size() * 2);
    for (size_t i = 0; i < inFlight; ++i)
        bigger[i] = window[(head + i) & winMask];
    window.swap(bigger);
    winMask = window.size() - 1;
    head = 0;
}

void
Pipeline::accept(const Record &rec)
{
    if (!passesFilter(rec))
        return;

    ++stat.records;
    pushPending(rec);

    // Keep the in-flight window bounded; advance the clock as needed.
    drain(64, false);
}

void
Pipeline::drain(size_t pending_floor, bool to_empty)
{
    if (to_empty ? inFlight == 0 : pendingCount() <= pending_floor)
        return;
    if (eng == Engine::EventDriven) {
        (void)runEventCore(pending_floor, to_empty, nullptr, 0);
        return;
    }
    if (to_empty) {
        while (inFlight != 0)
            step();
    } else {
        while (pendingCount() > pending_floor)
            step();
    }
}

void
Pipeline::consume(const Record &rec)
{
    panic_if(finished, "consume after finish");
    accept(rec);
}

void
Pipeline::consumeBatch(const Record *recs, size_t count)
{
    panic_if(finished, "consume after finish");
    // Bulk-push then drain once. Equivalent to accept() per record:
    // stepped cycles only ever inspect the front of the pending
    // backlog (its depth matters solely as zero/non-zero, and it
    // stays non-zero throughout either drain schedule), so deferring
    // the drain to the end of the batch replays the exact same step
    // sequence with less loop overhead.
    if (eng == Engine::EventDriven && filter == Filter::All) {
        // Zero-copy backlog: the batch buffer itself serves as the
        // tail of the pending segment. Only what the drain leaves
        // unfetched is staged into the ring — the bytes the model
        // sees, and the order it sees them in, are unchanged.
        //
        // The drain runs deeper than the reference's floor of 64:
        // any floor >= issueWidth is equivalent, because a cycle's
        // behaviour depends on the backlog depth only through "at
        // least a full fetch group available", and with floor >=
        // issueWidth every executed cycle still sees more backlog
        // than one fetch can consume. A shallower floor would let a
        // cycle run with backlog < issueWidth and fetch a truncated
        // group the reference schedule never sees. Draining as close
        // to that bound as allowed minimizes what must be staged
        // into the ring when the borrowed buffer dies.
        stat.records += count;
        const size_t floor = issueWidth > 2 ? issueWidth : 2;
        const size_t used = runEventCore(floor, false, recs, count);
        const size_t left = count - used;
        while (window.size() < inFlight + left)
            growWindow();
        for (size_t i = used; i < count; ++i) {
            InFlight &slot = window[(head + inFlight) & winMask];
            slot.rec = recs[i];
            slot.arrival = 0;
            slot.mispredicted = false;
            ++inFlight;
        }
        return;
    }
    for (size_t i = 0; i < count; ++i) {
        if (!passesFilter(recs[i]))
            continue;
        ++stat.records;
        pushPending(recs[i]);
    }
    drain(64, false);
}

bool
Pipeline::workRemains() const
{
    return inFlight != 0;
}

void
Pipeline::finish()
{
    if (finished)
        return;
    drain(0, true);
    finished = true;
    // The one units -> doubles conversion: both cores accumulate the
    // identical integer units, so the derived doubles are identical
    // too (equal integers divide to equal doubles).
    stat.unitDenom = unitDenom;
    const double denom = static_cast<double>(unitDenom);
    for (unsigned b = 0; b < kNumBuckets; ++b) {
        for (unsigned m = 0; m < kNumModules; ++m) {
            stat.bucketUnits[b][m] = bucketUnits[b][m];
            stat.bucket[b][m] =
                static_cast<double>(bucketUnits[b][m]) / denom;
        }
        for (unsigned si = 0; si < 2; ++si) {
            stat.bucketSrcUnits[b][si] = bucketSrcUnits[b][si];
            stat.bucketSrc[b][si] =
                static_cast<double>(bucketSrcUnits[b][si]) / denom;
        }
    }
    stat.cycles = now;
    stat.l1i = l1ic.stats();
    stat.l1d = l1dc.stats();
    stat.l2 = l2c.stats();
    stat.tlb = dtlb.stats();
    stat.bp = bp.stats();
    stat.prefetch = pf.stats();
}

void
Pipeline::issueOne(InFlight &inflight)
{
    const Record &rec = inflight.rec;
    const unsigned mod = static_cast<unsigned>(rec.module);

    uint32_t latency = opLatency[static_cast<size_t>(rec.op)];

    bool load_missed = false;
    if (rec.isLoad) {
        uint32_t extra = 0;
        if (host::amap::isGuestAddr(rec.memAddr))
            extra = dtlb.access(rec.memAddr);
        bool miss = false;
        const uint32_t dlat = l1dc.access(rec.memAddr, false, miss);
        if (prefetcherEnabled)
            pf.train(rec.pc, rec.memAddr);
        latency = 1 + extra + dlat;
        load_missed = miss || extra > 0;
    } else if (rec.isStore) {
        // Stores retire through an ideal store buffer: they update the
        // hierarchy (and may evict) but never stall the pipe.
        if (host::amap::isGuestAddr(rec.memAddr))
            (void)dtlb.access(rec.memAddr);
        bool miss = false;
        (void)l1dc.access(rec.memAddr, true, miss);
        latency = 1;
    }

    if (rec.rd != host::kNoReg) {
        RegState &rd = regs[rec.rd];
        rd.ready = now + 1 + (latency > 1 ? latency - 1 : 0);
        rd.producer = rec.module;
        rd.producerSrc = rec.fromRegion;
        rd.loadMiss = rec.isLoad && load_missed;
    }

    if (rec.isBranch && inflight.mispredicted) {
        // Resolved in EXE; the front-end refetches afterwards so the
        // end-to-end penalty equals mispredictPenalty.
        fetchBlockedUntil = now + mispredictPenalty - 3;
        fetchHaltedForBranch = false;
        starveBucket = Bucket::BranchBubble;
        starveModule = rec.module;
        starveSrcRegion = rec.fromRegion;
    }

    ++stat.insts[mod];
}

void
Pipeline::issuePhase(unsigned &issued_count)
{
    // Issue up to issueWidth instructions and account the cycle to
    // exactly one bucket. The stall cause captured when the issue
    // loop breaks doubles as the accounting classification, so the
    // IQ head and the scoreboard are scanned once per cycle, not
    // twice.
    issued_count = 0;
    std::array<uint8_t, kMaxIssueWidth> issued_modules{};
    std::array<uint8_t, kMaxIssueWidth> issued_src{};

    bool head_waiting = false;       ///< head present but blocked
    uint8_t blocking = host::kNoReg; ///< first not-ready source

    while (issued_count < issueWidth && iqCount != 0) {
        InFlight &iq_head = slotAt(0);
        if (iq_head.arrival > now)
            break;

        // Scoreboard: both sources ready?
        const uint8_t srcs[2] = {iq_head.rec.rs1, iq_head.rec.rs2};
        for (uint8_t src : srcs) {
            if (src != host::kNoReg && src < regs.size() &&
                regs[src].ready > now) {
                blocking = src;
                break;
            }
        }
        if (blocking != host::kNoReg) {
            head_waiting = true;
            break;
        }

        issueOne(iq_head);
        issued_modules[issued_count] =
            static_cast<uint8_t>(iq_head.rec.module);
        issued_src[issued_count] = iq_head.rec.fromRegion ? 1 : 0;
        head = (head + 1) & winMask;
        --inFlight;
        --iqCount;
        ++issued_count;
    }

    if (issued_count) {
        // Each of the k issued instructions carries 1/k of the cycle:
        // unitDenom / k integer units, exact for every k <= width.
        const uint64_t per = unitsPerIssue[issued_count];
        for (unsigned i = 0; i < issued_count; ++i) {
            bucketUnits[static_cast<unsigned>(Bucket::Insts)]
                       [issued_modules[i]] += per;
            bucketSrcUnits[static_cast<unsigned>(Bucket::Insts)]
                          [issued_src[i]] += per;
        }
        return;
    }

    // Stalled cycle: classify and charge one full cycle.
    unsigned b_idx, m_idx, s_idx;
    if (head_waiting) {
        // Head present but not issuable: scoreboard stall.
        const InFlight &iq_head = slotAt(0);
        if (regs[blocking].loadMiss) {
            b_idx = static_cast<unsigned>(Bucket::DcacheBubble);
            m_idx = static_cast<unsigned>(regs[blocking].producer);
            s_idx = regs[blocking].producerSrc ? 1 : 0;
        } else {
            b_idx = static_cast<unsigned>(Bucket::SchedBubble);
            m_idx = static_cast<unsigned>(iq_head.rec.module);
            s_idx = iq_head.rec.fromRegion ? 1 : 0;
        }
    } else {
        // IQ empty (or only future arrivals): front-end starvation.
        b_idx = static_cast<unsigned>(starveBucket);
        m_idx = static_cast<unsigned>(starveModule);
        s_idx = starveSrcRegion ? 1 : 0;
    }
    bucketUnits[b_idx][m_idx] += unitDenom;
    bucketSrcUnits[b_idx][s_idx] += unitDenom;
}

void
Pipeline::fetchPhase()
{
    // Move front-end arrivals into the IQ (a counter move: the
    // element is already in place in the window).
    while (feCount != 0 && slotAt(iqCount).arrival <= now + 1 &&
           iqCount < iqSize) {
        ++iqCount;
        --feCount;
    }

    if (now < fetchBlockedUntil || fetchHaltedForBranch)
        return;

    unsigned fetched = 0;
    size_t fetch_pos = iqCount + feCount;  ///< next pending slot
    const size_t in_flight_total = inFlight;
    while (fetched < issueWidth && fetch_pos < in_flight_total &&
           feCount < 8) {
        InFlight &inflight = slotAt(fetch_pos);
        const Record &rec = inflight.rec;

        const uint32_t line = rec.pc >> l1iLineShift;
        if (line != lastFetchLine) {
            bool miss = false;
            const uint32_t lat = l1ic.access(rec.pc, false, miss);
            lastFetchLine = line;
            if (miss) {
                // Fetch resumes after the fill; this instruction
                // completes its front-end traversal afterwards.
                fetchBlockedUntil = now + lat;
                starveBucket = Bucket::IcacheBubble;
                starveModule = rec.module;
                starveSrcRegion = rec.fromRegion;
                inflight.arrival = now + lat + 3;
                if (rec.isBranch) {
                    inflight.mispredicted = !bp.predict(
                        rec.pc, rec.taken, rec.branchTarget,
                        rec.isCondBranch, rec.isIndirect);
                    if (inflight.mispredicted) {
                        fetchHaltedForBranch = true;
                        starveBucket = Bucket::BranchBubble;
                        starveModule = rec.module;
                        starveSrcRegion = rec.fromRegion;
                    }
                }
                ++feCount;
                return;
            }
        }

        inflight.arrival = now + 3;  // AC/IF/DEC traversal
        if (rec.isBranch) {
            inflight.mispredicted = !bp.predict(
                rec.pc, rec.taken, rec.branchTarget, rec.isCondBranch,
                rec.isIndirect);
        }
        ++feCount;
        ++fetch_pos;
        ++fetched;

        if (rec.isBranch && inflight.mispredicted) {
            // Wrong-path fetch suppressed until the branch resolves.
            fetchHaltedForBranch = true;
            starveBucket = Bucket::BranchBubble;
            starveModule = rec.module;
            starveSrcRegion = rec.fromRegion;
            return;
        }
    }
}

void
Pipeline::step()
{
    unsigned issued = 0;
    issuePhase(issued);
    fetchPhase();
    ++now;
}

/*
 * Event-driven core.
 *
 * The reference semantics are: every cycle runs issuePhase(now), then
 * fetchPhase(now), then ++now. This core reproduces those semantics
 * exactly (same component accesses in the same order, same accounting
 * cells updated by the same amounts) while doing strictly less host
 * work, via two mechanisms — the full equivalence argument, event
 * type by event type, is in docs/timing-model.md:
 *
 * 1. Merged active-cycle body. One loop iteration is one active
 *    cycle: the issue phase, the FE->IQ mover, and the fetch phase
 *    are inlined into a single body operating on *local* copies of
 *    the hot pipeline state (clock, ring counters, fetch-block /
 *    branch-halt state, sticky starvation cause). Locals survive the
 *    component calls (cache/TLB/predictor accesses) in callee-saved
 *    registers, where the reference core must conservatively reload
 *    members after every such call; and no per-cycle gate or
 *    function-call boundary remains. The operations themselves — and
 *    therefore every counter and every PLRU/gshare/BTB state machine
 *    — are the reference ones, verbatim.
 *
 * 2. Event-horizon fast-forward. After a cycle in which nothing
 *    issued, nothing moved to the IQ, and nothing fetched, the
 *    pipeline state is provably constant until the earliest of the
 *    pending events:
 *      - issue-ready:      the IQ head's arrival cycle,
 *      - writeback:        the blocking register's scoreboard ready
 *                          time (load-miss completion included — the
 *                          miss latency was charged at issue, so the
 *                          completion time is fully determined),
 *      - fetch-ready:      the FE head's arrival - 1 (the mover
 *                          moves entries one cycle early),
 *      - I-miss completion: fetchBlockedUntil (set when the I-cache
 *                          miss was charged, so also determined),
 *      - branch-resolve:   subsumed by issue-ready — the halt ends
 *                          when the mispredicted branch issues.
 *    Every skipped cycle would have charged exactly one full cycle
 *    to the same (bucket, module, source) cell that the first stalled
 *    cycle was charged to, so the whole run is accounted in one
 *    integer add — associative, hence bit-identical after the single
 *    units -> double conversion in finish().
 *
 * All accounting is in exact integer units of 1/lcm(1..W) cycles
 * (accountingDenom), so the argument holds at every issue width —
 * a cycle issuing k instructions charges W!/k-style integer shares
 * that merge associatively, never rounded doubles.
 */
size_t
Pipeline::runEventCore(size_t pending_floor, bool to_empty,
                       const Record *ext, size_t ext_count)
{
    panic_if(to_empty && ext_count != 0,
             "event core: final drain with a borrowed batch");
    // Single-width instantiations for the common sweep points let
    // the compiler unroll the issue/fetch slot loops and fold the
    // per-issue unit shares to constants; other widths share the
    // generic (runtime-width) instantiation.
    switch (issueWidth) {
      case 1:
        return runEventCoreImpl<1>(pending_floor, to_empty, ext,
                                   ext_count);
      case 2:
        return runEventCoreImpl<2>(pending_floor, to_empty, ext,
                                   ext_count);
      case 4:
        return runEventCoreImpl<4>(pending_floor, to_empty, ext,
                                   ext_count);
      default:
        return runEventCoreImpl<0>(pending_floor, to_empty, ext,
                                   ext_count);
    }
}

template <unsigned W>
size_t
Pipeline::runEventCoreImpl(size_t pending_floor, bool to_empty,
                           const Record *ext, size_t ext_count)
{
    // Hoisted pipeline state; written back on exit.
    size_t ext_pos = 0;
    uint64_t t = now;
    size_t hd = head;
    size_t n_flight = inFlight;
    size_t iq_n = iqCount;
    size_t fe_n = feCount;
    uint64_t fetch_blocked = fetchBlockedUntil;
    bool fetch_halted = fetchHaltedForBranch;
    uint32_t last_line = lastFetchLine;
    Bucket starve_b = starveBucket;
    Module starve_m = starveModule;
    bool starve_src = starveSrcRegion;

    InFlight *const win = window.data();
    const size_t mask = winMask;
    const uint32_t width = W != 0 ? W : issueWidth;
    // Folds to a compile-time constant in the single-width
    // instantiations; one register in the generic one.
    const uint64_t unit_denom =
        W != 0 ? accountingDenom(W) : unitDenom;
    const uint32_t iq_cap = iqSize;
    const uint32_t line_shift = l1iLineShift;
    constexpr unsigned insts_b = static_cast<unsigned>(Bucket::Insts);

    while (to_empty
               ? n_flight != 0
               : n_flight - iq_n - fe_n + (ext_count - ext_pos) >
                     pending_floor) {
        // ---- issue phase (reference issuePhase, integer units) ----
        unsigned issued = 0;
        std::array<uint8_t, kMaxIssueWidth> issue_m;
        std::array<uint8_t, kMaxIssueWidth> issue_s;
        uint8_t blocking = host::kNoReg;

        // Side effects run here in reference order; the accounting
        // adds are deferred past the slot attempts because the 1/k
        // per-slot share is only known once the cycle's issue count
        // k is — integer unit cells, so the deferral is exact.
        auto try_issue = [&]() {
            if (iq_n == 0)
                return false;
            InFlight &iq_head = win[hd];
            if (iq_head.arrival > t)
                return false;
            const Record &rec = iq_head.rec;
            const uint8_t sr1 = rec.rs1;
            const uint8_t sr2 = rec.rs2;
            if (sr1 != host::kNoReg && sr1 < regs.size() &&
                regs[sr1].ready > t) {
                blocking = sr1;
                return false;
            }
            if (sr2 != host::kNoReg && sr2 < regs.size() &&
                regs[sr2].ready > t) {
                blocking = sr2;
                return false;
            }

            // Reference issueOne against the hoisted clock.
            uint32_t latency = opLatency[static_cast<size_t>(rec.op)];
            bool load_missed = false;
            if (rec.isLoad) {
                uint32_t extra = 0;
                if (host::amap::isGuestAddr(rec.memAddr))
                    extra = dtlb.access(rec.memAddr);
                bool miss = false;
                const uint32_t dlat =
                    l1dc.access(rec.memAddr, false, miss);
                if (prefetcherEnabled)
                    pf.train(rec.pc, rec.memAddr);
                latency = 1 + extra + dlat;
                load_missed = miss || extra > 0;
            } else if (rec.isStore) {
                if (host::amap::isGuestAddr(rec.memAddr))
                    (void)dtlb.access(rec.memAddr);
                bool miss = false;
                (void)l1dc.access(rec.memAddr, true, miss);
                latency = 1;
            }
            if (rec.rd != host::kNoReg) {
                RegState &rd = regs[rec.rd];
                rd.ready = t + 1 + (latency > 1 ? latency - 1 : 0);
                rd.producer = rec.module;
                rd.producerSrc = rec.fromRegion;
                rd.loadMiss = rec.isLoad && load_missed;
            }
            if (rec.isBranch && iq_head.mispredicted) {
                // Branch-resolve event: EXE redirect; refetch after
                // the remaining penalty (reference issueOne).
                fetch_blocked = t + mispredictPenalty - 3;
                fetch_halted = false;
                starve_b = Bucket::BranchBubble;
                starve_m = rec.module;
                starve_src = rec.fromRegion;
            }
            issue_m[issued] = static_cast<uint8_t>(rec.module);
            issue_s[issued] = rec.fromRegion ? 1 : 0;

            hd = (hd + 1) & mask;
            --n_flight;
            --iq_n;
            return true;
        };

        while (issued < width && try_issue())
            ++issued;

        unsigned b_idx = 0, m_idx = 0, s_idx = 0;
        uint64_t stall_until = 0;
        if (issued != 0) {
            // 1/k of the cycle per issued instruction — unitDenom/k
            // integer units, exact for every k <= width. Integer
            // adds merge associatively, so the per-slot order (and
            // any coalescing below) cannot change the converted
            // totals.
            if constexpr (W == 2) {
                // Dual-issue fast path: charges with matching
                // attribution (the common case) land as one add per
                // cell.
                const unsigned m0 = issue_m[0], s0 = issue_s[0];
                if (issued == 2) {
                    const unsigned m1 = issue_m[1], s1 = issue_s[1];
                    if (m0 == m1) {
                        bucketUnits[insts_b][m0] += 2;
                        stat.insts[m0] += 2;
                    } else {
                        bucketUnits[insts_b][m0] += 1;
                        bucketUnits[insts_b][m1] += 1;
                        ++stat.insts[m0];
                        ++stat.insts[m1];
                    }
                    if (s0 == s1) {
                        bucketSrcUnits[insts_b][s0] += 2;
                    } else {
                        bucketSrcUnits[insts_b][s0] += 1;
                        bucketSrcUnits[insts_b][s1] += 1;
                    }
                } else {
                    // Solo issue carries the whole cycle.
                    bucketUnits[insts_b][m0] += 2;
                    bucketSrcUnits[insts_b][s0] += 2;
                    ++stat.insts[m0];
                }
            } else {
                const uint64_t per = unitsPerIssue[issued];
                for (unsigned i = 0; i < issued; ++i) {
                    bucketUnits[insts_b][issue_m[i]] += per;
                    bucketSrcUnits[insts_b][issue_s[i]] += per;
                    ++stat.insts[issue_m[i]];
                }
            }
        } else {
            // Stalled cycle: classify once; the classification both
            // charges this cycle and names the event that ends the
            // stall (used by the fast-forward below).
            if (blocking != host::kNoReg) {
                const RegState &src = regs[blocking];
                if (src.loadMiss) {
                    b_idx = static_cast<unsigned>(Bucket::DcacheBubble);
                    m_idx = static_cast<unsigned>(src.producer);
                    s_idx = src.producerSrc ? 1 : 0;
                } else {
                    const InFlight &iq_head = win[hd];
                    b_idx = static_cast<unsigned>(Bucket::SchedBubble);
                    m_idx = static_cast<unsigned>(iq_head.rec.module);
                    s_idx = iq_head.rec.fromRegion ? 1 : 0;
                }
                stall_until = src.ready;       // writeback event
            } else {
                b_idx = static_cast<unsigned>(starve_b);
                m_idx = static_cast<unsigned>(starve_m);
                s_idx = starve_src ? 1 : 0;
                // Issue-ready event (IQ head arrival), or unbounded
                // until a fetch-side event below.
                stall_until =
                    iq_n != 0 ? win[hd].arrival : UINT64_MAX;
            }
            bucketUnits[b_idx][m_idx] += unit_denom;
            bucketSrcUnits[b_idx][s_idx] += unit_denom;
        }

        // ---- fetch phase (reference fetchPhase) ----
        bool moved = false;
        while (fe_n != 0 && win[(hd + iq_n) & mask].arrival <= t + 1 &&
               iq_n < iq_cap) {
            ++iq_n;
            --fe_n;
            moved = true;
        }
        bool did_fetch = false;
        if (t >= fetch_blocked && !fetch_halted) {
            unsigned fetched = 0;
            size_t fetch_pos = iq_n + fe_n;
            while (fetched < width && fe_n < 8) {
                InFlight *inflight_p;
                if (fetch_pos < n_flight) {
                    inflight_p = &win[(hd + fetch_pos) & mask];
                } else if (ext_pos < ext_count) {
                    // Stage the next borrowed backlog record into
                    // the ring as it enters the front-end. The ring
                    // pending segment is empty here (fetch consumed
                    // it first), so the next free slot is exactly
                    // the front-end tail.
                    inflight_p = &win[(hd + n_flight) & mask];
                    inflight_p->rec = ext[ext_pos];
                    ++ext_pos;
                    ++n_flight;
                } else {
                    break;
                }
                InFlight &inflight = *inflight_p;
                const Record &rec = inflight.rec;
                const uint32_t line = rec.pc >> line_shift;
                if (line != last_line) {
                    bool miss = false;
                    const uint32_t lat =
                        l1ic.access(rec.pc, false, miss);
                    last_line = line;
                    if (miss) {
                        // I-miss completion event: the fill latency
                        // is known now, so the unblock cycle is too.
                        fetch_blocked = t + lat;
                        starve_b = Bucket::IcacheBubble;
                        starve_m = rec.module;
                        starve_src = rec.fromRegion;
                        inflight.arrival = t + lat + 3;
                        if (rec.isBranch) {
                            inflight.mispredicted = !bp.predict(
                                rec.pc, rec.taken, rec.branchTarget,
                                rec.isCondBranch, rec.isIndirect);
                            if (inflight.mispredicted) {
                                fetch_halted = true;
                                starve_b = Bucket::BranchBubble;
                                starve_m = rec.module;
                                starve_src = rec.fromRegion;
                            }
                        }
                        ++fe_n;
                        did_fetch = true;
                        break;
                    }
                }
                inflight.arrival = t + 3;  // AC/IF/DEC traversal
                if (rec.isBranch) {
                    inflight.mispredicted = !bp.predict(
                        rec.pc, rec.taken, rec.branchTarget,
                        rec.isCondBranch, rec.isIndirect);
                }
                ++fe_n;
                ++fetch_pos;
                ++fetched;
                did_fetch = true;
                if (rec.isBranch && inflight.mispredicted) {
                    // Wrong-path fetch suppressed until resolve.
                    fetch_halted = true;
                    starve_b = Bucket::BranchBubble;
                    starve_m = rec.module;
                    starve_src = rec.fromRegion;
                    break;
                }
            }
        }

        ++t;
        if (issued != 0 || moved || did_fetch)
            continue;

        // ---- event horizon: nothing happened this cycle, so the
        // state is frozen until the earliest pending event. Cycle
        // t-1 was already charged above; [t, limit) is charged in
        // one associative integer add. ----
        uint64_t limit = stall_until;
        if (fe_n != 0 && iq_n < iq_cap) {
            // Fetch-ready event: the mover acts one cycle before the
            // FE head's arrival (arrival <= cycle+1).
            limit = std::min(limit,
                             win[(hd + iq_n) & mask].arrival - 1);
        }
        if (!fetch_halted && fe_n < 8 &&
            n_flight - iq_n - fe_n + (ext_count - ext_pos) != 0) {
            // I-miss completion unblocks fetch. On an inert cycle
            // with records pending and FE space, fetch can only have
            // been blocked, so fetch_blocked > t-1 here.
            limit = std::min(limit, fetch_blocked);
        }
        // Unbounded only if the IQ, FE and pending backlog are all
        // empty (nothing in flight), which the loop condition
        // excludes; a halt with empty IQ+FE is impossible because
        // the halting branch stays in flight until it issues.
        panic_if(limit == UINT64_MAX,
                 "event core: inert cycle with no pending event");
        if (limit > t) {
            const uint64_t span = limit - t;
            bucketUnits[b_idx][m_idx] += unit_denom * span;
            bucketSrcUnits[b_idx][s_idx] += unit_denom * span;
            t = limit;
        }
    }

    now = t;
    head = hd;
    inFlight = n_flight;
    iqCount = iq_n;
    feCount = fe_n;
    fetchBlockedUntil = fetch_blocked;
    fetchHaltedForBranch = fetch_halted;
    lastFetchLine = last_line;
    starveBucket = starve_b;
    starveModule = starve_m;
    starveSrcRegion = starve_src;
    return ext_pos;
}

} // namespace darco::timing
