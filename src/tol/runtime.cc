#include "tol/runtime.hh"

#include <algorithm>

#include "analysis/verify.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "ir/passes.hh"
#include "ir/scheduler.hh"

namespace darco::tol {

namespace g = darco::guest;
namespace amap = darco::host::amap;
namespace hreg = darco::host::hreg;
namespace hctx = darco::host::ctx;

Runtime::Runtime(const TolConfig &config, host::Memory &memory,
                 timing::RecordSink &record_sink)
    : cfg(config), mem(memory), batcher(record_sink), cost(batcher),
      store(amap::kCodeCacheBase,
            amap::kCodeCacheBase + config.codeCacheBytes),
      exec(store, memory, batcher),
      transMap(config, memory),
      profiler(config, memory),
      ibtc(config, memory),
      reader(memory),
      flagScanner(reader),
      translator(config),
      interp(config, memory, reader, cost.im)
{
    panic_if(config.codeCacheBytes >
             amap::kCodeCacheLimit - amap::kCodeCacheBase,
             "code cache larger than its address window");
    if (config.sbPartitionPercent)
        store.partitionForSuperblocks(config.sbPartitionPercent);
}

void
Runtime::load(const guest::Program &program)
{
    program.loadInto(mem);
    gstate = program.initialState();
    guestHalted = false;
    stateInRegs = false;
    knownFlagsMask = 0;

    // Reserved application-partition registers (set once at start).
    exec.x[hreg::SbThreshold] = cfg.bbToSbThreshold;
    exec.x[hreg::IbtcBase] = amap::kIbtcBase;
    exec.x[hreg::CtxBase] = amap::kContextBase;
    writeContextBlock();

    // TOL initialization work (one-off).
    cost.other.alu(64);
    batcher.flush();
}

// ---------------------------------------------------------------------
// State-location management
// ---------------------------------------------------------------------

void
Runtime::writeContextBlock()
{
    const uint32_t base = amap::kContextBase;
    for (unsigned r = 0; r < g::NumGprs; ++r)
        mem.store32(base + hctx::gprAddr(r), gstate.gpr[r]);
    mem.store32(base + hctx::flagAddr(0), gstate.eflags);
    mem.store32(base + hctx::kEipOffset, gstate.eip);
    for (unsigned r = 0; r < g::NumFprs; ++r)
        mem.storeDouble(base + hctx::fprAddr(r), gstate.fpr[r]);
}

void
Runtime::ensureInRegs()
{
    // Functional copy is unconditional (registers are authoritative
    // while translated code runs); the *transition traffic* is only
    // charged when the state actually crosses from the context block.
    for (unsigned r = 0; r < g::NumGprs; ++r)
        exec.x[hreg::guestGpr(r)] = gstate.gpr[r];
    exec.x[hreg::FlagZ] = (gstate.eflags & g::flag::ZF) ? 1 : 0;
    exec.x[hreg::FlagS] = (gstate.eflags & g::flag::SF) ? 1 : 0;
    exec.x[hreg::FlagC] = (gstate.eflags & g::flag::CF) ? 1 : 0;
    exec.x[hreg::FlagO] = (gstate.eflags & g::flag::OF) ? 1 : 0;
    for (unsigned r = 0; r < g::NumFprs; ++r)
        exec.f[hreg::guestFpr(r)] = gstate.fpr[r];

    if (!stateInRegs) {
        ++tolStats.contextFills;
        const uint32_t base = amap::kContextBase;
        for (unsigned r = 0; r < g::NumGprs; ++r)
            cost.other.load(base + hctx::gprAddr(r));
        cost.other.load(base + hctx::flagAddr(0));
        cost.other.alu(4);  // unpack flag bits
        for (unsigned r = 0; r < g::NumFprs; ++r)
            cost.other.load(base + hctx::fprAddr(r), 8);
        stateInRegs = true;
    }
}

void
Runtime::ensureInCtx()
{
    if (stateInRegs) {
        ++tolStats.contextSpills;
        const uint32_t base = amap::kContextBase;
        for (unsigned r = 0; r < g::NumGprs; ++r)
            cost.other.store(base + hctx::gprAddr(r));
        cost.other.alu(4);  // pack flag bits
        cost.other.store(base + hctx::flagAddr(0));
        for (unsigned r = 0; r < g::NumFprs; ++r)
            cost.other.store(base + hctx::fprAddr(r), 8);
        stateInRegs = false;
    }
    writeContextBlock();
}

void
Runtime::syncRegsToState(uint8_t flag_mask)
{
    for (unsigned r = 0; r < g::NumGprs; ++r)
        gstate.gpr[r] = exec.x[hreg::guestGpr(r)];
    for (unsigned r = 0; r < g::NumFprs; ++r)
        gstate.fpr[r] = exec.f[hreg::guestFpr(r)];

    auto apply = [&](uint8_t bit, uint8_t host_reg, uint32_t eflag) {
        if (!(flag_mask & bit))
            return;
        if (exec.x[host_reg])
            gstate.eflags |= eflag;
        else
            gstate.eflags &= ~eflag;
    };
    apply(ir::fmask::Z, hreg::FlagZ, g::flag::ZF);
    apply(ir::fmask::S, hreg::FlagS, g::flag::SF);
    apply(ir::fmask::C, hreg::FlagC, g::flag::CF);
    apply(ir::fmask::O, hreg::FlagO, g::flag::OF);
    knownFlagsMask = flag_mask;
}

void
Runtime::commit(uint64_t retired)
{
    if (observer && retired)
        observer->onCommit(retired, gstate, knownFlagsMask);
}

// ---------------------------------------------------------------------
// Cost charging helpers
// ---------------------------------------------------------------------

void
Runtime::chargeTranslationWork(CostStream &stream, uint32_t guest_insts,
                               uint32_t first_eip)
{
    // Fetch guest bytes (as data), decode, generate IR.
    uint32_t eip = first_eip;
    for (uint32_t i = 0; i < guest_insts; ++i) {
        stream.routine(0);
        stream.load(eip + 8 * (i % 4));  // approximate fetch locality
        stream.alu(cfg.bbmDecodeAlus);
        const uint32_t ir_addr =
            amap::kWorkBase + 0x10000 + (irBufCursor++ % 4096) * 16;
        stream.alu(cfg.bbmIrGenAlusPerInst);
        stream.store(ir_addr, 8);
    }
}

void
Runtime::chargePassWork(CostStream &stream, const ir::PassStats &ps,
                        bool hashed)
{
    for (uint32_t i = 0; i < ps.instsVisited; ++i) {
        stream.routine(0x400);
        const uint32_t ir_addr =
            amap::kWorkBase + 0x10000 + (i % 4096) * 16;
        stream.load(ir_addr, 8);
        stream.alu(cfg.passVisitAlus);
        if (hashed && (i & 1)) {
            const uint32_t hash_addr =
                amap::kWorkBase + 0x40000 + ((i * 2654435761u) & 0x3FFF);
            stream.load(hash_addr);
            stream.alu(cfg.cseHashAlus);
        }
    }
}

void
Runtime::chargeEmitWork(CostStream &stream, const host::CodeRegion &rgn)
{
    for (size_t i = 0; i < rgn.insts.size(); ++i) {
        stream.routine(0x800);
        stream.alu(cfg.emitAlusPerInst);
        stream.store(rgn.hostBase +
                     static_cast<uint32_t>(i) * host::kHostInstBytes);
    }
}

// ---------------------------------------------------------------------
// Path building
// ---------------------------------------------------------------------

std::vector<PathInst>
Runtime::buildBbPath(uint32_t eip)
{
    std::vector<PathInst> path;
    uint32_t cur = eip;
    for (uint32_t n = 0; n < cfg.maxBbGuestInsts; ++n) {
        const g::Inst &inst = reader.at(cur);
        path.push_back(PathInst{inst, cur, false});
        if (g::opInfo(inst.op).isBranch || inst.op == g::Op::HALT)
            break;
        cur += inst.length;
    }
    return path;
}

std::vector<PathInst>
Runtime::buildSbPath(uint32_t start_eip)
{
    std::vector<PathInst> path;
    std::unordered_set<uint32_t> visited;
    uint32_t cur = start_eip;

    while (path.size() < cfg.maxSbGuestInsts) {
        std::vector<PathInst> bb = buildBbPath(cur);
        if (path.size() + bb.size() > cfg.maxSbGuestInsts && !path.empty())
            break;
        bool overlap = false;
        for (const PathInst &pi : bb) {
            if (visited.count(pi.eip)) {
                overlap = true;
                break;
            }
        }
        if (overlap)
            break;
        for (const PathInst &pi : bb)
            visited.insert(pi.eip);
        path.insert(path.end(), bb.begin(), bb.end());

        PathInst &term = path.back();
        const g::Inst &ti = term.inst;
        const uint32_t next = term.eip + ti.length;
        uint32_t follow = 0;

        switch (ti.op) {
          case g::Op::JMP:
            follow = next + static_cast<uint32_t>(ti.imm);
            break;
          case g::Op::CALL:
            if (!cfg.sbFollowCalls)
                return path;
            follow = next + static_cast<uint32_t>(ti.imm);
            break;
          case g::Op::JCC: {
            // Consult the BB's edge profile for the bias.
            auto it = bbMeta.find(cur);
            if (it == bbMeta.end())
                return path;
            const uint32_t pb = it->second.profBlockAddr;
            const uint32_t taken = profiler.readWord(
                pb + BbProfileBlock::kTakenOffset, cost.sbm);
            const uint32_t fall = profiler.readWord(
                pb + BbProfileBlock::kFallthroughOffset, cost.sbm);
            const uint32_t total = taken + fall;
            if (total < cfg.sbMinEdgeSamples)
                return path;
            const double bias =
                static_cast<double>(taken) / static_cast<double>(total);
            if (bias >= cfg.sbBranchBias) {
                term.followTaken = true;
                follow = next + static_cast<uint32_t>(ti.imm);
            } else if (1.0 - bias >= cfg.sbBranchBias) {
                term.followTaken = false;
                follow = next;
            } else {
                return path;
            }
            break;
          }
          case g::Op::JMPI:
          case g::Op::CALLI:
          case g::Op::RET:
          case g::Op::HALT:
            return path;
          default:
            // BB cut by the length cap: continue at the next address.
            follow = next;
            break;
        }

        if (visited.count(follow))
            break;
        cur = follow;
    }
    return path;
}

// ---------------------------------------------------------------------
// Translation / optimization
// ---------------------------------------------------------------------

void
Runtime::applyFlagMasks(ir::Trace &trace)
{
    for (ir::IrExit &exit : trace.exits) {
        if (exit.halt) {
            exit.flagMask = 0;
        } else if (exit.indirect) {
            exit.flagMask = ir::fmask::All;
        } else {
            exit.flagMask = flagScanner.liveFlagsAt(exit.guestTarget);
        }
    }
}

void
Runtime::flushCodeCache()
{
    ++tolStats.codeCacheFlushes;
    store.flush();
    transMap.clear(cost.other);
    ibtc.clear(cost.other);
    bbMeta.clear();
    profiler.clearImCounters();
    cost.other.alu(256);  // flush bookkeeping
}

namespace {

/** One IR pass of a tier's pipeline, named by its verifier stage. */
struct NamedPass
{
    const char *stage;
    void (*run)(ir::Trace &, ir::PassStats *);
};

/** Passes whose visits are charged together (one chargePassWork). */
struct PassGroup
{
    std::vector<NamedPass> passes;
    bool hashed = false;  ///< CSE's hash-table probes
};

const std::vector<PassGroup> kNoPasses;

// The paper's BBM "simple optimizations": constant propagation and
// dead code elimination (§III-A).
const std::vector<PassGroup> kBbmPasses = {
    {{{"bbm/const_prop", ir::constantPropagation},
      {"bbm/dce", ir::deadCodeElimination}}},
};

const std::vector<PassGroup> kSbmPasses = {
    {{{"sbm/copy_prop", ir::copyPropagation},
      {"sbm/const_prop", ir::constantPropagation}}},
    {{{"sbm/cse", ir::commonSubexpressionElimination}}, true},
    {{{"sbm/copy_prop2", ir::copyPropagation},
      {"sbm/dce", ir::deadCodeElimination}}},
};

} // namespace

/**
 * A translation tier's share of compileRegion(), in pipeline order:
 * the stream its work is charged to, its verifier stage names, its
 * pass groups (kNoPasses when its optimizations are off) and its
 * scheduler stage (nullptr = no scheduling).
 */
struct Runtime::Tier
{
    CostStream &cost;
    const char *translateStage;
    const std::vector<PassGroup> &passes;
    const char *scheduleStage;
    const char *regallocStage;
};

host::CodeRegion *
Runtime::compileRegion(const std::vector<PathInst> &path, const Tier &tier,
                       const EmitOptions &opts, EmitStats &es)
{
    chargeTranslationWork(tier.cost, static_cast<uint32_t>(path.size()),
                          path.front().eip);

    ir::Trace trace = translator.translate(path);
    applyFlagMasks(trace);
    if (cfg.verifyIr)
        analysis::checkTrace(trace, tier.translateStage);

    for (const PassGroup &group : tier.passes) {
        ir::PassStats ps;
        for (const NamedPass &pass : group.passes) {
            pass.run(trace, &ps);
            if (cfg.verifyIr)
                analysis::checkTrace(trace, pass.stage);
        }
        chargePassWork(tier.cost, ps, group.hashed);
    }

    if (tier.scheduleStage) {
        // The verifier needs the pre-schedule order to re-derive the
        // dependence edges the schedule must respect; the copy exists
        // only under verifyIr, so a verify-off run never pays for it.
        ir::Trace preSchedule;
        if (cfg.verifyIr)
            preSchedule = trace;
        ir::ScheduleStats ss;
        ir::scheduleTrace(trace, &ss);
        tier.cost.alu(cfg.schedAlusPerEdge * ss.edgesBuilt);
        if (cfg.verifyIr) {
            analysis::checkSchedule(preSchedule, trace, tier.scheduleStage);
            analysis::checkTrace(trace, tier.scheduleStage,
                                 /*scheduled=*/true);
        }
    }

    const ir::Allocation alloc = ir::allocateRegisters(trace);
    tier.cost.alu(cfg.regallocAlusPerInterval *
                  static_cast<uint32_t>(trace.numVregs()));
    if (cfg.verifyIr)
        analysis::checkAllocation(trace, alloc, tier.regallocStage);

    host::CodeRegion *installed =
        store.install(emitRegion(trace, alloc, opts, &es));
    if (!installed) {
        // The flush drops every translation (a promoting BB's too);
        // the region then installs into the empty cache.
        flushCodeCache();
        installed = store.install(emitRegion(trace, alloc, opts, &es));
        panic_if(!installed, "code cache too small for one region");
    }
    chargeEmitWork(tier.cost, *installed);
    return installed;
}

uint32_t
Runtime::translateBb(uint32_t eip)
{
    const std::vector<PathInst> path = buildBbPath(eip);

    EmitOptions opts;
    opts.kind = host::RegionKind::BasicBlock;
    opts.bbEntryProfiling = true;
    opts.profBlockAddr = profiler.allocBbBlock();
    opts.edgeProfiling = path.back().inst.op == g::Op::JCC;
    opts.enableIbtc = cfg.enableIbtc;
    opts.ibtcMask = cfg.ibtcEntries / cfg.ibtcWays - 1;
    opts.ibtcWays = cfg.ibtcWays;

    const Tier bbm{cost.bbm, "bbm/translate",
                   cfg.enableBbmOpts ? kBbmPasses : kNoPasses, nullptr,
                   "bbm/regalloc"};
    EmitStats es;
    host::CodeRegion *installed = compileRegion(path, bbm, opts, es);

    transMap.insert(eip, installed->hostBase, cost.bbm);
    bbMeta[eip] = BbMeta{opts.profBlockAddr, installed};

    ++tolStats.bbsTranslated;
    tolStats.guestInstsTranslatedBb += path.size();
    tolStats.hostInstsEmittedBb += es.hostInsts;
    for (const PathInst &pi : path)
        staticModes.note(pi.eip, Mode::BBM);

    return installed->hostBase;
}

uint32_t
Runtime::promoteToSuperblock(uint32_t bb_eip)
{
    ++tolStats.promotions;

    auto meta_it = bbMeta.find(bb_eip);
    if (meta_it != bbMeta.end() && meta_it->second.region &&
        meta_it->second.region->superseded) {
        // Stale promotion through an old chain; the SB already exists.
        return transMap.lookup(bb_eip, cost.lookup);
    }

    const std::vector<PathInst> path = buildSbPath(bb_eip);

    EmitOptions opts;
    opts.kind = host::RegionKind::Superblock;
    opts.enableIbtc = cfg.enableIbtc;
    opts.ibtcMask = cfg.ibtcEntries / cfg.ibtcWays - 1;
    opts.ibtcWays = cfg.ibtcWays;

    const Tier sbm{cost.sbm, "sbm/translate",
                   cfg.enableSbmOpts ? kSbmPasses : kNoPasses,
                   cfg.enableScheduling ? "sbm/scheduler" : nullptr,
                   "sbm/regalloc"};
    EmitStats es;
    host::CodeRegion *installed = compileRegion(path, sbm, opts, es);

    transMap.insert(bb_eip, installed->hostBase, cost.sbm);

    // Forward the old BB's entry to the superblock so stale chains
    // into the BB reach the optimized code (one extra jump).
    meta_it = bbMeta.find(bb_eip);
    if (meta_it != bbMeta.end() && meta_it->second.region &&
        !meta_it->second.region->superseded) {
        host::CodeRegion *old_bb = meta_it->second.region;
        host::HostInst fwd;
        fwd.op = host::HOp::JAL;
        fwd.rd = hreg::Zero;
        fwd.imm = static_cast<int64_t>(installed->hostBase);
        fwd.attr = static_cast<uint8_t>(timing::Module::Chaining);
        old_bb->insts[0] = fwd;
        old_bb->rebuildTemplate(0);
        old_bb->superseded = true;
        ++tolStats.entryForwards;
        cost.chain.alu(cfg.chainPatchAlus);
        cost.chain.store(old_bb->hostBase);
    }

    ++tolStats.sbsCreated;
    tolStats.guestInstsTranslatedSb += path.size();
    tolStats.hostInstsEmittedSb += es.hostInsts;
    for (const PathInst &pi : path)
        staticModes.note(pi.eip, Mode::SBM);

    return installed->hostBase;
}

// ---------------------------------------------------------------------
// Interpretation
// ---------------------------------------------------------------------

void
Runtime::interpretBurst(uint64_t &remaining)
{
    ensureInCtx();
    while (remaining > 0) {
        const uint32_t eip = gstate.eip;
        const DecodedInst &dec = reader.decoded(eip);
        const g::Inst &inst = dec.inst;
        const g::OpInfo &info = *dec.info;

        if (inst.op == g::Op::HALT) {
            guestHalted = true;
            return;
        }

        const g::ExecResult result = interp.step(gstate);
        ++tolStats.dynIm;
        staticModes.note(eip, Mode::IM);
        if (info.isIndirect)
            ++tolStats.guestIndirectBranches;
        --remaining;

        // EFLAGS maintained precisely while interpreting.
        uint8_t written = 0;
        if (info.flagsWritten & g::flag::ZF)
            written |= ir::fmask::Z;
        if (info.flagsWritten & g::flag::SF)
            written |= ir::fmask::S;
        if ((info.flagsWritten & g::flag::CF) && !info.keepsCf)
            written |= ir::fmask::C;
        if (info.flagsWritten & g::flag::OF)
            written |= ir::fmask::O;
        knownFlagsMask |= written;

        commit(1);

        if (result.halted) {
            guestHalted = true;
            return;
        }
        if (info.isBranch)
            return;  // BB boundary: back to the dispatch loop
    }
}

// ---------------------------------------------------------------------
// Main dispatch loop (Figure 3)
// ---------------------------------------------------------------------

Runtime::RunResult
Runtime::run(uint64_t guest_budget, const common::CancelToken *cancel)
{
    RunResult result;
    uint64_t remaining = guest_budget;
    uint32_t resume_entry = 0;

    // Translated code polls the token where the executor checks its
    // budget (a retiring transfer onto a region entry); the dispatch
    // loop polls it for interpreted execution and runtime services.
    exec.setCancelToken(cancel);

    // Fault injection: a stalled run re-earns its budget forever, so
    // only the watchdog's cancellation can end it (livelock model).
    // Honored only for cancellable runs — an unwatched stall would
    // hang the process rather than test anything.
    const bool stall_injected =
        cancel && faultinject::fire(faultinject::Point::GuestStall);

    // A stalled run stays in the loop even when an executor Budget
    // stop zeroed `remaining` — the refill below re-arms it, so only
    // cancellation (or HALT) can end the run.
    while ((remaining > 0 || stall_injected) && !guestHalted) {
        if (cancel) {
            if (cancel->requested()) {
                result.cancelled = true;
                break;
            }
            if (stall_injected)
                remaining = guest_budget;
        }
        if (faultinject::fire(faultinject::Point::MidRunThrow)) {
            // det-lint: allow(models an unclassified engine fatal —
            // the taxonomy must map it to Internal/never-retried)
            fatal("fault injection: mid-run failure in the dispatch "
                  "loop");
        }
        ++tolStats.dispatchLoops;
        cost.other.alu(2);  // dispatch-loop control flow

        uint32_t entry = resume_entry;
        resume_entry = 0;
        if (!entry) {
            ++tolStats.mapLookups;
            entry = transMap.lookup(gstate.eip, cost.lookup);
            if (entry)
                ++tolStats.mapHits;
        }

        if (!entry) {
            const uint32_t cnt =
                profiler.bumpImTarget(gstate.eip, cost.im);
            if (cnt > cfg.imToBbThreshold) {
                resume_entry = translateBb(gstate.eip);
            } else {
                const uint64_t before = remaining;
                interpretBurst(remaining);
                result.guestRetired += before - remaining;
            }
            continue;
        }

        ensureInRegs();
        const host::Executor::Stop stop = exec.run(entry, remaining);
        const uint64_t retired = exec.lastGuestRetired();
        result.guestRetired += retired;
        remaining -= std::min<uint64_t>(retired, remaining);

        // Per-mode dynamic accounting from executor deltas.
        tolStats.dynBbm += exec.bbGuestRetired() - lastBbRetired;
        tolStats.dynSbm += exec.sbGuestRetired() - lastSbRetired;
        lastBbRetired = exec.bbGuestRetired();
        lastSbRetired = exec.sbGuestRetired();
        tolStats.guestIndirectBranches +=
            exec.indirectRetired() - lastIndirect;
        lastIndirect = exec.indirectRetired();

        switch (stop.reason) {
          case host::Executor::StopReason::Dispatch: {
            host::ExitInfo &exit = stop.region->exits[stop.exitId];
            const uint32_t target = exec.x[hreg::ExitTarget];
            syncRegsToState(exit.flagMask);
            gstate.eip = target;
            commit(retired);
            cost.other.alu(3);  // service entry / exit
            if (cfg.enableChaining && !exit.chained && !exit.indirect) {
                ++tolStats.mapLookups;
                const uint32_t succ =
                    transMap.lookup(target, cost.lookup);
                if (succ) {
                    ++tolStats.mapHits;
                    stop.region->insts[exit.branchIndex].imm =
                        static_cast<int64_t>(succ);
                    exit.chained = true;
                    ++tolStats.chainsPatched;
                    cost.chain.alu(cfg.chainPatchAlus);
                    cost.chain.store(
                        stop.region->hostBase +
                        exit.branchIndex * host::kHostInstBytes);
                    resume_entry = succ;
                }
            }
            break;
          }

          case host::Executor::StopReason::IbtcMiss: {
            host::ExitInfo &exit = stop.region->exits[stop.exitId];
            const uint32_t target = exec.x[hreg::ExitTarget];
            syncRegsToState(exit.flagMask);
            gstate.eip = target;
            commit(retired);
            ++tolStats.ibtcMisses;
            ++tolStats.guestIndirectBranches;
            ++tolStats.mapLookups;
            const uint32_t succ = transMap.lookup(target, cost.lookup);
            if (succ) {
                ++tolStats.mapHits;
                if (cfg.enableIbtc) {
                    ibtc.fill(target, succ, cost.lookup);
                    ++tolStats.ibtcFills;
                }
                resume_entry = succ;
            }
            cost.other.alu(4);  // transition overhead
            break;
          }

          case host::Executor::StopReason::Promote: {
            // The prologue fires before any body instruction, so the
            // architectural state equals the region-entry state.
            syncRegsToState(0);
            gstate.eip = stop.region->guestEntry;
            commit(retired);
            resume_entry = promoteToSuperblock(stop.region->guestEntry);
            break;
          }

          case host::Executor::StopReason::Halt: {
            syncRegsToState(0);
            gstate.eip = exec.x[hreg::ExitTarget];
            commit(retired);
            guestHalted = true;
            break;
          }

          case host::Executor::StopReason::Budget: {
            syncRegsToState(0);
            gstate.eip = stop.guestEip;
            commit(retired);
            remaining = 0;
            break;
          }
        }
    }

    // A cancellation honored inside the executor exits the loop
    // through the ordinary Budget stop; detect it here so both stop
    // paths report the same way.
    if (cancel && cancel->requested() && !guestHalted)
        result.cancelled = true;

    // Callers read the sinks next: hand them every record.
    batcher.flush();
    // Every stop (halt, budget, cancel) leaves the loop here.
    staticModes.summarizeInto(tolStats);
    result.halted = guestHalted;
    return result;
}

} // namespace darco::tol
