#include "analysis/cfg.hh"

#include <algorithm>

#include "common/logging.hh"

namespace darco::analysis {

namespace {

using guest::Form;
using guest::Inst;
using guest::Op;
using guest::OpInfo;
using guest::opInfo;

/** Memory-traffic classification, mirroring the emulator's
 *  (guest/emulator.cc) so static and dynamic mixes are comparable. */
bool
readsMem(const Inst &inst)
{
    if (inst.form == Form::RM && inst.op != Op::LEA)
        return true;
    if (inst.form == Form::M)
        return true;
    return inst.op == Op::POP || inst.op == Op::RET;
}

bool
writesMem(const Inst &inst)
{
    if (inst.form == Form::MR)
        return true;
    return inst.op == Op::PUSH || inst.op == Op::CALL ||
           inst.op == Op::CALLI;
}

bool
isIntAlu(Op op)
{
    return op >= Op::ADD && op <= Op::NOT;
}

bool
isStackOp(Op op)
{
    return op == Op::PUSH || op == Op::POP || op == Op::CALL ||
           op == Op::CALLI || op == Op::RET;
}

void
accumulateMix(InstMix &mix, const Inst &inst)
{
    const OpInfo &info = opInfo(inst.op);
    ++mix.total;
    mix.codeBytes += inst.length;
    if (inst.op == Op::MOV || inst.op == Op::MOVB || inst.op == Op::LEA)
        ++mix.moves;
    if (isIntAlu(inst.op))
        ++mix.alu;
    if (readsMem(inst))
        ++mix.loads;
    if (writesMem(inst))
        ++mix.stores;
    if (isStackOp(inst.op))
        ++mix.stack;
    if (info.isBranch) {
        ++mix.branches;
        if (info.isCondBranch)
            ++mix.condBranches;
        if (info.isIndirect)
            ++mix.indirectBranches;
        if (info.isCall)
            ++mix.calls;
        if (info.isRet)
            ++mix.returns;
    }
    if (info.isFp)
        ++mix.fpOps;
    if (inst.op == Op::NOP)
        ++mix.nops;
}

/** Static target of a direct branch (JMP/JCC/CALL: next EIP + imm). */
uint32_t
directTarget(uint32_t pc, const Inst &inst)
{
    return pc + inst.length + static_cast<uint32_t>(inst.imm);
}

/** Statically known successor block indices of block @p i. */
void
staticSuccessors(const Cfg &cfg, size_t i, std::vector<size_t> &out)
{
    out.clear();
    const BasicBlock &b = cfg.blocks[i];
    if (b.hasTarget) {
        auto it = cfg.blockAt.find(b.target);
        if (it != cfg.blockAt.end())
            out.push_back(it->second);
    }
    if (b.hasFallthrough) {
        auto it = cfg.blockAt.find(b.end);
        if (it != cfg.blockAt.end())
            out.push_back(it->second);
    }
}

/** Bounded dominance query usable on a *tampered* tree: walks the
 *  idom chain at most |blocks| steps, so a cycle introduced by a
 *  mutation terminates as "does not dominate". */
bool
boundedDominates(const Cfg &cfg, size_t a, size_t b)
{
    for (size_t steps = 0; steps <= cfg.blocks.size(); ++steps) {
        if (b == a)
            return true;
        if (b == cfg.entryIndex || b >= cfg.idom.size() ||
            cfg.idom[b] == kNoIdom)
            return false;
        b = cfg.idom[b];
    }
    return false;
}

} // namespace

bool
Cfg::dominates(size_t a, size_t b) const
{
    return boundedDominates(*this, a, b);
}

Cfg
buildCfg(const guest::Program &program)
{
    Cfg cfg;
    cfg.entry = program.entry;
    cfg.codeBase = program.codeBase;
    cfg.codeEnd = program.codeBase +
                  static_cast<uint32_t>(program.code.size());

    // ----- linear-sweep decode ---------------------------------------
    size_t off = 0;
    uint32_t addr = cfg.codeBase;
    while (off < program.code.size()) {
        Inst inst;
        const guest::DecodeStatus st =
            guest::decode(program.code.data() + off,
                          program.code.size() - off, inst);
        if (st != guest::DecodeStatus::Ok)
            fatal_kind(ErrKind::BadWorkload,
                       "cfg: undecodable guest instruction at 0x%08x "
                       "(status %d)", addr, static_cast<int>(st));
        cfg.insts.emplace(addr, inst);
        accumulateMix(cfg.mix, inst);
        off += inst.length;
        addr += inst.length;
    }
    if (!cfg.insts.count(cfg.entry))
        fatal_kind(ErrKind::BadWorkload,
                   "cfg: program entry 0x%08x is not an instruction "
                   "boundary", cfg.entry);

    // ----- leaders ----------------------------------------------------
    // Entry, every direct branch target that lands on an instruction
    // boundary, and every instruction following a control transfer
    // (fallthroughs, call return sites, and the code after an
    // unconditional transfer or HALT — reachable or not, it must not
    // be glued onto a terminated block).
    std::vector<uint32_t> leaders;
    leaders.push_back(cfg.entry);
    for (const auto &[pc, inst] : cfg.insts) {
        const OpInfo &info = opInfo(inst.op);
        if (!info.isBranch && inst.op != Op::HALT)
            continue;
        const uint32_t next = pc + inst.length;
        if (next < cfg.codeEnd)
            leaders.push_back(next);
        if (info.isBranch && !info.isIndirect) {
            const uint32_t target = directTarget(pc, inst);
            if (cfg.insts.count(target))
                leaders.push_back(target);
        }
    }
    std::sort(leaders.begin(), leaders.end());
    leaders.erase(std::unique(leaders.begin(), leaders.end()),
                  leaders.end());

    // ----- blocks -----------------------------------------------------
    auto leaderIt = leaders.begin();
    for (auto it = cfg.insts.begin(); it != cfg.insts.end();) {
        const uint32_t start = it->first;
        while (leaderIt != leaders.end() && *leaderIt <= start)
            ++leaderIt;
        const uint32_t limit =
            leaderIt != leaders.end() ? *leaderIt : cfg.codeEnd;

        BasicBlock b;
        b.start = start;
        const Inst *last = nullptr;
        uint32_t lastPc = start;
        while (it != cfg.insts.end() && it->first < limit) {
            lastPc = it->first;
            last = &it->second;
            ++b.numInsts;
            ++it;
        }
        b.end = lastPc + last->length;

        const OpInfo &info = opInfo(last->op);
        if (info.isBranch) {
            b.endsInBranch = true;
            b.branchPc = lastPc;
            b.isCond = info.isCondBranch;
            b.isIndirect = info.isIndirect;
            b.isCall = info.isCall;
            b.isRet = info.isRet;
            if (!info.isIndirect) {
                b.hasTarget = true;
                b.target = directTarget(lastPc, *last);
            }
            // JCC not-taken, and the call return sites (static edge
            // for the dominator computation; dynamic return flow is
            // measured at the RET sites instead).
            b.hasFallthrough = (info.isCondBranch || info.isCall) &&
                               b.end < cfg.codeEnd;
        } else if (last->op == Op::HALT) {
            b.isHalt = true;
        } else {
            b.hasFallthrough = b.end < cfg.codeEnd;
        }

        cfg.blockAt.emplace(b.start, cfg.blocks.size());
        cfg.blocks.push_back(b);
    }
    cfg.entryIndex = cfg.blockAt.at(cfg.entry);

    // ----- successor / predecessor lists ------------------------------
    const size_t n = cfg.blocks.size();
    std::vector<std::vector<size_t>> succ(n), pred(n);
    {
        std::vector<size_t> tmp;
        for (size_t i = 0; i < n; ++i) {
            staticSuccessors(cfg, i, tmp);
            for (size_t s : tmp) {
                succ[i].push_back(s);
                pred[s].push_back(i);
            }
        }
    }

    // ----- reverse postorder from the entry ---------------------------
    std::vector<size_t> rpoNum(n, kNoIdom);
    std::vector<size_t> rpo;
    {
        std::vector<uint8_t> seen(n, 0);
        std::vector<size_t> post;
        // Iterative DFS: (node, next successor index to visit).
        std::vector<std::pair<size_t, size_t>> stack;
        seen[cfg.entryIndex] = 1;
        stack.emplace_back(cfg.entryIndex, 0);
        while (!stack.empty()) {
            const size_t u = stack.back().first;
            const size_t i = stack.back().second;
            if (i < succ[u].size()) {
                ++stack.back().second;
                const size_t v = succ[u][i];
                if (!seen[v]) {
                    seen[v] = 1;
                    stack.emplace_back(v, 0);
                }
            } else {
                post.push_back(u);
                stack.pop_back();
            }
        }
        rpo.assign(post.rbegin(), post.rend());
        for (size_t i = 0; i < rpo.size(); ++i)
            rpoNum[rpo[i]] = i;
    }

    // ----- immediate dominators (Cooper–Harvey–Kennedy) ---------------
    cfg.idom.assign(n, kNoIdom);
    cfg.idom[cfg.entryIndex] = cfg.entryIndex;
    auto intersect = [&](size_t a, size_t b) {
        while (a != b) {
            while (rpoNum[a] > rpoNum[b])
                a = cfg.idom[a];
            while (rpoNum[b] > rpoNum[a])
                b = cfg.idom[b];
        }
        return a;
    };
    for (bool changed = true; changed;) {
        changed = false;
        for (size_t u : rpo) {
            if (u == cfg.entryIndex)
                continue;
            size_t nid = kNoIdom;
            for (size_t p : pred[u]) {
                if (cfg.idom[p] == kNoIdom)
                    continue; // unreachable or not yet processed
                nid = nid == kNoIdom ? p : intersect(p, nid);
            }
            if (nid != kNoIdom && nid != cfg.idom[u]) {
                cfg.idom[u] = nid;
                changed = true;
            }
        }
    }

    // ----- natural loops ----------------------------------------------
    // Back edge: u -> v with v dominating u. Body: v plus everything
    // that reaches a latch backwards without passing through v.
    std::map<size_t, std::vector<size_t>> latchesOf;
    for (size_t u : rpo)
        for (size_t v : succ[u])
            if (cfg.dominates(v, u))
                latchesOf[v].push_back(u);
    for (auto &[header, latches] : latchesOf) {
        std::sort(latches.begin(), latches.end());
        latches.erase(std::unique(latches.begin(), latches.end()),
                      latches.end());
        std::vector<uint8_t> inBody(n, 0);
        inBody[header] = 1;
        std::vector<size_t> work;
        for (size_t l : latches) {
            if (!inBody[l]) {
                inBody[l] = 1;
                work.push_back(l);
            }
        }
        while (!work.empty()) {
            const size_t w = work.back();
            work.pop_back();
            for (size_t p : pred[w]) {
                if (!inBody[p]) {
                    inBody[p] = 1;
                    work.push_back(p);
                }
            }
        }
        NaturalLoop loop;
        loop.header = header;
        loop.latches = latches;
        for (size_t i = 0; i < n; ++i)
            if (inBody[i])
                loop.body.push_back(i);
        cfg.loops.push_back(std::move(loop));
    }

    return cfg;
}

Findings
verifyCfg(const Cfg &cfg)
{
    Findings out;
    const size_t n = cfg.blocks.size();
    if (n == 0) {
        out.push_back("cfg has no blocks");
        return out;
    }

    // ----- blocks tile the image on instruction boundaries ------------
    uint32_t expect = cfg.insts.empty() ? cfg.codeEnd
                                        : cfg.insts.begin()->first;
    for (size_t i = 0; i < n; ++i) {
        const BasicBlock &b = cfg.blocks[i];
        if (b.start != expect)
            out.push_back(strprintf("block %zu starts at 0x%08x, "
                                    "expected 0x%08x (blocks do not "
                                    "tile the image)", i, b.start,
                                    expect));
        auto at = cfg.blockAt.find(b.start);
        if (at == cfg.blockAt.end() || at->second != i)
            out.push_back(strprintf("block %zu (0x%08x) missing from "
                                    "the leader index", i, b.start));
        expect = b.end;
    }
    if (expect != cfg.codeEnd)
        out.push_back(strprintf("blocks end at 0x%08x, code image ends "
                                "at 0x%08x", expect, cfg.codeEnd));

    // ----- per-block structure ----------------------------------------
    for (size_t i = 0; i < n; ++i) {
        const BasicBlock &b = cfg.blocks[i];
        uint32_t pc = b.start;
        const Inst *last = nullptr;
        uint32_t lastPc = b.start;
        uint32_t count = 0;
        while (pc < b.end) {
            auto it = cfg.insts.find(pc);
            if (it == cfg.insts.end()) {
                out.push_back(strprintf("block 0x%08x: no instruction "
                                        "decodes at 0x%08x", b.start,
                                        pc));
                break;
            }
            if (pc != b.start && cfg.blockAt.count(pc))
                out.push_back(strprintf("leader 0x%08x is buried "
                                        "inside block 0x%08x", pc,
                                        b.start));
            lastPc = pc;
            last = &it->second;
            pc += it->second.length;
            ++count;
        }
        if (!last)
            continue;
        if (count != b.numInsts)
            out.push_back(strprintf("block 0x%08x: numInsts %u, "
                                    "decoded %u", b.start, b.numInsts,
                                    count));

        const OpInfo &info = opInfo(last->op);
        if (b.endsInBranch != info.isBranch ||
            (b.endsInBranch && b.branchPc != lastPc)) {
            out.push_back(strprintf("block 0x%08x: terminator flags "
                                    "disagree with last instruction "
                                    "%s at 0x%08x", b.start,
                                    guest::opName(last->op), lastPc));
            continue;
        }
        if (b.isHalt != (last->op == Op::HALT))
            out.push_back(strprintf("block 0x%08x: HALT flag disagrees "
                                    "with terminator", b.start));
        if (info.isBranch) {
            if (b.isCond != info.isCondBranch ||
                b.isIndirect != info.isIndirect ||
                b.isCall != info.isCall || b.isRet != info.isRet)
                out.push_back(strprintf("block 0x%08x: branch kind "
                                        "flags disagree with %s",
                                        b.start,
                                        guest::opName(last->op)));
            if (b.hasTarget != !info.isIndirect)
                out.push_back(strprintf("block 0x%08x: direct branch "
                                        "target presence disagrees "
                                        "with %s", b.start,
                                        guest::opName(last->op)));
            else if (b.hasTarget &&
                     b.target != directTarget(lastPc, *last))
                out.push_back(strprintf("block 0x%08x: recorded target "
                                        "0x%08x, encoded target 0x%08x",
                                        b.start, b.target,
                                        directTarget(lastPc, *last)));
            const bool wantFall = (info.isCondBranch || info.isCall) &&
                                  b.end < cfg.codeEnd;
            if (b.hasFallthrough != wantFall)
                out.push_back(strprintf("block 0x%08x: fallthrough "
                                        "flag disagrees with %s",
                                        b.start,
                                        guest::opName(last->op)));
        }

        // Orphaned branch target: a direct branch must land on a
        // block leader (anything else points outside the image, into
        // the middle of an instruction, or into the middle of a
        // block).
        if (b.hasTarget && !cfg.blockAt.count(b.target))
            out.push_back(strprintf("orphaned branch target: block "
                                    "0x%08x branches to 0x%08x, which "
                                    "is not a block leader", b.start,
                                    b.target));
    }

    // ----- dominator tree ---------------------------------------------
    if (cfg.idom.size() != n) {
        out.push_back(strprintf("idom table has %zu entries for %zu "
                                "blocks", cfg.idom.size(), n));
        return out;
    }
    if (cfg.idom[cfg.entryIndex] != cfg.entryIndex)
        out.push_back("entry block's idom is not itself");
    std::vector<size_t> succs;
    for (size_t u = 0; u < n; ++u) {
        if (cfg.idom[u] == kNoIdom)
            continue; // unreachable over static edges
        if (u != cfg.entryIndex && cfg.idom[u] == u)
            out.push_back(strprintf("block 0x%08x is its own idom",
                                    cfg.blocks[u].start));
        staticSuccessors(cfg, u, succs);
        for (size_t v : succs) {
            if (v == cfg.entryIndex)
                continue;
            if (cfg.idom[v] == kNoIdom) {
                out.push_back(strprintf("broken dominator edge: "
                                        "0x%08x -> 0x%08x but the "
                                        "successor has no idom",
                                        cfg.blocks[u].start,
                                        cfg.blocks[v].start));
                continue;
            }
            // Every dominator of v other than v itself dominates
            // every predecessor of v; in particular idom(v) must.
            if (!boundedDominates(cfg, cfg.idom[v], u))
                out.push_back(strprintf("broken dominator edge: "
                                        "0x%08x -> 0x%08x but "
                                        "idom(0x%08x) = 0x%08x does "
                                        "not dominate the predecessor",
                                        cfg.blocks[u].start,
                                        cfg.blocks[v].start,
                                        cfg.blocks[v].start,
                                        cfg.blocks[cfg.idom[v]].start));
        }
    }

    // ----- loops -------------------------------------------------------
    for (const NaturalLoop &loop : cfg.loops) {
        if (loop.header >= n) {
            out.push_back("loop header out of range");
            continue;
        }
        if (std::find(loop.body.begin(), loop.body.end(), loop.header)
                == loop.body.end())
            out.push_back(strprintf("loop header 0x%08x not in its own "
                                    "body",
                                    cfg.blocks[loop.header].start));
        for (size_t l : loop.latches) {
            if (l >= n || !boundedDominates(cfg, loop.header, l))
                out.push_back(strprintf("loop latch does not form a "
                                        "back edge to header 0x%08x",
                                        cfg.blocks[loop.header].start));
        }
    }
    return out;
}

Findings
crossCheckBranchSites(const Cfg &cfg,
                      const profile::GuestBranchProfile &prof)
{
    Findings out;
    uint64_t totalExecs = 0;
    uint64_t totalCondExecs = 0;
    for (const auto &[pc, site] : prof.sites) {
        totalExecs += site.execs();
        auto it = cfg.insts.find(pc);
        if (it == cfg.insts.end()) {
            out.push_back(strprintf("dynamic branch at 0x%08x does not "
                                    "decode at an instruction boundary "
                                    "of the static CFG", pc));
            continue;
        }
        const Inst &inst = it->second;
        const OpInfo &info = opInfo(inst.op);
        if (!info.isBranch) {
            out.push_back(strprintf("dynamic branch at 0x%08x is %s in "
                                    "the static CFG, not a branch", pc,
                                    guest::opName(inst.op)));
            continue;
        }
        if (info.isCondBranch)
            totalCondExecs += site.execs();
        if (site.isCond != info.isCondBranch ||
            site.isIndirect != info.isIndirect ||
            site.isCall != info.isCall || site.isRet != info.isRet) {
            out.push_back(strprintf("dynamic branch at 0x%08x: kind "
                                    "flags disagree with static %s",
                                    pc, guest::opName(inst.op)));
            continue;
        }
        if (!info.isCondBranch && site.notTaken != 0)
            out.push_back(strprintf("unconditional branch at 0x%08x "
                                    "observed not-taken %llu times", pc,
                                    static_cast<unsigned long long>(
                                        site.notTaken)));
        if (!info.isIndirect) {
            const uint32_t target = directTarget(pc, inst);
            for (const auto &[t, count] : site.targets) {
                if (t != target)
                    out.push_back(strprintf(
                        "direct branch at 0x%08x landed on 0x%08x "
                        "(%llu times); static target is 0x%08x", pc, t,
                        static_cast<unsigned long long>(count),
                        target));
            }
        }
        if (site.notTaken != 0 && pc + inst.length >= cfg.codeEnd)
            out.push_back(strprintf("branch at 0x%08x fell through "
                                    "past the end of the code image",
                                    pc));
    }
    if (totalExecs != prof.dynBranches)
        out.push_back(strprintf("profile self-check: per-site "
                                "executions sum to %llu but "
                                "dynBranches is %llu",
                                static_cast<unsigned long long>(
                                    totalExecs),
                                static_cast<unsigned long long>(
                                    prof.dynBranches)));
    if (totalCondExecs != prof.dynCondBranches)
        out.push_back(strprintf("profile self-check: conditional "
                                "executions sum to %llu but "
                                "dynCondBranches is %llu",
                                static_cast<unsigned long long>(
                                    totalCondExecs),
                                static_cast<unsigned long long>(
                                    prof.dynCondBranches)));
    return out;
}

Findings
crossCheckFlowConservation(const Cfg &cfg,
                           const profile::GuestBranchProfile &prof,
                           uint32_t finalEip)
{
    Findings out;
    const size_t n = cfg.blocks.size();

    // ----- measured in-edges ------------------------------------------
    // Taken executions land on their recorded targets; not-taken
    // conditionals land on the branch's fallthrough.
    std::vector<uint64_t> inflow(n, 0);
    for (const auto &[pc, site] : prof.sites) {
        for (const auto &[t, count] : site.targets) {
            auto bi = cfg.blockAt.find(t);
            if (bi == cfg.blockAt.end()) {
                out.push_back(strprintf("dynamic branch at 0x%08x "
                                        "landed %llu times on 0x%08x, "
                                        "which is not a block leader",
                                        pc,
                                        static_cast<unsigned long long>(
                                            count), t));
                continue;
            }
            inflow[bi->second] += count;
        }
        if (site.notTaken != 0) {
            auto ii = cfg.insts.find(pc);
            if (ii == cfg.insts.end())
                continue; // already reported by crossCheckBranchSites
            const uint32_t ft = pc + ii->second.length;
            auto bi = cfg.blockAt.find(ft);
            if (bi == cfg.blockAt.end()) {
                out.push_back(strprintf("fallthrough 0x%08x of branch "
                                        "0x%08x is not a block leader",
                                        ft, pc));
                continue;
            }
            inflow[bi->second] += site.notTaken;
        }
    }

    // ----- where did the run stop? ------------------------------------
    if (finalEip < cfg.codeBase || finalEip >= cfg.codeEnd) {
        out.push_back(strprintf("final EIP 0x%08x is outside the code "
                                "image", finalEip));
        return out;
    }
    auto stopIt = cfg.blockAt.upper_bound(finalEip);
    const size_t stopBlock = std::prev(stopIt)->second;

    // ----- Kirchhoff, one ascending pass ------------------------------
    // Fallthrough chains strictly increase in address, so the carry
    // from a non-branch block is available when its successor is
    // visited. Exactly one block — the one execution stopped in — is
    // allowed one entry with no matching exit.
    uint64_t fallIn = 0;
    for (size_t i = 0; i < n; ++i) {
        const BasicBlock &b = cfg.blocks[i];
        const uint64_t entries =
            (i == cfg.entryIndex ? 1 : 0) + inflow[i] + fallIn;
        const uint64_t stopHere = i == stopBlock ? 1 : 0;
        fallIn = 0;
        if (b.endsInBranch) {
            auto si = prof.sites.find(b.branchPc);
            const uint64_t execs =
                si != prof.sites.end() ? si->second.execs() : 0;
            if (entries != execs + stopHere)
                out.push_back(strprintf(
                    "flow conservation violated at block 0x%08x: %llu "
                    "entries vs %llu branch executions at 0x%08x "
                    "(+%llu final stop)", b.start,
                    static_cast<unsigned long long>(entries),
                    static_cast<unsigned long long>(execs), b.branchPc,
                    static_cast<unsigned long long>(stopHere)));
        } else if (b.isHalt) {
            if (entries != stopHere)
                out.push_back(strprintf(
                    "flow conservation violated at HALT block 0x%08x: "
                    "%llu entries (+%llu final stop, HALT never flows "
                    "out)", b.start,
                    static_cast<unsigned long long>(entries),
                    static_cast<unsigned long long>(stopHere)));
        } else if (!b.hasFallthrough) {
            if (entries != stopHere)
                out.push_back(strprintf(
                    "control fell off the code image at 0x%08x %llu "
                    "times", b.end,
                    static_cast<unsigned long long>(entries)));
        } else {
            if (entries < stopHere) {
                out.push_back(strprintf(
                    "flow conservation violated at block 0x%08x: "
                    "stopped in a block that was never entered",
                    b.start));
            } else {
                fallIn = entries - stopHere;
            }
        }
    }
    return out;
}

} // namespace darco::analysis
