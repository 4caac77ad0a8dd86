/**
 * @file
 * Static guest-program CFG analyzer.
 *
 * Builds, from the program bytes alone (no execution), the classical
 * static view of a GX86 workload:
 *
 *  - the decoded instruction stream (linear sweep — generated
 *    workloads are fully decodable, Program::countStaticInsts already
 *    relies on this),
 *  - basic blocks (leaders: entry, direct branch targets, and every
 *    instruction following a control transfer),
 *  - the static instruction mix,
 *  - immediate dominators (iterative Cooper–Harvey–Kennedy over the
 *    statically known edges; indirect branches contribute no edges,
 *    call fallthrough counts as an edge — i.e. calls are assumed to
 *    return),
 *  - natural loops (back edges whose head dominates their tail, plus
 *    the reverse-reachable body).
 *
 * Two exact cross-checks tie this static view to a run's dynamics
 * (profile/guest_branch.hh, collected from the authoritative
 * emulator):
 *
 *  1. crossCheckBranchSites — every dynamically observed branch PC
 *     must decode, at exactly that address, to a branch instruction
 *     of the same kind, and direct branches must only ever have been
 *     observed landing on their static target.
 *
 *  2. crossCheckFlowConservation — per-block Kirchhoff's law: for
 *     every basic block, dynamic entries must equal dynamic exits,
 *     except for exactly one extra entry into the block containing
 *     the final EIP (where execution stopped). Entries are summed
 *     from the measured branch edges (taken counts per landing
 *     target, not-taken counts to the fallthrough) plus the
 *     fallthrough chain; exits of a branch-terminated block are the
 *     site's execution count. The check is exact — any divergence
 *     between the static CFG and the measured counts is a finding.
 *
 * Like the IR verifier (verify.hh), all entry points are pure
 * observers returning Findings; nothing here mutates the program or
 * charges the cost model.
 */

#ifndef DARCO_ANALYSIS_CFG_HH
#define DARCO_ANALYSIS_CFG_HH

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/verify.hh"
#include "guest/assembler.hh"
#include "profile/guest_branch.hh"

namespace darco::analysis {

/** Static instruction mix. Categories overlap (a PUSH is both a
 *  store and a stack op); `total` counts each instruction once. */
struct InstMix
{
    uint32_t total = 0;
    uint32_t codeBytes = 0;
    uint32_t moves = 0;           ///< MOV / MOVB / LEA
    uint32_t alu = 0;             ///< integer ALU (incl. shifts, mul/div)
    uint32_t loads = 0;           ///< instructions that read memory
    uint32_t stores = 0;          ///< instructions that write memory
    uint32_t stack = 0;           ///< PUSH / POP / CALL* / RET
    uint32_t branches = 0;        ///< any control transfer
    uint32_t condBranches = 0;
    uint32_t indirectBranches = 0;
    uint32_t calls = 0;
    uint32_t returns = 0;
    uint32_t fpOps = 0;
    uint32_t nops = 0;
};

/** One basic block of the static CFG. */
struct BasicBlock
{
    uint32_t start = 0;          ///< leader address
    uint32_t end = 0;            ///< first address past the block
    uint32_t numInsts = 0;

    // ----- terminator ---------------------------------------------------
    bool endsInBranch = false;   ///< last instruction is a control transfer
    uint32_t branchPc = 0;       ///< its address (valid iff endsInBranch)
    bool isCond = false;
    bool isIndirect = false;     ///< JMPI / CALLI / RET terminator
    bool isCall = false;
    bool isRet = false;
    bool isHalt = false;         ///< last instruction is HALT

    // ----- statically known successor edges -----------------------------
    bool hasTarget = false;      ///< direct branch target known
    uint32_t target = 0;
    /** Control can continue at `end`: plain leader split, not-taken
     *  conditional, or call return site (the latter is a dominator
     *  edge only — dynamically, return-site flow arrives via the
     *  measured RET edges). */
    bool hasFallthrough = false;
};

/** A natural loop: back edge(s) into `header`, body by block index. */
struct NaturalLoop
{
    size_t header = 0;             ///< block index of the loop header
    std::vector<size_t> body;      ///< ascending block indices, incl. header
    std::vector<size_t> latches;   ///< blocks with a back edge to header
};

/** Index meaning "no immediate dominator known" (entry / unreachable). */
constexpr size_t kNoIdom = static_cast<size_t>(-1);

/** The static CFG of one guest program. */
struct Cfg
{
    uint32_t entry = 0;            ///< program entry EIP
    uint32_t codeBase = 0;
    uint32_t codeEnd = 0;          ///< first address past the image

    /** Linear-sweep decode: every instruction, keyed by address. */
    std::map<uint32_t, guest::Inst> insts;

    /** Blocks in ascending address order (they tile [codeBase,codeEnd)). */
    std::vector<BasicBlock> blocks;

    /** Leader address -> index into blocks. */
    std::map<uint32_t, size_t> blockAt;

    /** Per-block immediate dominator (block index); kNoIdom for the
     *  entry block and for blocks unreachable over static edges.
     *  idom[entryIndex] == entryIndex by convention. */
    std::vector<size_t> idom;

    std::vector<NaturalLoop> loops;

    InstMix mix;

    /** Index of the block whose leader is `entry`. */
    size_t entryIndex = 0;

    /** True iff @p a dominates @p b over the static edges (both must
     *  be reachable; a block dominates itself). */
    bool dominates(size_t a, size_t b) const;
};

/**
 * Decode @p program and build its CFG, dominator tree, and loops.
 * Classified fatal (BadWorkload) on an undecodable image.
 */
Cfg buildCfg(const guest::Program &program);

/**
 * Structural self-check of a built (possibly tampered) CFG: blocks
 * tile the image on instruction boundaries, every static direct
 * branch target is a block leader ("orphaned branch target"
 * otherwise), successor flags agree with the terminator instruction,
 * and the dominator tree satisfies the defining edge property (for
 * every reachable edge u->v, idom(v) dominates u). Used by the
 * mutation tests; returns findings instead of throwing.
 */
Findings verifyCfg(const Cfg &cfg);

/**
 * Cross-check 1: every dynamically observed branch site against the
 * static CFG (see file header). Exact — returns a finding per
 * divergent site.
 */
Findings crossCheckBranchSites(const Cfg &cfg,
                               const profile::GuestBranchProfile &prof);

/**
 * Cross-check 2: per-block flow conservation (Kirchhoff) of the
 * measured branch counts over the static CFG. @p finalEip is the
 * guest EIP where the run stopped (System::guestState().eip): the
 * block containing it is allowed exactly one unmatched entry.
 */
Findings crossCheckFlowConservation(const Cfg &cfg,
                                    const profile::GuestBranchProfile &prof,
                                    uint32_t finalEip);

} // namespace darco::analysis

#endif // DARCO_ANALYSIS_CFG_HH
