/**
 * @file
 * Translation IR.
 *
 * The translator lowers a guest basic block or superblock into a
 * *linear trace* of IR instructions over virtual registers: a single
 * entry, straight-line code, and side exits (conditional branches
 * that leave the trace). Straight-line traces make every dataflow
 * pass a simple forward/backward scan — exactly why superblock-based
 * dynamic optimizers use them.
 *
 * Virtual register space:
 *   v0..v7    bound to guest GPRs EAX..EDI    (live at every exit)
 *   v8..v11   bound to guest flags Z,S,C,O    (live per exit flagMask)
 *   v12..v19  bound to guest FP regs F0..F7   (live at every exit)
 *   v20..     temporaries, single-assignment (SSA discipline enforced
 *             by validate())
 *
 * Guest flags are emitted *eagerly* as explicit flag-vreg definitions
 * after every flag-writing guest instruction; dead flag computations
 * are removed by DCE using the per-exit flag liveness masks computed
 * from the successor guest code. PF is never materialized (no GX86
 * condition consumes it; docs/deviations.md §6).
 */

#ifndef DARCO_IR_IR_HH
#define DARCO_IR_IR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace darco::ir {

using Vreg = uint16_t;

constexpr Vreg kNoVreg = 0xFFFF;

/** Bound virtual registers. */
constexpr Vreg vGpr(unsigned r) { return static_cast<Vreg>(r); }
constexpr Vreg vFlagZ = 8;
constexpr Vreg vFlagS = 9;
constexpr Vreg vFlagC = 10;
constexpr Vreg vFlagO = 11;
constexpr Vreg vFpr(unsigned r) { return static_cast<Vreg>(12 + r); }
constexpr Vreg kFirstTemp = 20;
constexpr unsigned kNumBoundVregs = 20;

/** Flag-mask bits (order matches vFlagZ..vFlagO). */
namespace fmask {
constexpr uint8_t Z = 1 << 0;
constexpr uint8_t S = 1 << 1;
constexpr uint8_t C = 1 << 2;
constexpr uint8_t O = 1 << 3;
constexpr uint8_t All = Z | S | C | O;
} // namespace fmask

/** Flag vreg for a fmask bit index (0..3). */
constexpr Vreg
flagVreg(unsigned bit)
{
    return static_cast<Vreg>(vFlagZ + bit);
}

/** Register class of a virtual register. */
enum class RegClass : uint8_t { Int = 0, Fp };

/** IR opcodes. ALU ops take src2 or imm (useImm). */
enum class IrOp : uint8_t {
    LDI = 0,   ///< dst = imm
    MOV,       ///< dst = src1 (int copy)
    ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
    MUL, MULH, DIV, REM,
    LD,        ///< dst = mem[src1 + imm]  (size 1 or 4, zero-extend)
    ST,        ///< mem[src1 + imm] = src2
    FLD,       ///< fdst = mem[src1 + imm] (8 bytes)
    FST,       ///< mem[src1 + imm] = fsrc2
    FMOV, FADD, FSUB, FMUL, FDIV, FSQRT, FABS, FNEG,
    FCVT_IF,   ///< fdst = (double)(int32)src1
    FCVT_FI,   ///< dst = trunc(fsrc1)
    FLT, FLE, FEQ, FUNORD,  ///< int dst = fp compare
    BR,        ///< if cc(src1, src2/imm) leave trace via exits[exitId]
    JEXIT,     ///< unconditionally leave via exits[exitId]
    JINDIRECT, ///< leave via exits[exitId]; guest target value = src1
    NumOps,
};

/** Branch condition for BR. */
enum class BrCc : uint8_t { EQ = 0, NE, LT, GE, LTU, GEU };

/** Static properties of an IR op. */
struct IrOpInfo
{
    const char *name;
    bool hasDst;
    bool fpDst;
    bool fpSrc1;
    bool fpSrc2;
    bool isLoad;
    bool isStore;
    bool isExit;      ///< BR / JEXIT / JINDIRECT
    bool sideEffect;  ///< must not be removed by DCE
};

const IrOpInfo &irOpInfo(IrOp op);

inline const char *irOpName(IrOp op) { return irOpInfo(op).name; }

/** One IR instruction. */
struct IrInst
{
    IrOp op = IrOp::LDI;
    BrCc cc = BrCc::EQ;
    Vreg dst = kNoVreg;
    Vreg src1 = kNoVreg;
    Vreg src2 = kNoVreg;
    bool useImm = false;   ///< ALU src2 is imm; BR compares src1 vs imm
    uint8_t size = 4;      ///< memory access size
    uint16_t exitId = 0;   ///< for exit ops
    uint16_t guestIndex = 0; ///< originating guest instruction
    int64_t imm = 0;

    bool isExit() const { return irOpInfo(op).isExit; }
};

/** One way out of the trace. */
struct IrExit
{
    uint32_t guestTarget = 0;      ///< 0 for indirect exits
    uint32_t guestInstsRetired = 0;
    bool indirect = false;
    bool halt = false;             ///< guest HALT exit
    /** Flags (fmask bits) live-out at this exit; DCE roots. */
    uint8_t flagMask = fmask::All;
};

/** A linear trace: the unit of translation and optimization. */
struct Trace
{
    uint32_t guestEntry = 0;
    std::vector<IrInst> insts;
    std::vector<IrExit> exits;
    /** Guest EIP per guest-instruction index. */
    std::vector<uint32_t> guestEips;
    /** Class of each vreg (bound vregs pre-populated). */
    std::vector<RegClass> vregClass;

    Trace();

    /** Allocate a fresh temporary of class @p cls. */
    Vreg newTemp(RegClass cls);

    /** Append an instruction; returns its index. */
    size_t
    append(const IrInst &inst)
    {
        insts.push_back(inst);
        return insts.size() - 1;
    }

    uint16_t numVregs() const
    {
        return static_cast<uint16_t>(vregClass.size());
    }

    /** Total guest instructions the full trace covers. */
    uint32_t numGuestInsts() const
    {
        return static_cast<uint32_t>(guestEips.size());
    }
};

/** True if @p v is bound to guest architectural state. */
constexpr bool
isBoundVreg(Vreg v)
{
    return v < kNumBoundVregs;
}

/** True if @p v is one of the flag vregs. */
constexpr bool
isFlagVreg(Vreg v)
{
    return v >= vFlagZ && v <= vFlagO;
}

/**
 * Structural validation (used by tests and after every pass):
 *  - temporaries are single-assignment and defined before use,
 *  - vreg ids are in range and classes consistent with ops,
 *  - exit ids valid, trace ends with an unconditional exit,
 *  - no unconditional exit in the middle followed by dead code.
 * Returns an empty string when valid, else a diagnostic.
 */
std::string validate(const Trace &trace);

/** Pretty-print one instruction (for tests/debugging). */
std::string toString(const IrInst &inst);

/** Pretty-print the whole trace. */
std::string toString(const Trace &trace);

} // namespace darco::ir

#endif // DARCO_IR_IR_HH
