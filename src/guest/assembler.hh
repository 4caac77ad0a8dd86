/**
 * @file
 * Programmatic GX86 assembler.
 *
 * Workload generators and tests build guest programs through this
 * class: emitters append encoded instructions to a code buffer;
 * labels with forward references are fixed up at finalize() time.
 * Forward-referenced branches always reserve a 4-byte displacement;
 * bound (backward) branches use the short 1-byte form when it fits,
 * which keeps the instruction-length distribution realistic.
 */

#ifndef DARCO_GUEST_ASSEMBLER_HH
#define DARCO_GUEST_ASSEMBLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "guest/encoding.hh"
#include "guest/isa.hh"

namespace darco::guest {

/** Build a [base + index*scale + disp] memory operand. */
inline MemOperand
mem(Reg base, int32_t disp = 0)
{
    MemOperand m;
    m.base = base;
    m.disp = disp;
    return m;
}

inline MemOperand
mem(Reg base, Reg index, uint8_t scale_log2, int32_t disp = 0)
{
    MemOperand m;
    m.base = base;
    m.index = index;
    m.scaleLog2 = scale_log2;
    m.hasIndex = true;
    m.disp = disp;
    return m;
}

class Assembler
{
  public:
    /** Opaque label handle. */
    struct Label { int id = -1; };

    /** Create a fresh, unbound label. */
    Label newLabel();

    /** Bind @p label to the current code offset. */
    void bind(Label label);

    // ----- data movement ---------------------------------------------
    void mov(Reg dst, Reg src)        { emitRR(Op::MOV, dst, src); }
    void mov(Reg dst, int32_t imm)    { emitRI(Op::MOV, dst, imm); }
    void mov(Reg dst, MemOperand m)   { emitRM(Op::MOV, dst, m); }
    void mov(MemOperand m, Reg src)   { emitMR(Op::MOV, src, m); }
    void movb(Reg dst, MemOperand m)  { emitRM(Op::MOVB, dst, m); }
    void movb(MemOperand m, Reg src)  { emitMR(Op::MOVB, src, m); }
    void lea(Reg dst, MemOperand m)   { emitRM(Op::LEA, dst, m); }

    /** MOV reg, <address of label>; resolved at finalize(). */
    void movLabel(Reg dst, Label label);

    // ----- integer ALU ------------------------------------------------
    void add(Reg d, Reg s)        { emitRR(Op::ADD, d, s); }
    void add(Reg d, int32_t imm)  { emitRI(Op::ADD, d, imm); }
    void add(Reg d, MemOperand m) { emitRM(Op::ADD, d, m); }
    void sub(Reg d, Reg s)        { emitRR(Op::SUB, d, s); }
    void sub(Reg d, int32_t imm)  { emitRI(Op::SUB, d, imm); }
    void sub(Reg d, MemOperand m) { emitRM(Op::SUB, d, m); }
    void and_(Reg d, Reg s)       { emitRR(Op::AND, d, s); }
    void and_(Reg d, int32_t imm) { emitRI(Op::AND, d, imm); }
    void and_(Reg d, MemOperand m){ emitRM(Op::AND, d, m); }
    void or_(Reg d, Reg s)        { emitRR(Op::OR, d, s); }
    void or_(Reg d, int32_t imm)  { emitRI(Op::OR, d, imm); }
    void or_(Reg d, MemOperand m) { emitRM(Op::OR, d, m); }
    void xor_(Reg d, Reg s)       { emitRR(Op::XOR, d, s); }
    void xor_(Reg d, int32_t imm) { emitRI(Op::XOR, d, imm); }
    void xor_(Reg d, MemOperand m){ emitRM(Op::XOR, d, m); }
    void cmp(Reg d, Reg s)        { emitRR(Op::CMP, d, s); }
    void cmp(Reg d, int32_t imm)  { emitRI(Op::CMP, d, imm); }
    void cmp(Reg d, MemOperand m) { emitRM(Op::CMP, d, m); }
    void test(Reg d, Reg s)       { emitRR(Op::TEST, d, s); }
    void test(Reg d, int32_t imm) { emitRI(Op::TEST, d, imm); }
    void imul(Reg d, Reg s)       { emitRR(Op::IMUL, d, s); }
    void imul(Reg d, int32_t imm) { emitRI(Op::IMUL, d, imm); }
    void imul(Reg d, MemOperand m){ emitRM(Op::IMUL, d, m); }
    void shl(Reg d, Reg s)        { emitRR(Op::SHL, d, s); }
    void shl(Reg d, int32_t imm)  { emitRI(Op::SHL, d, imm); }
    void shr(Reg d, Reg s)        { emitRR(Op::SHR, d, s); }
    void shr(Reg d, int32_t imm)  { emitRI(Op::SHR, d, imm); }
    void sar(Reg d, Reg s)        { emitRR(Op::SAR, d, s); }
    void sar(Reg d, int32_t imm)  { emitRI(Op::SAR, d, imm); }
    void idiv(Reg src)            { emitR(Op::IDIV, src); }
    void idiv(MemOperand m)       { emitM(Op::IDIV, m); }
    void inc(Reg r)               { emitR(Op::INC, r); }
    void dec(Reg r)               { emitR(Op::DEC, r); }
    void neg(Reg r)               { emitR(Op::NEG, r); }
    void not_(Reg r)              { emitR(Op::NOT, r); }

    // ----- stack --------------------------------------------------------
    void push(Reg r)              { emitR(Op::PUSH, r); }
    void push(int32_t imm)        { emitI(Op::PUSH, imm); }
    void push(MemOperand m)       { emitM(Op::PUSH, m); }
    void pop(Reg r)               { emitR(Op::POP, r); }

    // ----- control flow -------------------------------------------------
    void jmp(Label target)             { emitBranch(Op::JMP, Cond::E, target); }
    void jcc(Cond cond, Label target)  { emitBranch(Op::JCC, cond, target); }
    void call(Label target)            { emitBranch(Op::CALL, Cond::E, target); }
    void jmpi(Reg r)                   { emitR(Op::JMPI, r); }
    void jmpi(MemOperand m)            { emitM(Op::JMPI, m); }
    void calli(Reg r)                  { emitR(Op::CALLI, r); }
    void calli(MemOperand m)           { emitM(Op::CALLI, m); }
    void ret()                         { emitNone(Op::RET); }

    // ----- floating point -------------------------------------------------
    void fmov(FReg d, FReg s)       { emitFRR(Op::FMOV, d, s); }
    void fld(FReg d, MemOperand m)  { emitFRM(Op::FLD, d, m); }
    void fst(MemOperand m, FReg s)  { emitFMR(Op::FST, s, m); }
    void fadd(FReg d, FReg s)       { emitFRR(Op::FADD, d, s); }
    void fadd(FReg d, MemOperand m) { emitFRM(Op::FADD, d, m); }
    void fsub(FReg d, FReg s)       { emitFRR(Op::FSUB, d, s); }
    void fsub(FReg d, MemOperand m) { emitFRM(Op::FSUB, d, m); }
    void fmul(FReg d, FReg s)       { emitFRR(Op::FMUL, d, s); }
    void fmul(FReg d, MemOperand m) { emitFRM(Op::FMUL, d, m); }
    void fdiv(FReg d, FReg s)       { emitFRR(Op::FDIV, d, s); }
    void fdiv(FReg d, MemOperand m) { emitFRM(Op::FDIV, d, m); }
    void fcmp(FReg a, FReg b)       { emitFRR(Op::FCMP, a, b); }
    void fcmp(FReg a, MemOperand m) { emitFRM(Op::FCMP, a, m); }
    void fsqrt(FReg d, FReg s)      { emitFRR(Op::FSQRT, d, s); }
    void fabs_(FReg d, FReg s)      { emitFRR(Op::FABS, d, s); }
    void fneg(FReg d, FReg s)       { emitFRR(Op::FNEG, d, s); }
    void cvtif(FReg d, Reg s);
    void cvtfi(Reg d, FReg s);

    // ----- misc ---------------------------------------------------------
    void nop()  { emitNone(Op::NOP); }
    void halt() { emitNone(Op::HALT); }

    /** Append a pre-built instruction. */
    void emit(Inst inst);

    /** Current code offset (bytes emitted so far). */
    uint32_t offset() const { return static_cast<uint32_t>(code.size()); }

    /** Number of instructions emitted. */
    uint32_t numInsts() const { return instCount; }

    /**
     * Resolve all fixups against @p base_addr and return the code.
     * After finalize(), labelAddr() maps labels to absolute guest
     * addresses (for building jump tables in data segments).
     */
    std::vector<uint8_t> finalize(uint32_t base_addr);

    /** Absolute address of a bound label; valid after finalize(). */
    uint32_t labelAddr(Label label) const;

  private:
    void emitRR(Op op, uint8_t r1, uint8_t r2);
    void emitRI(Op op, uint8_t r1, int32_t imm);
    void emitRM(Op op, uint8_t r1, const MemOperand &m);
    void emitMR(Op op, uint8_t r1, const MemOperand &m);
    void emitR(Op op, uint8_t r1);
    void emitM(Op op, const MemOperand &m);
    void emitI(Op op, int32_t imm);
    void emitNone(Op op);
    void emitFRR(Op op, uint8_t r1, uint8_t r2) { emitRR(op, r1, r2); }
    void emitFRM(Op op, uint8_t r1, const MemOperand &m) { emitRM(op, r1, m); }
    void emitFMR(Op op, uint8_t r1, const MemOperand &m) { emitMR(op, r1, m); }
    void emitBranch(Op op, Cond cond, Label target);

    struct Fixup
    {
        size_t immOffset;    ///< byte offset of the 4-byte field
        size_t instEnd;      ///< offset just past the instruction
        int labelId;
        bool absolute;       ///< movLabel: absolute addr, not relative
    };

    std::vector<uint8_t> code;
    std::vector<Fixup> fixups;
    std::vector<int64_t> labelOffsets;  ///< -1 while unbound
    uint32_t instCount = 0;
    uint32_t finalBase = 0;
    bool finalized = false;
};

/**
 * A complete guest program: code image, entry point, initialized data
 * segments, and the initial stack pointer.
 */
struct Program
{
    uint32_t codeBase = layoutCodeBase();
    std::vector<uint8_t> code;
    uint32_t entry = 0;
    uint32_t stackTop = layoutStackTop();

    struct DataSegment
    {
        uint32_t addr;
        std::vector<uint8_t> bytes;

        bool operator==(const DataSegment &) const = default;
    };
    std::vector<DataSegment> data;

    bool operator==(const Program &) const = default;

    static uint32_t layoutCodeBase();
    static uint32_t layoutStackTop();

    /** Initial architectural state (EIP at entry, ESP at stackTop). */
    State initialState() const;

    /** Copy code and data into any paged memory (32- or 64-bit). */
    template <typename Mem>
    void
    loadInto(Mem &memory) const
    {
        memory.writeBytes(typename Mem::Addr(codeBase), code.data(),
                          code.size());
        for (const auto &seg : data) {
            memory.writeBytes(typename Mem::Addr(seg.addr),
                              seg.bytes.data(), seg.bytes.size());
        }
    }

    /** Static instruction count (decodes the whole image). */
    uint32_t countStaticInsts() const;
};

} // namespace darco::guest

#endif // DARCO_GUEST_ASSEMBLER_HH
