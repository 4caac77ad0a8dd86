#include "guest/assembler.hh"

#include "common/logging.hh"
#include "guest/memory.hh"

namespace darco::guest {

Assembler::Label
Assembler::newLabel()
{
    labelOffsets.push_back(-1);
    return Label{static_cast<int>(labelOffsets.size()) - 1};
}

void
Assembler::bind(Label label)
{
    panic_if(label.id < 0 ||
             label.id >= static_cast<int>(labelOffsets.size()),
             "bind: bad label");
    panic_if(labelOffsets[label.id] >= 0, "bind: label bound twice");
    labelOffsets[label.id] = static_cast<int64_t>(code.size());
}

void
Assembler::emit(Inst inst)
{
    panic_if(finalized, "emit after finalize");
    encode(inst, code);
    ++instCount;
}

void
Assembler::emitRR(Op op, uint8_t r1, uint8_t r2)
{
    Inst inst;
    inst.op = op;
    inst.form = Form::RR;
    inst.reg1 = r1;
    inst.reg2 = r2;
    emit(inst);
}

void
Assembler::emitRI(Op op, uint8_t r1, int32_t imm)
{
    Inst inst;
    inst.op = op;
    inst.form = Form::RI;
    inst.reg1 = r1;
    inst.imm = imm;
    emit(inst);
}

void
Assembler::emitRM(Op op, uint8_t r1, const MemOperand &m)
{
    Inst inst;
    inst.op = op;
    inst.form = Form::RM;
    inst.reg1 = r1;
    inst.mem = m;
    emit(inst);
}

void
Assembler::emitMR(Op op, uint8_t r1, const MemOperand &m)
{
    Inst inst;
    inst.op = op;
    inst.form = Form::MR;
    inst.reg1 = r1;
    inst.mem = m;
    emit(inst);
}

void
Assembler::emitR(Op op, uint8_t r1)
{
    Inst inst;
    inst.op = op;
    inst.form = Form::R;
    inst.reg1 = r1;
    emit(inst);
}

void
Assembler::emitM(Op op, const MemOperand &m)
{
    Inst inst;
    inst.op = op;
    inst.form = Form::M;
    inst.mem = m;
    emit(inst);
}

void
Assembler::emitI(Op op, int32_t imm)
{
    Inst inst;
    inst.op = op;
    inst.form = Form::I;
    inst.imm = imm;
    emit(inst);
}

void
Assembler::emitNone(Op op)
{
    Inst inst;
    inst.op = op;
    inst.form = Form::NONE;
    emit(inst);
}

void
Assembler::cvtif(FReg d, Reg s)
{
    emitRR(Op::CVTIF, d, s);
}

void
Assembler::cvtfi(Reg d, FReg s)
{
    emitRR(Op::CVTFI, d, s);
}

void
Assembler::movLabel(Reg dst, Label label)
{
    panic_if(finalized, "emit after finalize");
    Inst inst;
    inst.op = Op::MOV;
    inst.form = Form::RI;
    inst.reg1 = dst;
    inst.imm = 0;
    inst.length = 1;  // force wide immediate so the fixup has 4 bytes
    const size_t start = code.size();
    encode(inst, code);
    ++instCount;
    // imm is the last 4 bytes of the encoding
    fixups.push_back(Fixup{code.size() - 4, code.size(), label.id, true});
    (void)start;
}

void
Assembler::emitBranch(Op op, Cond cond, Label target)
{
    panic_if(finalized, "emit after finalize");
    panic_if(target.id < 0 ||
             target.id >= static_cast<int>(labelOffsets.size()),
             "branch to bad label");

    Inst inst;
    inst.op = op;
    inst.form = Form::I;
    inst.cond = cond;

    const int64_t bound = labelOffsets[target.id];
    if (bound >= 0) {
        // Backward branch: try the short encoding first. The
        // displacement depends on the chosen length, so compute both.
        // Short JMP/JCC/CALL (form I, imm8): 2 + 1 (regs) + 1 = 4 bytes.
        const int64_t start = static_cast<int64_t>(code.size());
        const int64_t rel_short = bound - (start + 4);
        if (rel_short >= -128 && rel_short <= 127) {
            inst.imm = static_cast<int32_t>(rel_short);
            emit(inst);
            return;
        }
        const int64_t rel_wide = bound - (start + 7);
        inst.imm = static_cast<int32_t>(rel_wide);
        inst.length = 1;  // force wide
        emit(inst);
        return;
    }

    // Forward branch: reserve the wide form, patch at finalize().
    inst.imm = 0;
    inst.length = 1;  // force wide
    encode(inst, code);
    ++instCount;
    fixups.push_back(Fixup{code.size() - 4, code.size(), target.id, false});
}

std::vector<uint8_t>
Assembler::finalize(uint32_t base_addr)
{
    panic_if(finalized, "finalize called twice");
    finalized = true;
    finalBase = base_addr;

    for (const Fixup &fixup : fixups) {
        const int64_t bound = labelOffsets[fixup.labelId];
        panic_if(bound < 0, "finalize: unbound label %d referenced",
                 fixup.labelId);
        int32_t value;
        if (fixup.absolute) {
            value = static_cast<int32_t>(base_addr +
                                         static_cast<uint32_t>(bound));
        } else {
            value = static_cast<int32_t>(bound -
                static_cast<int64_t>(fixup.instEnd));
        }
        const uint32_t v = static_cast<uint32_t>(value);
        code[fixup.immOffset] = v & 0xFF;
        code[fixup.immOffset + 1] = (v >> 8) & 0xFF;
        code[fixup.immOffset + 2] = (v >> 16) & 0xFF;
        code[fixup.immOffset + 3] = (v >> 24) & 0xFF;
    }
    return code;
}

uint32_t
Assembler::labelAddr(Label label) const
{
    panic_if(!finalized, "labelAddr before finalize");
    panic_if(label.id < 0 ||
             label.id >= static_cast<int>(labelOffsets.size()) ||
             labelOffsets[label.id] < 0,
             "labelAddr: unbound label");
    return finalBase + static_cast<uint32_t>(labelOffsets[label.id]);
}

uint32_t
Program::layoutCodeBase()
{
    return layout::kCodeBase;
}

uint32_t
Program::layoutStackTop()
{
    return layout::kStackTop;
}

State
Program::initialState() const
{
    State state;
    state.eip = entry ? entry : codeBase;
    state.gpr[ESP] = stackTop;
    return state;
}

uint32_t
Program::countStaticInsts() const
{
    uint32_t count = 0;
    size_t pos = 0;
    while (pos < code.size()) {
        Inst inst;
        const DecodeStatus st = decode(code.data() + pos,
                                       code.size() - pos, inst);
        if (st != DecodeStatus::Ok)
            break;
        pos += inst.length;
        ++count;
    }
    return count;
}

} // namespace darco::guest
