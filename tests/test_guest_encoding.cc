/**
 * @file
 * Guest ISA encoding tests: encode/decode round trips over every
 * opcode/form combination, length properties, error handling.
 */

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "guest/encoding.hh"

namespace dg = darco::guest;
using darco::Prng;

namespace {

std::vector<dg::Form>
validForms(dg::Op op)
{
    std::vector<dg::Form> forms;
    for (unsigned f = 0; f < static_cast<unsigned>(dg::Form::NumForms);
         ++f) {
        if (dg::formValid(op, static_cast<dg::Form>(f)))
            forms.push_back(static_cast<dg::Form>(f));
    }
    return forms;
}

dg::Inst
randomInst(Prng &rng, dg::Op op, dg::Form form)
{
    dg::Inst inst;
    inst.op = op;
    inst.form = form;
    inst.reg1 = static_cast<uint8_t>(rng.below(8));
    inst.reg2 = static_cast<uint8_t>(rng.below(8));
    if (op == dg::Op::JCC) {
        inst.cond = static_cast<dg::Cond>(
            rng.below(static_cast<uint64_t>(dg::Cond::NumConds)));
    }
    if (form == dg::Form::RM || form == dg::Form::MR ||
        form == dg::Form::M) {
        inst.mem.base = static_cast<uint8_t>(rng.below(8));
        if (rng.chance(0.5)) {
            inst.mem.hasIndex = true;
            inst.mem.index = static_cast<uint8_t>(rng.below(8));
            inst.mem.scaleLog2 = static_cast<uint8_t>(rng.below(4));
        }
        inst.mem.disp = static_cast<int32_t>(rng.next());
        if (rng.chance(0.5))
            inst.mem.disp = static_cast<int8_t>(rng.next());
    }
    if (form == dg::Form::RI || form == dg::Form::I) {
        inst.imm = static_cast<int32_t>(rng.next());
        if (rng.chance(0.5))
            inst.imm = static_cast<int8_t>(rng.next());
    }
    return inst;
}

} // namespace

TEST(GuestEncoding, RoundTripAllOpsAllForms)
{
    Prng rng(42);
    for (unsigned o = 0; o < static_cast<unsigned>(dg::Op::NumOps); ++o) {
        const dg::Op op = static_cast<dg::Op>(o);
        for (dg::Form form : validForms(op)) {
            for (int iter = 0; iter < 50; ++iter) {
                dg::Inst inst = randomInst(rng, op, form);
                std::vector<uint8_t> bytes;
                const unsigned len = dg::encode(inst, bytes);
                ASSERT_GE(len, 2u);
                ASSERT_LE(len, dg::kMaxInstLength);

                dg::Inst decoded;
                const auto status =
                    dg::decode(bytes.data(), bytes.size(), decoded);
                ASSERT_EQ(status, dg::DecodeStatus::Ok)
                    << dg::opName(op) << " form "
                    << static_cast<int>(form);
                EXPECT_EQ(decoded.length, len);

                // Compare semantic fields.
                EXPECT_EQ(decoded.op, inst.op);
                EXPECT_EQ(decoded.form, inst.form);
                if (op == dg::Op::JCC) {
                    EXPECT_EQ(decoded.cond, inst.cond);
                }
                if (form == dg::Form::RM || form == dg::Form::MR ||
                    form == dg::Form::M) {
                    EXPECT_EQ(decoded.mem.base, inst.mem.base);
                    EXPECT_EQ(decoded.mem.hasIndex, inst.mem.hasIndex);
                    if (inst.mem.hasIndex) {
                        EXPECT_EQ(decoded.mem.index, inst.mem.index);
                        EXPECT_EQ(decoded.mem.scaleLog2,
                                  inst.mem.scaleLog2);
                    }
                    EXPECT_EQ(decoded.mem.disp, inst.mem.disp);
                }
                if (form == dg::Form::RI || form == dg::Form::I) {
                    EXPECT_EQ(decoded.imm, inst.imm);
                }
                if (op != dg::Op::JCC && form != dg::Form::NONE &&
                    form != dg::Form::I && form != dg::Form::M) {
                    EXPECT_EQ(decoded.reg1, inst.reg1);
                }
            }
        }
    }
}

TEST(GuestEncoding, ShortImmediateSelectsShortEncoding)
{
    dg::Inst inst;
    inst.op = dg::Op::MOV;
    inst.form = dg::Form::RI;
    inst.reg1 = dg::EAX;
    inst.imm = 5;
    std::vector<uint8_t> bytes;
    const unsigned short_len = dg::encode(inst, bytes);

    bytes.clear();
    inst.imm = 100000;
    const unsigned long_len = dg::encode(inst, bytes);
    EXPECT_EQ(long_len, short_len + 3);
}

TEST(GuestEncoding, ForcedWideEncoding)
{
    dg::Inst inst;
    inst.op = dg::Op::JMP;
    inst.form = dg::Form::I;
    inst.imm = 5;
    inst.length = 1;  // force wide
    std::vector<uint8_t> bytes;
    const unsigned len = dg::encode(inst, bytes);
    EXPECT_EQ(len, 7u);  // opcode + form + regs + imm32
}

TEST(GuestEncoding, DecodeRejectsBadOpcode)
{
    const uint8_t bytes[] = {0xFF, 0x00, 0x00, 0x00};
    dg::Inst inst;
    EXPECT_EQ(dg::decode(bytes, sizeof(bytes), inst),
              dg::DecodeStatus::BadOpcode);
}

TEST(GuestEncoding, DecodeRejectsBadForm)
{
    // RET only supports Form::NONE.
    const uint8_t bytes[] = {
        static_cast<uint8_t>(dg::Op::RET), 0x01, 0x00, 0x00};
    dg::Inst inst;
    EXPECT_EQ(dg::decode(bytes, sizeof(bytes), inst),
              dg::DecodeStatus::BadForm);
}

TEST(GuestEncoding, DecodeRejectsTruncated)
{
    dg::Inst inst;
    inst.op = dg::Op::MOV;
    inst.form = dg::Form::RI;
    inst.imm = 100000;
    std::vector<uint8_t> bytes;
    dg::encode(inst, bytes);
    dg::Inst out;
    EXPECT_EQ(dg::decode(bytes.data(), bytes.size() - 1, out),
              dg::DecodeStatus::Truncated);
    EXPECT_EQ(dg::decode(bytes.data(), 1, out),
              dg::DecodeStatus::Truncated);
}

TEST(GuestEncoding, DisassemblerProducesText)
{
    dg::Inst inst;
    inst.op = dg::Op::ADD;
    inst.form = dg::Form::RM;
    inst.reg1 = dg::EAX;
    inst.mem.base = dg::EBX;
    inst.mem.hasIndex = true;
    inst.mem.index = dg::ESI;
    inst.mem.scaleLog2 = 2;
    inst.mem.disp = 16;
    EXPECT_EQ(dg::disassemble(inst), "add eax, [ebx+esi*4+16]");
}
