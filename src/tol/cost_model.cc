#include "tol/cost_model.hh"

namespace darco::tol {

using host::HOp;
using host::hreg::TolScratch0;
using timing::Record;

uint32_t
CostStream::nextPc()
{
    const uint32_t pc = pcBase + pcOffset;
    pcOffset += host::kHostInstBytes;
    if (pcOffset >= pcBytes)
        pcOffset = 0;
    return pc;
}

uint8_t
CostStream::nextDst()
{
    // Rotate over six TOL scratch registers: adjacent emitted
    // instructions are partly dependent (rs1 = previous dst), partly
    // independent, giving realistic (not perfectly parallel, not
    // fully serial) TOL ILP.
    rotor = static_cast<uint8_t>((rotor + 1) % 6);
    return static_cast<uint8_t>(TolScratch0 + rotor);
}

void
CostStream::buildTemplates()
{
    aluTmpl.op = HOp::ADD;
    aluTmpl.module = mod;

    loadTmpl.op = HOp::LD;
    loadTmpl.isLoad = true;
    loadTmpl.module = mod;

    storeTmpl.op = HOp::ST;
    storeTmpl.isStore = true;
    storeTmpl.module = mod;

    branchTmpl.op = HOp::BNE;
    branchTmpl.isBranch = true;
    branchTmpl.isCondBranch = true;
    branchTmpl.rs2 = host::hreg::Zero;
    branchTmpl.module = mod;

    dispatchTmpl.op = HOp::JALR;
    dispatchTmpl.isBranch = true;
    dispatchTmpl.isIndirect = true;
    dispatchTmpl.taken = true;
    dispatchTmpl.module = mod;

    loopTmpl.op = HOp::JAL;
    loopTmpl.isBranch = true;
    loopTmpl.taken = true;
    loopTmpl.branchTarget = pcBase;
    loopTmpl.module = mod;
}

void
CostStream::alu(unsigned count)
{
    for (unsigned i = 0; i < count; ++i) {
        Record &rec = begin(aluTmpl);
        rec.pc = nextPc();
        rec.rs1 = lastDst;
        rec.rs2 = static_cast<uint8_t>(TolScratch0 + rotor);
        rec.rd = nextDst();
        lastDst = rec.rd;
    }
}

void
CostStream::load(uint32_t addr, uint8_t size)
{
    Record &rec = begin(loadTmpl);
    rec.pc = nextPc();
    rec.memAddr = addr;
    rec.size = size;
    rec.rs1 = lastDst;
    rec.rd = nextDst();
    lastDst = rec.rd;
}

void
CostStream::store(uint32_t addr, uint8_t size)
{
    Record &rec = begin(storeTmpl);
    rec.pc = nextPc();
    rec.memAddr = addr;
    rec.size = size;
    rec.rs1 = static_cast<uint8_t>(TolScratch0 + rotor);
    rec.rs2 = lastDst;
}

void
CostStream::branch(bool taken)
{
    Record &rec = begin(branchTmpl);
    rec.pc = nextPc();
    rec.taken = taken;
    rec.rs1 = lastDst;
    if (taken) {
        // Short forward skip inside the window.
        rec.branchTarget = pcBase + ((pcOffset + 16) % pcBytes);
        pcOffset = (pcOffset + 16) % pcBytes;
    }
}

void
CostStream::dispatch(uint32_t selector)
{
    Record &rec = begin(dispatchTmpl);
    // Direct-threaded dispatch: each handler ends in its own indirect
    // jump, so the BTB learns per-predecessor targets — the standard
    // technique production interpreters use to stay predictable.
    rec.pc = pcBase + 64 + (lastSelector % 64) * 256 + 252;
    rec.rs1 = lastDst;
    // Each selector gets its own handler block inside the window.
    rec.branchTarget = pcBase + 64 + (selector % 64) * 256;
    lastSelector = selector;
    pcOffset = (rec.branchTarget - pcBase) % pcBytes;
}

void
CostStream::loopBack()
{
    Record &rec = begin(loopTmpl);
    rec.pc = nextPc();
    pcOffset = 0;
}

namespace {

using host::amap::kTolCodeBase;

// PC window layout inside the TOL code region. Total TOL code
// footprint ~28 KiB: mostly L1-I resident, as the paper observes.
constexpr uint32_t kImBase = kTolCodeBase + 0x01000;
constexpr uint32_t kImBytes = 0x4800;      // 18 KiB: hub + handlers
constexpr uint32_t kBbmBase = kTolCodeBase + 0x08000;
constexpr uint32_t kBbmBytes = 0x1000;     // 4 KiB translator loop
constexpr uint32_t kSbmBase = kTolCodeBase + 0x0A000;
constexpr uint32_t kSbmBytes = 0x1800;     // 6 KiB optimizer loops
constexpr uint32_t kChainBase = kTolCodeBase + 0x0C000;
constexpr uint32_t kChainBytes = 0x200;
constexpr uint32_t kLookupBase = kTolCodeBase + 0x0D000;
constexpr uint32_t kLookupBytes = 0x200;
constexpr uint32_t kOtherBase = kTolCodeBase + 0x0E000;
constexpr uint32_t kOtherBytes = 0x400;

} // namespace

CostModel::CostModel(timing::RecordBatcher &batcher)
    : im(batcher, timing::Module::IM, kImBase, kImBytes),
      bbm(batcher, timing::Module::BBM, kBbmBase, kBbmBytes),
      sbm(batcher, timing::Module::SBM, kSbmBase, kSbmBytes),
      chain(batcher, timing::Module::Chaining, kChainBase, kChainBytes),
      lookup(batcher, timing::Module::Lookup, kLookupBase,
             kLookupBytes),
      other(batcher, timing::Module::TolOther, kOtherBase, kOtherBytes)
{}

} // namespace darco::tol
