/**
 * @file
 * Host-layer tests: HRISC executor semantics per opcode, service-stop
 * behaviour, retirement accounting on exit transfers, and the
 * disassembler.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "host/disasm.hh"
#include "host/executor.hh"

using namespace darco;
using namespace darco::host;

namespace {

/** Counts the records delivered to it. */
class CountingSink : public timing::RecordSink
{
  public:
    void consume(const timing::Record &) override { ++records; }
    uint64_t records = 0;
};

/** Build a region from instructions + a trailing halt-service JAL. */
struct ExecFixture
{
    CodeStore store{amap::kCodeCacheBase, amap::kCodeCacheBase + 65536};
    Memory mem;
    CountingSink sink;
    timing::RecordBatcher batcher{sink};
    Executor exec{store, mem, batcher};

    HostInst
    mk(HOp op, uint8_t rd, uint8_t rs1, uint8_t rs2, int64_t imm = 0)
    {
        HostInst inst;
        inst.op = op;
        inst.rd = rd;
        inst.rs1 = rs1;
        inst.rs2 = rs2;
        inst.imm = imm;
        return inst;
    }

    /** Install insts + final JAL to the halt service; run from entry. */
    Executor::Stop
    run(std::vector<HostInst> insts)
    {
        HostInst end = mk(HOp::JAL, 0, kNoReg, kNoReg,
                          static_cast<int64_t>(amap::kSvcHalt));
        insts.push_back(end);
        auto region = std::make_unique<CodeRegion>();
        region->insts = std::move(insts);
        CodeRegion *installed = store.install(std::move(region));
        EXPECT_NE(installed, nullptr);
        return exec.run(installed->hostBase, 1u << 20);
    }
};

} // namespace

TEST(HostExecutor, AluSemantics)
{
    ExecFixture f;
    f.exec.x[10] = 7;
    f.exec.x[11] = 3;
    f.run({
        f.mk(HOp::ADD, 12, 10, 11),       // 10
        f.mk(HOp::SUB, 13, 10, 11),       // 4
        f.mk(HOp::SLL, 14, 10, 11),       // 56
        f.mk(HOp::SLT, 15, 11, 10),       // 1
        f.mk(HOp::SLTU, 16, 10, 11),      // 0
        f.mk(HOp::MUL, 17, 10, 11),       // 21
        f.mk(HOp::DIV, 18, 10, 11),       // 2
        f.mk(HOp::REM, 19, 10, 11),       // 1
        f.mk(HOp::XORI, 20, 10, kNoReg, 1),  // 6
        f.mk(HOp::LUI, 21, kNoReg, kNoReg, 0x12345000),
    });
    EXPECT_EQ(f.exec.x[12], 10u);
    EXPECT_EQ(f.exec.x[13], 4u);
    EXPECT_EQ(f.exec.x[14], 56u);
    EXPECT_EQ(f.exec.x[15], 1u);
    EXPECT_EQ(f.exec.x[16], 0u);
    EXPECT_EQ(f.exec.x[17], 21u);
    EXPECT_EQ(f.exec.x[18], 2u);
    EXPECT_EQ(f.exec.x[19], 1u);
    EXPECT_EQ(f.exec.x[20], 6u);
    EXPECT_EQ(f.exec.x[21], 0x12345000u);
}

TEST(HostExecutor, X0IsHardwiredZero)
{
    ExecFixture f;
    f.run({
        f.mk(HOp::ADDI, 0, 0, kNoReg, 123),   // write to x0 discarded
        f.mk(HOp::ADDI, 10, 0, kNoReg, 5),    // x0 reads as 0
    });
    EXPECT_EQ(f.exec.x[0], 0u);
    EXPECT_EQ(f.exec.x[10], 5u);
}

TEST(HostExecutor, MulhAndSignedDivEdge)
{
    ExecFixture f;
    f.exec.x[10] = 0x80000000;  // INT_MIN
    f.exec.x[11] = static_cast<uint32_t>(-1);
    f.run({
        f.mk(HOp::MULH, 12, 10, 10),   // INT_MIN^2 >> 32 = 0x40000000
        f.mk(HOp::DIV, 13, 10, 11),    // total semantics: 0
        f.mk(HOp::REM, 14, 10, 11),    // total semantics: dividend
        f.mk(HOp::DIV, 15, 10, 0),     // /0 -> 0
    });
    EXPECT_EQ(f.exec.x[12], 0x40000000u);
    EXPECT_EQ(f.exec.x[13], 0u);
    EXPECT_EQ(f.exec.x[14], 0x80000000u);
    EXPECT_EQ(f.exec.x[15], 0u);
}

TEST(HostExecutor, LoadStoreSizes)
{
    ExecFixture f;
    f.exec.x[10] = 0x20000;
    f.exec.x[11] = 0xAABBCCDD;
    HostInst st4 = f.mk(HOp::ST, kNoReg, 10, 11, 0);
    st4.size = 4;
    HostInst ld1 = f.mk(HOp::LD, 12, 10, kNoReg, 1);
    ld1.size = 1;
    HostInst ld4 = f.mk(HOp::LD, 13, 10, kNoReg, 0);
    ld4.size = 4;
    f.run({st4, ld1, ld4});
    EXPECT_EQ(f.exec.x[12], 0xCCu);  // little-endian byte 1
    EXPECT_EQ(f.exec.x[13], 0xAABBCCDDu);
    EXPECT_EQ(f.mem.load32(0x20000), 0xAABBCCDDu);
}

TEST(HostExecutor, FpOps)
{
    ExecFixture f;
    f.exec.f[20] = 2.0;
    f.exec.f[21] = 8.0;
    f.run({
        f.mk(HOp::FADD, 22, 20, 21),
        f.mk(HOp::FMUL, 23, 20, 21),
        f.mk(HOp::FSQRT, 24, 21, kNoReg),
        f.mk(HOp::FLT, 10, 20, 21),
        f.mk(HOp::FEQ, 11, 20, 20),
    });
    EXPECT_DOUBLE_EQ(f.exec.f[22], 10.0);
    EXPECT_DOUBLE_EQ(f.exec.f[23], 16.0);
    EXPECT_DOUBLE_EQ(f.exec.f[24], std::sqrt(8.0));
    EXPECT_EQ(f.exec.x[10], 1u);
    EXPECT_EQ(f.exec.x[11], 1u);
}

TEST(HostExecutor, BranchesWithinRegion)
{
    ExecFixture f;
    f.exec.x[10] = 1;
    // beq x10, x0 -> skip (not taken); addi x11 = 7; then a taken
    // branch over an addi that must not execute.
    std::vector<HostInst> insts = {
        f.mk(HOp::BEQ, kNoReg, 10, 0, 0),     // patched below
        f.mk(HOp::ADDI, 11, 0, kNoReg, 7),
        f.mk(HOp::BNE, kNoReg, 10, 0, 0),     // patched below
        f.mk(HOp::ADDI, 11, 0, kNoReg, 99),   // skipped
        f.mk(HOp::ADDI, 12, 11, kNoReg, 1),   // x12 = 8
    };
    insts[0].imm = 4;  // index of the last ADDI
    insts[0].targetIsIndex = true;
    insts[2].imm = 4;
    insts[2].targetIsIndex = true;
    f.run(std::move(insts));
    EXPECT_EQ(f.exec.x[11], 7u);
    EXPECT_EQ(f.exec.x[12], 8u);
}

TEST(HostExecutor, RetirementCountingOnExitTransfers)
{
    ExecFixture f;
    HostInst jal = f.mk(HOp::JAL, 0, kNoReg, kNoReg,
                        static_cast<int64_t>(amap::kSvcDispatch));
    jal.guestBoundary = true;
    jal.guestIndex = 13;  // retires 13 guest instructions
    auto region = std::make_unique<CodeRegion>();
    region->insts = {f.mk(HOp::ADDI, 10, 0, kNoReg, 1), jal};
    CodeRegion *installed = f.store.install(std::move(region));
    const Executor::Stop stop = f.exec.run(installed->hostBase, 1000);
    EXPECT_EQ(stop.reason, Executor::StopReason::Dispatch);
    EXPECT_EQ(f.exec.lastGuestRetired(), 13u);
}

TEST(HostExecutor, BudgetStopsAtRegionEntry)
{
    ExecFixture f;
    // A region that chains to itself, retiring 2 per trip.
    HostInst jal = f.mk(HOp::JAL, 0, kNoReg, kNoReg, 0);
    jal.guestBoundary = true;
    jal.guestIndex = 2;
    jal.targetIsIndex = true;  // back to instruction 0
    auto region = std::make_unique<CodeRegion>();
    region->guestEntry = 0x8048000;
    region->insts = {f.mk(HOp::ADDI, 10, 10, kNoReg, 1), jal};
    CodeRegion *installed = f.store.install(std::move(region));

    const Executor::Stop stop = f.exec.run(installed->hostBase, 9);
    EXPECT_EQ(stop.reason, Executor::StopReason::Budget);
    EXPECT_EQ(stop.guestEip, 0x8048000u);
    // 5 trips x 2 = 10 >= 9: stops having retired 10.
    EXPECT_EQ(f.exec.lastGuestRetired(), 10u);
    EXPECT_EQ(f.exec.x[10], 5u);
}

TEST(HostExecutor, CancelStopsTranslatedLoopAtRegionEntry)
{
    ExecFixture f;
    // A region chained to itself, retiring 2 per three-instruction
    // trip, with a budget it would take billions of trips to spend.
    HostInst jal = f.mk(HOp::JAL, 0, kNoReg, kNoReg, 0);
    jal.guestBoundary = true;
    jal.guestIndex = 2;
    jal.targetIsIndex = true;  // back to instruction 0
    auto region = std::make_unique<CodeRegion>();
    region->guestEntry = 0x8048000;
    region->insts = {f.mk(HOp::ADDI, 10, 10, kNoReg, 1),
                     f.mk(HOp::ADDI, 11, 11, kNoReg, 2), jal};
    CodeRegion *installed = f.store.install(std::move(region));

    common::CancelToken token;
    token.request();
    f.exec.setCancelToken(&token);
    const Executor::Stop stop =
        f.exec.run(installed->hostBase, uint64_t{1} << 40);
    f.batcher.flush();

    // The request lands inside translated code, at a clean region
    // entry, with exact accounting for the trips that completed.
    EXPECT_EQ(stop.reason, Executor::StopReason::Budget);
    EXPECT_EQ(stop.region, installed);
    EXPECT_EQ(stop.guestEip, 0x8048000u);
    const uint64_t trips = f.exec.x[10];
    EXPECT_GE(trips, 1u);
    EXPECT_EQ(f.exec.lastGuestRetired(), 2 * trips);
    EXPECT_EQ(f.sink.records, 3 * trips);
    EXPECT_LE(f.sink.records, 256u + 3u);
}

TEST(HostExecutor, ServicePayloadRegisters)
{
    ExecFixture f;
    std::vector<HostInst> insts = {
        f.mk(HOp::ADDI, hreg::ExitTarget, 0, kNoReg, 0x1234),
        f.mk(HOp::ADDI, hreg::ExitId, 0, kNoReg, 3),
    };
    const Executor::Stop stop = f.run(std::move(insts));
    EXPECT_EQ(stop.reason, Executor::StopReason::Halt);
    EXPECT_EQ(stop.exitId, 3u);
    EXPECT_EQ(f.exec.x[hreg::ExitTarget], 0x1234u);
}

// ----- disassembler -----------------------------------------------------

TEST(HostDisasm, RendersConventionalRegisters)
{
    HostInst inst;
    inst.op = HOp::ADD;
    inst.rd = hreg::guestGpr(0);  // gEAX
    inst.rs1 = hreg::guestGpr(3); // gEBX
    inst.rs2 = hreg::Zero;
    EXPECT_EQ(disassemble(inst), "add gEAX, gEBX, x0");
}

TEST(HostDisasm, RendersMemoryAndServiceTargets)
{
    HostInst ld;
    ld.op = HOp::LD;
    ld.rd = 45;
    ld.rs1 = hreg::guestGpr(6);
    ld.imm = -8;
    ld.size = 4;
    EXPECT_EQ(disassemble(ld), "ld x45, [gESI-8]:4");

    HostInst jal;
    jal.op = HOp::JAL;
    jal.rd = hreg::Zero;
    jal.imm = static_cast<int64_t>(amap::kSvcDispatch);
    jal.guestBoundary = true;
    jal.guestIndex = 5;
    EXPECT_EQ(disassemble(jal), "jal x0 -> svc:dispatch   ; retire 5");
}

TEST(HostDisasm, RegionDumpContainsExits)
{
    CodeRegion region;
    region.kind = RegionKind::Superblock;
    region.hostBase = 0xC8000100;
    region.guestEntry = 0x8048000;
    HostInst nop;
    region.insts = {nop};
    ExitInfo exit;
    exit.guestTarget = 0x8048020;
    exit.guestInstsRetired = 4;
    exit.flagMask = 0x3;
    region.exits.push_back(exit);

    const std::string dump = disassembleRegion(region);
    EXPECT_NE(dump.find("superblock region"), std::string::npos);
    EXPECT_NE(dump.find("guest 0x08048000"), std::string::npos);
    EXPECT_NE(dump.find("target 0x08048020"), std::string::npos);
    EXPECT_NE(dump.find("retires 4"), std::string::npos);
}

TEST(CodeStore, LookupCacheInvalidatedOnFlush)
{
    CodeStore store{amap::kCodeCacheBase, amap::kCodeCacheBase + 65536};

    auto make_region = [](size_t n) {
        auto region = std::make_unique<CodeRegion>();
        HostInst nop;
        region->insts.assign(n, nop);
        return region;
    };

    CodeRegion *first = store.install(make_region(8));
    ASSERT_NE(first, nullptr);
    const uint32_t first_base = first->hostBase;
    const uint32_t pc = first_base + 3 * kHostInstBytes;

    // Populate the direct-mapped lookup cache, then hit it.
    EXPECT_EQ(store.find(pc), first);
    EXPECT_EQ(store.find(pc), first);

    store.flush();  // destroys `first`
    // The cached mapping must not survive the flush.
    EXPECT_EQ(store.find(pc), nullptr);
    EXPECT_EQ(store.numRegions(), 0u);

    // The bump allocator restarts, so a new region reuses the same
    // addresses; lookups must resolve to the new region object.
    CodeRegion *second = store.install(make_region(8));
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->hostBase, first_base);
    EXPECT_EQ(store.find(pc), second);
    EXPECT_EQ(store.find(pc), second);
}
