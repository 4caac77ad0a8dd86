/**
 * @file
 * Translator + emitter differential tests: random guest basic blocks
 * are translated (BBM-grade and full SBM-grade pipelines), emitted as
 * host regions, executed by the functional host executor, and the
 * resulting guest state is compared against the authoritative
 * emulator — including lazily-materialized flags per the exit's
 * liveness mask. Also covers the flag-liveness scanner.
 */

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "guest/assembler.hh"
#include "guest/emulator.hh"
#include "host/executor.hh"
#include "ir/passes.hh"
#include "ir/regalloc.hh"
#include "ir/scheduler.hh"
#include "sim/system.hh"
#include "tol/emitter.hh"
#include "tol/flag_scan.hh"
#include "tol/translator.hh"

using namespace darco;
namespace g = darco::guest;

namespace {

/** Null sink for functional-only execution. */
class NullSink : public timing::RecordSink
{
  public:
    void consume(const timing::Record &) override {}
};

/**
 * Harness: translate one guest path, run it as a host region, and
 * compare against the emulator executing the same instructions.
 */
struct RegionHarness
{
    tol::TolConfig cfg;
    host::Memory hostMem;
    host::CodeStore store{host::amap::kCodeCacheBase,
                          host::amap::kCodeCacheBase + (1u << 20)};
    NullSink sink;
    timing::RecordBatcher batcher{sink};
    host::Executor exec{store, hostMem, batcher};

    guest::Memory authMem;
    guest::Emulator emu{authMem};

    /** Build a path from assembled code starting at the code base. */
    std::vector<tol::PathInst>
    pathFromCode(const std::vector<uint8_t> &code)
    {
        hostMem.writeBytes(g::layout::kCodeBase, code.data(),
                           code.size());
        authMem.writeBytes(g::layout::kCodeBase, code.data(),
                           code.size());
        tol::GuestCodeReader reader(hostMem);
        std::vector<tol::PathInst> path;
        uint32_t eip = g::layout::kCodeBase;
        for (;;) {
            const g::Inst &inst = reader.at(eip);
            path.push_back(tol::PathInst{inst, eip, false});
            if (g::opInfo(inst.op).isBranch || inst.op == g::Op::HALT)
                break;
            eip += inst.length;
        }
        return path;
    }

    /**
     * Translate with the given optimization level, execute, compare.
     * Returns the exit taken.
     */
    void
    runAndCompare(const std::vector<tol::PathInst> &path, bool optimize,
                  const g::State &input, uint64_t tag)
    {
        ir::Trace trace = tol::Translator(cfg).translate(path);
        // Conservative exit flag masks (everything live).
        ir::PassStats ps;
        if (optimize) {
            ir::copyPropagation(trace, &ps);
            ir::constantPropagation(trace, &ps);
            ir::commonSubexpressionElimination(trace, &ps);
            ir::copyPropagation(trace, &ps);
            ir::deadCodeElimination(trace, &ps);
            ir::scheduleTrace(trace);
        }
        const ir::Allocation alloc = ir::allocateRegisters(trace);

        tol::EmitOptions opts;
        opts.kind = host::RegionKind::Superblock;
        opts.enableIbtc = false;  // miss path exits to runtime: simplest
        auto region = tol::emitRegion(trace, alloc, opts);
        host::CodeRegion *installed = store.install(std::move(region));
        ASSERT_NE(installed, nullptr);

        // Load guest state into the application register partition.
        for (unsigned r = 0; r < g::NumGprs; ++r)
            exec.x[host::hreg::guestGpr(r)] = input.gpr[r];
        exec.x[host::hreg::FlagZ] = (input.eflags & g::flag::ZF) ? 1 : 0;
        exec.x[host::hreg::FlagS] = (input.eflags & g::flag::SF) ? 1 : 0;
        exec.x[host::hreg::FlagC] = (input.eflags & g::flag::CF) ? 1 : 0;
        exec.x[host::hreg::FlagO] = (input.eflags & g::flag::OF) ? 1 : 0;
        for (unsigned r = 0; r < g::NumFprs; ++r)
            exec.f[host::hreg::guestFpr(r)] = input.fpr[r];

        const host::Executor::Stop stop =
            exec.run(installed->hostBase, 1u << 30);

        // Reference: emulator runs the same dynamic instruction count.
        emu.resetState(input);
        const uint32_t retired = stop.reason ==
                host::Executor::StopReason::Halt
            ? installed->exits[exec.x[host::hreg::ExitId]]
                  .guestInstsRetired
            : installed->exits[stop.exitId].guestInstsRetired;
        emu.run(retired);
        const g::State &ref = emu.state();

        for (unsigned r = 0; r < g::NumGprs; ++r) {
            ASSERT_EQ(ref.gpr[r], exec.x[host::hreg::guestGpr(r)])
                << "GPR " << r << " tag " << tag;
        }
        for (unsigned r = 0; r < g::NumFprs; ++r) {
            uint64_t a, b;
            const double da = ref.fpr[r];
            const double db = exec.f[host::hreg::guestFpr(r)];
            memcpy(&a, &da, 8);
            memcpy(&b, &db, 8);
            ASSERT_EQ(a, b) << "FPR " << r << " tag " << tag;
        }

        // Exit target check (direct exits).
        const host::ExitInfo &exit = installed->exits[stop.exitId];
        if (!exit.indirect &&
            stop.reason == host::Executor::StopReason::Dispatch) {
            ASSERT_EQ(ref.eip, exec.x[host::hreg::ExitTarget])
                << "exit target, tag " << tag;
        }
        if (exit.indirect) {
            ASSERT_EQ(ref.eip, exec.x[host::hreg::ExitTarget])
                << "indirect target, tag " << tag;
        }

        // Flags per exit liveness (we used conservative All here).
        const uint8_t mask = exit.flagMask;
        auto check_flag = [&](uint8_t bit, uint8_t host_reg,
                              uint32_t eflag, const char *name) {
            if (!(mask & bit))
                return;
            ASSERT_EQ((ref.eflags & eflag) != 0,
                      exec.x[host_reg] != 0)
                << name << " tag " << tag;
        };
        check_flag(ir::fmask::Z, host::hreg::FlagZ, g::flag::ZF, "ZF");
        check_flag(ir::fmask::S, host::hreg::FlagS, g::flag::SF, "SF");
        check_flag(ir::fmask::C, host::hreg::FlagC, g::flag::CF, "CF");
        check_flag(ir::fmask::O, host::hreg::FlagO, g::flag::OF, "OF");

        // Guest memory must match (dirty pages).
        const std::string diff =
            sim::compareGuestMemory(authMem, hostMem);
        ASSERT_EQ(diff, "") << "tag " << tag;
    }
};

/** Random straight-line guest block ending in a conditional branch. */
std::vector<uint8_t>
randomGuestBlock(Prng &rng, unsigned insts)
{
    g::Assembler as;
    auto reg = [&rng]() {
        // Avoid ESP to keep the stack usable for push/pop tests.
        static const g::Reg regs[] = {g::EAX, g::ECX, g::EDX, g::EBX,
                                      g::EBP, g::ESI, g::EDI};
        return regs[rng.below(7)];
    };
    for (unsigned i = 0; i < insts; ++i) {
        switch (rng.below(16)) {
          case 0: as.mov(reg(), static_cast<int32_t>(rng.next())); break;
          case 1: as.mov(reg(), reg()); break;
          case 2: as.add(reg(), reg()); break;
          case 3: as.sub(reg(), static_cast<int32_t>(rng.below(1000)));
                  break;
          case 4: as.and_(reg(), reg()); break;
          case 5: as.or_(reg(), static_cast<int32_t>(rng.next())); break;
          case 6: as.xor_(reg(), reg()); break;
          case 7: as.cmp(reg(), reg()); break;
          case 8: as.test(reg(), static_cast<int32_t>(rng.next())); break;
          case 9: as.shl(reg(), static_cast<int32_t>(rng.below(32)));
                  break;
          case 10: as.sar(reg(), reg()); break;
          case 11: as.imul(reg(), reg()); break;
          case 12: as.inc(reg()); break;
          case 13: as.dec(reg()); break;
          case 14: as.neg(reg()); break;
          default: as.not_(reg()); break;
        }
    }
    // Conditional terminator over the final flags.
    const g::Cond cond = static_cast<g::Cond>(
        rng.below(static_cast<uint64_t>(g::Cond::NumConds)));
    auto target = as.newLabel();
    as.jcc(cond, target);
    as.nop();           // fallthrough landing pad
    as.bind(target);
    as.nop();           // taken landing pad
    return as.finalize(g::layout::kCodeBase);
}

g::State
randomState(Prng &rng)
{
    g::State state;
    for (unsigned r = 0; r < g::NumGprs; ++r)
        state.gpr[r] = static_cast<uint32_t>(rng.next());
    state.gpr[g::ESP] = g::layout::kStackTop;
    state.eflags = static_cast<uint32_t>(rng.next()) & g::flag::All;
    for (unsigned r = 0; r < g::NumFprs; ++r)
        state.fpr[r] = static_cast<double>(rng.range(-5000, 5000)) / 3.0;
    state.eip = g::layout::kCodeBase;
    return state;
}

} // namespace

TEST(Translator, RandomAluBlocksBbmGrade)
{
    Prng rng(2024);
    for (unsigned iter = 0; iter < 120; ++iter) {
        RegionHarness harness;
        const auto code = randomGuestBlock(rng, 3 + iter % 12);
        const auto path = harness.pathFromCode(code);
        harness.runAndCompare(path, false, randomState(rng), iter);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(Translator, RandomAluBlocksSbmGrade)
{
    Prng rng(4048);
    for (unsigned iter = 0; iter < 120; ++iter) {
        RegionHarness harness;
        const auto code = randomGuestBlock(rng, 3 + iter % 12);
        const auto path = harness.pathFromCode(code);
        harness.runAndCompare(path, true, randomState(rng), iter);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(Translator, MemoryAndStackBlock)
{
    Prng rng(9);
    for (unsigned iter = 0; iter < 60; ++iter) {
        RegionHarness harness;
        g::Assembler as;
        as.mov(g::ESI, static_cast<int32_t>(g::layout::kDataBase));
        as.mov(g::EAX, static_cast<int32_t>(rng.next()));
        as.mov(g::mem(g::ESI, 8), g::EAX);
        as.mov(g::EBX, g::mem(g::ESI, 8));
        as.movb(g::ECX, g::mem(g::ESI, 9));
        as.push(g::EBX);
        as.push(123456);
        as.pop(g::EDX);
        as.pop(g::EDI);
        as.add(g::EDI, g::mem(g::ESI, 8));
        as.lea(g::EBP, g::mem(g::ESI, g::ECX, 2, -4));
        auto end = as.newLabel();
        as.jmp(end);
        as.bind(end);
        as.nop();
        const auto code = as.finalize(g::layout::kCodeBase);
        const auto path = harness.pathFromCode(code);
        harness.runAndCompare(path, iter % 2 == 1, randomState(rng),
                              iter);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(Translator, FpBlock)
{
    Prng rng(31);
    for (unsigned iter = 0; iter < 60; ++iter) {
        RegionHarness harness;
        g::Assembler as;
        as.cvtif(g::F0, g::EAX);
        as.cvtif(g::F1, g::EBX);
        as.fadd(g::F0, g::F1);
        as.fmul(g::F1, g::F0);
        as.fsub(g::F2, g::F1);
        as.fdiv(g::F2, g::F0);
        as.fsqrt(g::F3, g::F2);
        as.fabs_(g::F4, g::F2);
        as.fneg(g::F5, g::F4);
        as.fcmp(g::F0, g::F1);
        as.cvtfi(g::ECX, g::F3);
        auto t = as.newLabel();
        as.jcc(g::Cond::B, t);
        as.nop();
        as.bind(t);
        as.nop();
        const auto code = as.finalize(g::layout::kCodeBase);
        const auto path = harness.pathFromCode(code);
        harness.runAndCompare(path, iter % 2 == 1, randomState(rng),
                              iter);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(Translator, IdivBlock)
{
    Prng rng(77);
    for (unsigned iter = 0; iter < 40; ++iter) {
        RegionHarness harness;
        g::Assembler as;
        if (iter % 4 == 0)
            as.mov(g::ECX, 0);  // exercise the div-by-zero path
        as.idiv(g::ECX);
        as.idiv(g::EBX);
        auto end = as.newLabel();
        as.jmp(end);
        as.bind(end);
        as.nop();
        const auto code = as.finalize(g::layout::kCodeBase);
        const auto path = harness.pathFromCode(code);
        harness.runAndCompare(path, iter % 2 == 1, randomState(rng),
                              iter);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

// ----- flag scanner ---------------------------------------------------------

TEST(FlagScanner, DeadWhenOverwrittenImmediately)
{
    host::Memory mem;
    g::Assembler as;
    as.add(g::EAX, g::EBX);   // overwrites all of Z,S,C,O
    as.halt();
    const auto code = as.finalize(g::layout::kCodeBase);
    mem.writeBytes(g::layout::kCodeBase, code.data(), code.size());

    tol::GuestCodeReader reader(mem);
    tol::FlagScanner scanner(reader);
    EXPECT_EQ(scanner.liveFlagsAt(g::layout::kCodeBase), 0);
}

TEST(FlagScanner, LiveWhenConsumedByJcc)
{
    host::Memory mem;
    g::Assembler as;
    auto t = as.newLabel();
    as.jcc(g::Cond::B, t);    // consumes CF
    as.bind(t);
    as.add(g::EAX, g::EBX);   // then everything overwritten
    as.halt();
    const auto code = as.finalize(g::layout::kCodeBase);
    mem.writeBytes(g::layout::kCodeBase, code.data(), code.size());

    tol::GuestCodeReader reader(mem);
    tol::FlagScanner scanner(reader);
    const uint8_t live = scanner.liveFlagsAt(g::layout::kCodeBase);
    EXPECT_TRUE(live & ir::fmask::C);
    EXPECT_FALSE(live & ir::fmask::Z);
}

TEST(FlagScanner, IncPreservesCarryLiveness)
{
    host::Memory mem;
    g::Assembler as;
    as.inc(g::EAX);           // writes Z,S,O but keeps C
    auto t = as.newLabel();
    as.jcc(g::Cond::B, t);    // consumes the ORIGINAL CF
    as.bind(t);
    as.halt();
    const auto code = as.finalize(g::layout::kCodeBase);
    mem.writeBytes(g::layout::kCodeBase, code.data(), code.size());

    tol::GuestCodeReader reader(mem);
    tol::FlagScanner scanner(reader);
    const uint8_t live = scanner.liveFlagsAt(g::layout::kCodeBase);
    EXPECT_TRUE(live & ir::fmask::C);
    EXPECT_FALSE(live & ir::fmask::Z);
}

TEST(FlagScanner, ConservativeAtIndirect)
{
    host::Memory mem;
    g::Assembler as;
    as.ret();                 // unknown continuation
    const auto code = as.finalize(g::layout::kCodeBase);
    mem.writeBytes(g::layout::kCodeBase, code.data(), code.size());

    tol::GuestCodeReader reader(mem);
    tol::FlagScanner scanner(reader);
    EXPECT_EQ(scanner.liveFlagsAt(g::layout::kCodeBase), ir::fmask::All);
}

TEST(FlagScanner, UnionOverBothJccPaths)
{
    host::Memory mem;
    g::Assembler as;
    auto t = as.newLabel();
    as.jcc(g::Cond::E, t);    // consumes ZF
    // Fallthrough: consumes CF before overwrite.
    auto t2 = as.newLabel();
    as.jcc(g::Cond::B, t2);
    as.bind(t2);
    as.add(g::EAX, g::EBX);
    as.halt();
    as.bind(t);
    as.add(g::ECX, g::EDX);   // taken path overwrites
    as.halt();
    const auto code = as.finalize(g::layout::kCodeBase);
    mem.writeBytes(g::layout::kCodeBase, code.data(), code.size());

    tol::GuestCodeReader reader(mem);
    tol::FlagScanner scanner(reader);
    const uint8_t live = scanner.liveFlagsAt(g::layout::kCodeBase);
    EXPECT_TRUE(live & ir::fmask::Z);
    EXPECT_TRUE(live & ir::fmask::C);
    EXPECT_FALSE(live & ir::fmask::S);
}

// ----- register allocator invariants ------------------------------------

TEST(RegAlloc, NoOverlappingLiveRangesShareARegister)
{
    Prng rng(55);
    for (unsigned iter = 0; iter < 60; ++iter) {
        RegionHarness harness;
        const auto code = randomGuestBlock(rng, 20);
        const auto path = harness.pathFromCode(code);
        ir::Trace trace =
            tol::Translator(harness.cfg).translate(path);

        const ir::Allocation alloc = ir::allocateRegisters(trace);

        // Recompute intervals; assert no two same-register temps
        // overlap.
        struct Interval
        {
            ir::Vreg v;
            size_t start, end;
            uint8_t reg;
        };
        std::vector<int64_t> def(trace.numVregs(), -1);
        std::vector<int64_t> last(trace.numVregs(), -1);
        for (size_t i = 0; i < trace.insts.size(); ++i) {
            const ir::IrInst &inst = trace.insts[i];
            auto use = [&](ir::Vreg v) {
                if (v != ir::kNoVreg && !ir::isBoundVreg(v))
                    last[v] = static_cast<int64_t>(i);
            };
            use(inst.src1);
            if (!inst.useImm)
                use(inst.src2);
            if (ir::irOpInfo(inst.op).hasDst &&
                !ir::isBoundVreg(inst.dst) && def[inst.dst] < 0)
                def[inst.dst] = static_cast<int64_t>(i);
        }
        std::vector<Interval> ivals;
        for (ir::Vreg v = ir::kFirstTemp; v < trace.numVregs(); ++v) {
            if (def[v] < 0 || alloc.of(v).spilled)
                continue;
            ivals.push_back(Interval{
                v, static_cast<size_t>(def[v]),
                static_cast<size_t>(std::max(last[v], def[v])),
                alloc.of(v).reg});
        }
        for (size_t a = 0; a < ivals.size(); ++a) {
            for (size_t b = a + 1; b < ivals.size(); ++b) {
                if (ivals[a].reg != ivals[b].reg)
                    continue;
                const bool disjoint = ivals[a].end < ivals[b].start ||
                                      ivals[b].end < ivals[a].start;
                ASSERT_TRUE(disjoint)
                    << "v" << ivals[a].v << " and v" << ivals[b].v
                    << " overlap in x" << int(ivals[a].reg);
            }
        }
    }
}

TEST(RegAlloc, SpillsWhenPressureExceedsPool)
{
    // A trace with more simultaneously-live temps than the pool (8).
    ir::Trace t;
    t.guestEntry = 0x1000;
    t.guestEips.push_back(0x1000);
    ir::IrExit exit;
    exit.guestTarget = 0x2000;
    exit.guestInstsRetired = 1;
    t.exits.push_back(exit);

    std::vector<ir::Vreg> temps;
    for (unsigned i = 0; i < 14; ++i) {
        const ir::Vreg v = t.newTemp(ir::RegClass::Int);
        temps.push_back(v);
        ir::IrInst inst;
        inst.op = ir::IrOp::ADD;
        inst.dst = v;
        inst.src1 = ir::vGpr(i % 8);
        inst.useImm = true;
        inst.imm = i;
        t.insts.push_back(inst);
    }
    // Use all temps at the end (they are simultaneously live).
    for (unsigned i = 0; i + 1 < temps.size(); i += 2) {
        ir::IrInst inst;
        inst.op = ir::IrOp::ADD;
        inst.dst = ir::vGpr(i % 8);
        inst.src1 = temps[i];
        inst.src2 = temps[i + 1];
        t.insts.push_back(inst);
    }
    ir::IrInst je;
    je.op = ir::IrOp::JEXIT;
    t.insts.push_back(je);
    ASSERT_EQ(ir::validate(t), "");

    const ir::Allocation alloc = ir::allocateRegisters(t);
    EXPECT_GT(alloc.spilledVregs, 0u);
    EXPECT_GT(alloc.numSpillSlots, 0u);
}
