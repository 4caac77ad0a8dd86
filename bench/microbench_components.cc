/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own components:
 * host-time throughput of the caches, branch predictor, guest
 * decoder, authoritative emulator, IR optimization pipeline, and the
 * end-to-end system. Useful for keeping the simulator fast enough for
 * large sweeps.
 */

#include <benchmark/benchmark.h>

#include "common/prng.hh"
#include "guest/assembler.hh"
#include "guest/emulator.hh"
#include "ir/passes.hh"
#include "ir/regalloc.hh"
#include "ir/scheduler.hh"
#include "sim/system.hh"
#include "timing/cache.hh"
#include "timing/pipeline.hh"
#include "tol/translator.hh"
#include "workloads/params.hh"

using namespace darco;
namespace g = darco::guest;

namespace {

void
BM_CacheAccess(benchmark::State &state)
{
    timing::TimingConfig cfg;
    timing::Cache l2(cfg.l2, nullptr, cfg.memLatency);
    timing::Cache l1(cfg.l1d, &l2, cfg.memLatency);
    Prng rng(1);
    uint64_t total = 0;
    for (auto _ : state) {
        bool miss;
        total += l1.access(
            static_cast<uint32_t>(rng.below(1u << 22)), false, miss);
    }
    benchmark::DoNotOptimize(total);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_BranchPredictor(benchmark::State &state)
{
    timing::TimingConfig cfg;
    timing::BranchPredictor bp(cfg);
    Prng rng(2);
    uint64_t correct = 0;
    for (auto _ : state) {
        const uint32_t pc = 0x1000 + 4 * (rng.next() % 64);
        correct += bp.predict(pc, rng.chance(0.7), 0x2000, true, false);
    }
    benchmark::DoNotOptimize(correct);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredictor);

void
BM_GuestDecode(benchmark::State &state)
{
    g::Assembler as;
    Prng rng(3);
    for (int i = 0; i < 500; ++i) {
        as.add(g::EAX, static_cast<int32_t>(rng.next()));
        as.mov(g::EBX, g::mem(g::ESI, g::ECX, 2, 16));
    }
    as.halt();
    g::Program prog;
    prog.code = as.finalize(prog.codeBase);

    size_t pos = 0;
    for (auto _ : state) {
        g::Inst inst;
        g::decode(prog.code.data() + pos, prog.code.size() - pos, inst);
        pos += inst.length;
        if (pos + g::kMaxInstLength >= prog.code.size())
            pos = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuestDecode);

void
BM_EmulatorStep(benchmark::State &state)
{
    g::Assembler as;
    as.mov(g::EAX, 0);
    as.mov(g::ECX, 1 << 30);
    auto loop = as.newLabel();
    as.bind(loop);
    as.add(g::EAX, g::ECX);
    as.xor_(g::EAX, 0x55);
    as.dec(g::ECX);
    as.jcc(g::Cond::NE, loop);
    as.halt();
    g::Program prog;
    prog.code = as.finalize(prog.codeBase);
    prog.entry = prog.codeBase;

    g::Memory mem;
    g::Emulator emu(mem);
    emu.reset(prog);
    for (auto _ : state) {
        if (!emu.step())
            emu.reset(prog);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmulatorStep);

void
BM_OptimizationPipeline(benchmark::State &state)
{
    // Translate a realistic guest block once per iteration and run
    // the full SBM pass pipeline over it.
    g::Assembler as;
    Prng rng(4);
    for (int i = 0; i < 24; ++i) {
        as.add(g::EAX, g::EBX);
        as.mov(g::EDX, g::mem(g::ESI, 8));
        as.imul(g::EDX, 3);
        as.mov(g::mem(g::ESI, 8), g::EDX);
        as.cmp(g::EAX, g::EDX);
    }
    auto t = as.newLabel();
    as.jcc(g::Cond::L, t);
    as.bind(t);
    as.halt();
    g::Program prog;
    prog.code = as.finalize(prog.codeBase);

    host::Memory hmem;
    hmem.writeBytes(prog.codeBase, prog.code.data(), prog.code.size());
    tol::GuestCodeReader reader(hmem);
    tol::TolConfig cfg;
    tol::Translator translator(cfg);

    std::vector<tol::PathInst> path;
    uint32_t eip = prog.codeBase;
    for (;;) {
        const g::Inst &inst = reader.at(eip);
        path.push_back(tol::PathInst{inst, eip, false});
        if (g::opInfo(inst.op).isBranch || inst.op == g::Op::HALT)
            break;
        eip += inst.length;
    }

    for (auto _ : state) {
        ir::Trace trace = translator.translate(path);
        ir::PassStats ps;
        ir::copyPropagation(trace, &ps);
        ir::constantPropagation(trace, &ps);
        ir::commonSubexpressionElimination(trace, &ps);
        ir::copyPropagation(trace, &ps);
        ir::deadCodeElimination(trace, &ps);
        ir::scheduleTrace(trace);
        const ir::Allocation alloc = ir::allocateRegisters(trace);
        benchmark::DoNotOptimize(alloc.numSpillSlots);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(path.size()));
}
BENCHMARK(BM_OptimizationPipeline);

void
BM_EventCorePipeline(benchmark::State &state)
{
    // Event-core record throughput over two stream shapes (arg 0):
    // a serial dependence chain that issues one record per cycle, and
    // an independent stream that issues at full width.
    const bool dense = state.range(0) != 0;
    timing::TimingConfig cfg;
    cfg.eventCore = true;

    std::vector<timing::Record> stream;
    for (uint32_t i = 0; i < 4096; ++i) {
        timing::Record rec;
        rec.pc = 0x1000 + 4 * (i % 16);
        rec.op = host::HOp::ADD;
        rec.rd = dense ? static_cast<uint8_t>(33 + i % 8) : 33;
        rec.rs1 = dense ? 32 : 33;
        rec.rs2 = rec.rs1;
        rec.fromRegion = true;
        stream.push_back(rec);
    }

    timing::Pipeline pipe(cfg, timing::Pipeline::Filter::All);
    for (auto _ : state)
        pipe.consumeBatch(stream.data(), stream.size());
    pipe.finish();
    benchmark::DoNotOptimize(pipe.stats().cycles);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(stream.size()));
    state.SetLabel(dense ? "dense" : "serial");
}
BENCHMARK(BM_EventCorePipeline)->Arg(0)->Arg(1);

void
BM_EndToEndGuestInstructions(benchmark::State &state)
{
    // Whole-system throughput in guest instructions per host second.
    for (auto _ : state) {
        sim::SimConfig cfg;
        cfg.guestBudget = 200'000;
        cfg.tol.bbToSbThreshold = 300;
        sim::System sys(cfg);
        sys.load(workloads::buildBenchmark(
            *workloads::findBenchmark("464.h264ref")));
        const sim::SystemResult res = sys.run();
        benchmark::DoNotOptimize(res.cycles);
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<int64_t>(res.guestRetired));
    }
}
BENCHMARK(BM_EndToEndGuestInstructions)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
