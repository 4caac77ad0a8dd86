/**
 * @file
 * Synthetic-benchmark generator: lowers BenchParams into a GX86
 * program from kernel archetypes (cold blobs, warm loops, hot
 * kernels, indirect dispatch, call trees, streams, pointer chases).
 */

#include "workloads/params.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "common/prng.hh"
#include "guest/memory.hh"

namespace darco::workloads {

namespace g = darco::guest;
using g::Assembler;
using g::mem;
using darco::Prng;

namespace {

/**
 * Register conventions inside generated code:
 *   EBP  outer phase-cycle counter
 *   ESI  primary data pointer       EDI  secondary data pointer
 *   EAX, EBX, ECX, EDX  kernel scratch (ECX = loop counters)
 */
class Builder
{
  public:
    explicit Builder(const BenchParams &params)
        : p(params), rng(params.seed)
    {}

    g::Program build();

  private:
    void emitAluOp(g::Reg dst, g::Reg src);
    void emitColdBlob(uint32_t insts);
    void emitWarmLoop(uint32_t iters, uint32_t body, bool fp,
                      uint32_t array_addr, uint32_t array_bytes);
    void emitDispatch(uint32_t iters, uint32_t targets,
                      uint32_t table_addr);
    void emitCallPairs(uint32_t pairs);
    void emitChase(uint32_t iters, uint32_t list_addr, uint32_t nodes);

    const BenchParams &p;
    Prng rng;
    Assembler as;
    std::vector<Assembler::Label> callees;
    std::vector<Assembler::Label> dispatchCases;
};

void
Builder::emitAluOp(g::Reg dst, g::Reg src)
{
    switch (rng.below(8)) {
      case 0: as.add(dst, src); break;
      case 1: as.sub(dst, src); break;
      case 2: as.xor_(dst, src); break;
      case 3: as.or_(dst, src); break;
      case 4: as.and_(dst, static_cast<int32_t>(rng.below(0xFFFF)) | 1);
              break;
      case 5: as.add(dst, static_cast<int32_t>(rng.below(4096)));
              break;
      case 6: as.shl(dst, static_cast<int32_t>(1 + rng.below(4)));
              break;
      default: as.imul(dst, static_cast<int32_t>(3 + rng.below(13)));
               break;
    }
}

void
Builder::emitColdBlob(uint32_t insts)
{
    // Straight-line code broken into ~8-instruction basic blocks by
    // never-taken forward branches (so the static BB population is
    // realistic). Executed once per phase cycle.
    uint32_t emitted = 0;
    as.mov(g::EAX, static_cast<int32_t>(rng.below(1u << 20)));
    as.mov(g::EBX, static_cast<int32_t>(rng.below(1u << 20)) | 1);
    emitted += 2;
    while (emitted < insts) {
        const uint32_t chunk =
            static_cast<uint32_t>(6 + rng.below(5));
        for (uint32_t i = 0; i < chunk && emitted < insts; ++i) {
            emitAluOp(rng.chance(0.5) ? g::EAX : g::EDX,
                      rng.chance(0.5) ? g::EBX : g::EAX);
            ++emitted;
        }
        if (emitted + 2 < insts) {
            // test eax,eax is never zero-and-taken-path here: compare
            // against an impossible constant instead.
            auto skip = as.newLabel();
            as.cmp(g::EBX, 0);         // EBX kept odd and non-zero
            as.jcc(g::Cond::E, skip);
            as.bind(skip);
            emitted += 2;
        }
    }
}

void
Builder::emitWarmLoop(uint32_t iters, uint32_t body, bool fp,
                      uint32_t array_addr, uint32_t array_bytes)
{
    as.mov(g::ECX, static_cast<int32_t>(iters));
    as.mov(g::ESI, static_cast<int32_t>(array_addr));
    auto loop = as.newLabel();
    as.bind(loop);

    const uint32_t mask = array_bytes ? (array_bytes - 1) & ~7u : 0;
    if (fp) {
        if (p.warmMem && array_bytes) {
            as.mov(g::EDX, g::ECX);
            as.imul(g::EDX, static_cast<int32_t>(p.strideBytes * 8));
            as.and_(g::EDX, static_cast<int32_t>(mask));
            as.fld(g::F0, mem(g::ESI, g::EDX, 0));
        } else {
            as.cvtif(g::F0, g::ECX);
        }
        // Rotate over four accumulators: realistic FP ILP (not one
        // serial dependence chain).
        static const g::FReg accs[4] = {g::F1, g::F2, g::F3, g::F4};
        for (uint32_t i = 0; i < body; ++i) {
            const g::FReg acc = accs[i % 4];
            switch (rng.below(4)) {
              case 0: as.fadd(acc, g::F0); break;
              case 1: as.fmul(acc, g::F0); break;
              case 2: as.fsub(acc, g::F0); break;
              default: as.fadd(acc, g::F0); break;
            }
        }
        if (p.warmMem && array_bytes)
            as.fst(mem(g::ESI, g::EDX, 0), g::F1);
        as.fadd(g::F1, g::F2);
    } else {
        if (p.warmMem && array_bytes) {
            as.mov(g::EDX, g::ECX);
            as.imul(g::EDX, static_cast<int32_t>(p.strideBytes));
            as.and_(g::EDX, static_cast<int32_t>(mask));
            as.mov(g::EAX, mem(g::ESI, g::EDX, 0));
        }
        for (uint32_t i = 0; i < body; ++i)
            emitAluOp(rng.chance(0.6) ? g::EAX : g::EBX, g::EAX);
        if (p.warmMem && array_bytes)
            as.mov(mem(g::ESI, g::EDX, 0), g::EAX);
    }

    as.dec(g::ECX);
    as.jcc(g::Cond::NE, loop);
}

void
Builder::emitDispatch(uint32_t iters, uint32_t targets,
                      uint32_t table_addr)
{
    // Indirect-jump dispatch with an LCG-driven selector: the target
    // varies per iteration, stressing the IBTC and host BTB exactly
    // like interpreter-style guest code does.
    as.mov(g::ECX, static_cast<int32_t>(iters));
    as.mov(g::EDX, static_cast<int32_t>(rng.below(1u << 30)) | 1);
    as.mov(g::EDI, static_cast<int32_t>(table_addr));
    auto loop = as.newLabel();
    auto join = as.newLabel();
    as.bind(loop);
    // selector = (lcg >> 8) & (targets-1)
    as.imul(g::EDX, 1103515245);
    as.add(g::EDX, 12345);
    as.mov(g::EAX, g::EDX);
    as.shr(g::EAX, 8);
    as.and_(g::EAX, static_cast<int32_t>(targets - 1));
    as.jmpi(mem(g::EDI, g::EAX, 2));

    for (uint32_t t = 0; t < targets; ++t) {
        auto c = as.newLabel();
        as.bind(c);
        dispatchCases.push_back(c);
        as.add(g::EBX, static_cast<int32_t>(t + 1));
        as.xor_(g::EBX, static_cast<int32_t>(rng.below(0xFFFF)));
        if (t + 1 != targets)
            as.jmp(join);
    }
    as.bind(join);
    as.dec(g::ECX);
    as.jcc(g::Cond::NE, loop);
}

void
Builder::emitCallPairs(uint32_t pairs)
{
    // Round-robin calls over the callee set: the returns alternate
    // return sites, defeating last-target prediction like real
    // call-heavy code does.
    const uint32_t per_callee =
        std::max<uint32_t>(1, pairs / static_cast<uint32_t>(
                                  callees.size()));
    for (const auto &callee : callees) {
        as.mov(g::ECX, static_cast<int32_t>(per_callee));
        auto loop = as.newLabel();
        as.bind(loop);
        as.call(callee);
        as.dec(g::ECX);
        as.jcc(g::Cond::NE, loop);
    }
}

void
Builder::emitChase(uint32_t iters, uint32_t list_addr, uint32_t nodes)
{
    // p = head; repeat { p = *p; } — irregular loads the stride
    // prefetcher cannot cover.
    (void)nodes;
    as.mov(g::ESI, static_cast<int32_t>(list_addr));
    as.mov(g::ECX, static_cast<int32_t>(iters));
    auto loop = as.newLabel();
    as.bind(loop);
    as.mov(g::ESI, mem(g::ESI));
    as.add(g::EAX, g::ESI);
    as.dec(g::ECX);
    as.jcc(g::Cond::NE, loop);
}

g::Program
Builder::build()
{
    g::Program prog;
    const uint32_t data_base = g::layout::kDataBase;
    const uint32_t array_bytes =
        std::max<uint32_t>(4096, p.dataKb * 1024);
    const uint32_t array_addr = data_base;
    const uint32_t table_addr = data_base + array_bytes;
    const uint32_t list_addr = table_addr + 4096;

    // --- callees (functions used by call-pair kernels) ----------------
    auto entry = as.newLabel();
    as.jmp(entry);

    const uint32_t num_callees = p.callPairs ? 4 : 0;
    for (uint32_t c = 0; c < num_callees; ++c) {
        auto fn = as.newLabel();
        as.bind(fn);
        callees.push_back(fn);
        const uint32_t body = static_cast<uint32_t>(2 + rng.below(4));
        for (uint32_t i = 0; i < body; ++i)
            emitAluOp(g::EAX, g::EBX);
        as.ret();
    }

    // --- one-shot initialization code (stays in IM) -----------------
    as.bind(entry);
    if (p.initBlobInsts)
        emitColdBlob(p.initBlobInsts);

    // --- main phase cycle ------------------------------------------------
    as.mov(g::EBP, static_cast<int32_t>(
        std::min<uint64_t>(p.outerRepeats, 0x7FFFFFFFull)));
    auto outer = as.newLabel();
    as.bind(outer);

    if (p.coldBlobInsts)
        emitColdBlob(p.coldBlobInsts);

    uint32_t fp_budget = static_cast<uint32_t>(
        p.fpShare * static_cast<double>(p.warmLoops + p.hotLoops) + 0.5);

    for (uint32_t w = 0; w < p.warmLoops; ++w) {
        const bool fp = fp_budget > 0 && (w % 2 == 0 || p.fpShare > 0.6);
        if (fp)
            --fp_budget;
        emitWarmLoop(p.warmIters, p.warmBody, fp, array_addr,
                     array_bytes);
    }

    for (uint32_t h = 0; h < p.hotLoops; ++h) {
        const bool fp = fp_budget > 0;
        if (fp)
            --fp_budget;
        emitWarmLoop(p.hotIters, p.hotBody, fp, array_addr,
                     array_bytes);
    }

    if (p.dispatchIters)
        emitDispatch(p.dispatchIters, p.dispatchTargets, table_addr);
    if (p.callPairs)
        emitCallPairs(p.callPairs);
    if (p.chaseIters)
        emitChase(p.chaseIters, list_addr, p.chaseNodes);

    as.dec(g::EBP);
    auto to_outer = as.newLabel();
    auto done = as.newLabel();
    as.jcc(g::Cond::E, done);
    as.bind(to_outer);
    as.jmp(outer);
    as.bind(done);
    as.halt();

    prog.code = as.finalize(prog.codeBase);
    prog.entry = prog.codeBase;

    // --- data segments --------------------------------------------------
    Prng drng(p.seed ^ 0xDA7A);
    std::vector<uint8_t> array(array_bytes);
    drng.fillLowBytes(array.data(), array.size());
    prog.data.push_back({array_addr, std::move(array)});

    if (p.dispatchIters) {
        std::vector<uint8_t> table(p.dispatchTargets * 4);
        for (uint32_t t = 0; t < p.dispatchTargets; ++t) {
            const uint32_t target = as.labelAddr(dispatchCases[t]);
            std::memcpy(table.data() + 4 * t, &target, 4);
        }
        prog.data.push_back({table_addr, std::move(table)});
    }

    if (p.chaseIters) {
        // A shuffled singly-linked ring of `chaseNodes` pointers, each
        // node one word, spread over chaseNodes*16 bytes.
        const uint32_t nodes = std::max<uint32_t>(16, p.chaseNodes);
        std::vector<uint32_t> order(nodes);
        for (uint32_t i = 0; i < nodes; ++i)
            order[i] = i;
        for (uint32_t i = nodes - 1; i > 0; --i) {
            const uint32_t j =
                static_cast<uint32_t>(drng.below(i + 1));
            std::swap(order[i], order[j]);
        }
        std::vector<uint8_t> list(nodes * 16, 0);
        for (uint32_t i = 0; i < nodes; ++i) {
            const uint32_t from = order[i];
            const uint32_t to = order[(i + 1) % nodes];
            const uint32_t ptr = list_addr + to * 16;
            std::memcpy(list.data() + from * 16, &ptr, 4);
        }
        prog.data.push_back({list_addr, std::move(list)});
    }

    return prog;
}

} // namespace

g::Program
buildBenchmark(const BenchParams &params)
{
    Builder builder(params);
    return builder.build();
}

} // namespace darco::workloads
