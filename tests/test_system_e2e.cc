/**
 * @file
 * End-to-end system tests under co-simulation: small guest programs
 * run through the full TOL stack (interpret -> BB translate -> chain
 * -> superblock optimize) with every architectural commit checked
 * against the authoritative x86 component. SystemEquivalence checks
 * the invariant intra-batch pipe fusion rests on: the isolation
 * pipelines observe the functional pass without changing it.
 */

#include <gtest/gtest.h>

#include "guest/assembler.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "tol/stats.hh"
#include "workloads/params.hh"
#include "workloads/source.hh"

namespace dg = darco::guest;
using darco::sim::SimConfig;
using darco::sim::System;
using darco::sim::SystemResult;
using dg::Assembler;
using dg::mem;

namespace {

SimConfig
testConfig()
{
    SimConfig cfg;
    cfg.cosim = true;
    cfg.cosimStrict = true;
    cfg.guestBudget = 5'000'000;
    // Small thresholds so tiny tests exercise all three modes.
    cfg.tol.imToBbThreshold = 3;
    cfg.tol.bbToSbThreshold = 50;
    return cfg;
}

dg::Program
finish(Assembler &as,
       std::vector<dg::Program::DataSegment> data = {})
{
    dg::Program prog;
    prog.code = as.finalize(prog.codeBase);
    prog.entry = prog.codeBase;
    prog.data = std::move(data);
    return prog;
}

} // namespace

TEST(SystemE2E, StraightLineHalts)
{
    Assembler as;
    as.mov(dg::EAX, 7);
    as.add(dg::EAX, 35);
    as.halt();

    System sys(testConfig());
    sys.load(finish(as));
    const SystemResult res = sys.run();
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(sys.guestState().gpr[dg::EAX], 42u);
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;
}

TEST(SystemE2E, HotLoopReachesSuperblockMode)
{
    // A loop hot enough to cross both promotion thresholds.
    Assembler as;
    as.mov(dg::EAX, 0);
    as.mov(dg::ECX, 2000);
    auto loop = as.newLabel();
    as.bind(loop);
    as.add(dg::EAX, dg::ECX);
    as.dec(dg::ECX);
    as.jcc(dg::Cond::NE, loop);
    as.halt();

    System sys(testConfig());
    sys.load(finish(as));
    const SystemResult res = sys.run();
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(sys.guestState().gpr[dg::EAX], 2000u * 2001u / 2u);
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;

    const auto &ts = sys.tolStats();
    EXPECT_GT(ts.dynIm, 0u);
    EXPECT_GT(ts.dynBbm, 0u);
    EXPECT_GT(ts.dynSbm, 0u) << "loop never reached SBM";
    EXPECT_GE(ts.sbsCreated, 1u);
    // The vast majority of dynamic instructions must come from the
    // superblock (the paper's Figure 5b shape).
    EXPECT_GT(static_cast<double>(ts.dynSbm) /
              static_cast<double>(ts.dynTotal()), 0.8);
}

TEST(SystemE2E, MemoryLoopMatchesAuthoritativeMemory)
{
    const uint32_t base = dg::layout::kDataBase;
    Assembler as;
    as.mov(dg::EDI, static_cast<int32_t>(base));
    as.mov(dg::ECX, 0);
    auto loop = as.newLabel();
    as.bind(loop);
    as.mov(mem(dg::EDI, dg::ECX, 2), dg::ECX);  // a[i] = i
    as.inc(dg::ECX);
    as.cmp(dg::ECX, 500);
    as.jcc(dg::Cond::NE, loop);
    as.halt();

    System sys(testConfig());
    sys.load(finish(as));
    const SystemResult res = sys.run();
    EXPECT_TRUE(res.halted);
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;
    EXPECT_EQ(sys.hostMemory().load32(base + 4 * 123), 123u);
}

TEST(SystemE2E, CallsAndReturnsThroughIbtc)
{
    Assembler as;
    auto fn = as.newLabel();
    auto loop = as.newLabel();
    as.mov(dg::EAX, 0);
    as.mov(dg::ECX, 300);
    as.bind(loop);
    as.call(fn);
    as.dec(dg::ECX);
    as.jcc(dg::Cond::NE, loop);
    as.halt();
    as.bind(fn);
    as.add(dg::EAX, 2);
    as.ret();

    System sys(testConfig());
    sys.load(finish(as));
    const SystemResult res = sys.run();
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(sys.guestState().gpr[dg::EAX], 600u);
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;
    EXPECT_GT(sys.tolStats().guestIndirectBranches, 0u);
}

TEST(SystemE2E, IndirectJumpTable)
{
    Assembler as;
    auto loop = as.newLabel();
    auto case0 = as.newLabel();
    auto case1 = as.newLabel();
    auto join = as.newLabel();

    as.mov(dg::EAX, 0);
    as.mov(dg::ECX, 400);
    as.mov(dg::EBX, static_cast<int32_t>(dg::layout::kDataBase));
    as.bind(loop);
    as.mov(dg::EDX, dg::ECX);
    as.and_(dg::EDX, 1);
    as.jmpi(mem(dg::EBX, dg::EDX, 2));
    as.bind(case0);
    as.add(dg::EAX, 3);
    as.jmp(join);
    as.bind(case1);
    as.add(dg::EAX, 5);
    as.bind(join);
    as.dec(dg::ECX);
    as.jcc(dg::Cond::NE, loop);
    as.halt();

    dg::Program prog;
    prog.code = as.finalize(prog.codeBase);
    prog.entry = prog.codeBase;
    std::vector<uint8_t> table(8);
    const uint32_t targets[2] = {as.labelAddr(case0),
                                 as.labelAddr(case1)};
    memcpy(table.data(), targets, 8);
    prog.data.push_back({dg::layout::kDataBase, table});

    System sys(testConfig());
    sys.load(prog);
    const SystemResult res = sys.run();
    EXPECT_TRUE(res.halted);
    // 200 even iterations (+3), 200 odd iterations (+5).
    EXPECT_EQ(sys.guestState().gpr[dg::EAX], 200u * 3 + 200u * 5);
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;
}

TEST(SystemE2E, BudgetStopsWithoutHalt)
{
    Assembler as;
    auto loop = as.newLabel();
    as.mov(dg::ECX, 0);
    as.bind(loop);
    as.inc(dg::ECX);
    as.jmp(loop);  // infinite

    SimConfig cfg = testConfig();
    cfg.guestBudget = 10000;
    System sys(cfg);
    sys.load(finish(as));
    const SystemResult res = sys.run();
    EXPECT_FALSE(res.halted);
    EXPECT_GE(res.guestRetired, cfg.guestBudget);
    // Budget overshoot is bounded by one region's worth of work.
    EXPECT_LT(res.guestRetired, cfg.guestBudget + 200);
}

TEST(SystemE2E, FpKernelMatches)
{
    // Numerically integrate sqrt over [0, 400) with unit steps.
    Assembler as;
    as.mov(dg::EAX, 0);
    as.cvtif(dg::F2, dg::EAX);  // accumulator
    as.mov(dg::ECX, 400);
    auto loop = as.newLabel();
    as.bind(loop);
    as.cvtif(dg::F0, dg::ECX);
    as.fsqrt(dg::F1, dg::F0);
    as.fadd(dg::F2, dg::F1);
    as.dec(dg::ECX);
    as.jcc(dg::Cond::NE, loop);
    as.cvtfi(dg::EBX, dg::F2);
    as.halt();

    System sys(testConfig());
    sys.load(finish(as));
    const SystemResult res = sys.run();
    EXPECT_TRUE(res.halted);
    double expect = 0;
    for (int i = 400; i >= 1; --i)
        expect += std::sqrt(static_cast<double>(i));
    EXPECT_EQ(sys.guestState().gpr[dg::EBX],
              static_cast<uint32_t>(static_cast<int32_t>(expect)));
    EXPECT_TRUE(res.memoryDiff.empty()) << res.memoryDiff;
}

TEST(SystemE2E, AccountingClosesToTotalCycles)
{
    Assembler as;
    as.mov(dg::EAX, 0);
    as.mov(dg::ECX, 1000);
    auto loop = as.newLabel();
    as.bind(loop);
    as.add(dg::EAX, 7);
    as.dec(dg::ECX);
    as.jcc(dg::Cond::NE, loop);
    as.halt();

    System sys(testConfig());
    sys.load(finish(as));
    sys.run();

    const auto &ps = sys.combinedStats();
    double total = 0;
    for (unsigned b = 0; b < darco::timing::kNumBuckets; ++b) {
        total += ps.bucketTotal(static_cast<darco::timing::Bucket>(b));
    }
    EXPECT_NEAR(total, static_cast<double>(ps.cycles),
                1e-6 * static_cast<double>(ps.cycles) + 1.0);
}

TEST(SystemE2E, DeterministicAcrossRuns)
{
    auto build = [] {
        Assembler as;
        as.mov(dg::EAX, 0);
        as.mov(dg::ECX, 800);
        auto loop = as.newLabel();
        as.bind(loop);
        as.add(dg::EAX, dg::ECX);
        as.xor_(dg::EAX, 0x5A5A);
        as.dec(dg::ECX);
        as.jcc(dg::Cond::NE, loop);
        as.halt();
        dg::Program prog;
        prog.code = as.finalize(prog.codeBase);
        prog.entry = prog.codeBase;
        return prog;
    };

    System a(testConfig());
    a.load(build());
    a.run();
    System b(testConfig());
    b.load(build());
    b.run();

    EXPECT_EQ(a.combinedStats().cycles, b.combinedStats().cycles);
    EXPECT_EQ(a.combinedStats().l1d.misses, b.combinedStats().l1d.misses);
    EXPECT_EQ(a.tolStats().dynSbm, b.tolStats().dynSbm);
}

namespace {

/** The isolation pipe sets the paper's figures attach. */
struct FigurePipes
{
    const char *name;
    bool tolOnly;
    bool appOnly;
    bool tolModule;
};

void
expectSamePipe(const char *what,
               const std::optional<darco::timing::PipeStats> &got,
               const std::optional<darco::timing::PipeStats> &want)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << what;
    if (want) {
        EXPECT_EQ(darco::timing::diffStats(*got, *want), "") << what;
    }
}

} // namespace

TEST(SystemEquivalence, IsolationPipesArePureObservers)
{
    // One run with every isolation pipe attached, with the pipes a
    // set does not name dropped, must equal the run that attached
    // only that set: Fig. 5-7/9 (none), Fig. 8 (TOL-module) and
    // Figs. 10/11 (TOL-only + APP-only), on every paper workload.
    constexpr uint64_t kBudget = 60'000;
    const FigurePipes sets[] = {
        {"base", false, false, false},
        {"fig8", false, false, true},
        {"fig10", true, true, false},
    };
    darco::sim::MetricsOptions options;
    options.guestBudget = kBudget;
    options.tolConfig.bbToSbThreshold =
        darco::sim::scaledSbThreshold(kBudget);

    for (const darco::workloads::BenchParams &params :
         darco::workloads::allBenchmarks()) {
        const darco::workloads::Workload workload =
            darco::workloads::resolveWorkload(
                darco::workloads::syntheticUri(params.name));
        darco::sim::MetricsOptions all = options;
        all.tolOnlyPipe = all.appOnlyPipe = all.tolModulePipe = true;
        const darco::sim::RunSnapshot fused =
            darco::sim::snapshotRun(workload, all);

        for (const FigurePipes &set : sets) {
            SCOPED_TRACE(params.name + "/" + set.name);
            darco::sim::MetricsOptions solo_options = options;
            solo_options.tolOnlyPipe = set.tolOnly;
            solo_options.appOnlyPipe = set.appOnly;
            solo_options.tolModulePipe = set.tolModule;
            const darco::sim::RunSnapshot solo =
                darco::sim::snapshotRun(workload, solo_options);

            darco::sim::RunSnapshot projected = fused;
            if (!set.tolOnly)
                projected.tolOnly.reset();
            if (!set.appOnly)
                projected.appOnly.reset();
            if (!set.tolModule)
                projected.tolModule.reset();

            EXPECT_EQ(projected.result.guestRetired,
                      solo.result.guestRetired);
            EXPECT_EQ(projected.result.halted, solo.result.halted);
            EXPECT_EQ(projected.result.cycles, solo.result.cycles);
            EXPECT_EQ(projected.result.memoryDiff,
                      solo.result.memoryDiff);
            EXPECT_EQ(projected.result.cancelled,
                      solo.result.cancelled);
            EXPECT_EQ(darco::timing::diffStats(projected.stats,
                                               solo.stats), "");
            EXPECT_EQ(darco::tol::diffTolStats(projected.tolStats,
                                               solo.tolStats), "");
            expectSamePipe("tol_only", projected.tolOnly, solo.tolOnly);
            expectSamePipe("app_only", projected.appOnly, solo.appOnly);
            expectSamePipe("tol_module", projected.tolModule,
                           solo.tolModule);
            EXPECT_EQ(projected.timingCore, solo.timingCore);
        }
    }
}
